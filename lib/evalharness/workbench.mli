(** Experiment setup: trained classifiers, filtered test sets, per-class
    synthesis training sets, and artifact caching.

    Training a classifier and synthesizing its per-class adversarial
    programs are the expensive, reusable steps of every experiment, so
    both are cached on disk (weights via {!Nn.Serialize}, programs via the
    {!Oppsla.Dsl} concrete syntax).  Cache keys embed every parameter that
    affects the artifact, so changing a knob regenerates instead of
    reusing a stale file.

    Protocol notes mirroring the paper (Section 5): misclassified images
    are discarded from test sets before attacking; synthesis training
    sets are per-class. *)

type classifier = {
  arch : string;
  net : Nn.Network.t;
  spec : Dataset.spec;
  test : (Tensor.t * int) array;  (** correctly classified test images *)
  test_accuracy : float;  (** on the unfiltered test set *)
  synth_sets : (Tensor.t * int) array array;
      (** per-class synthesis training sets (correctly classified only) *)
  backend : Nn.Backend.kind;
      (** tensor engine its oracles score with (from {!config}) *)
}

type config = {
  artifacts_dir : string option;
      (** cache directory; [None] disables caching *)
  seed : int;
  train_per_class : int;  (** classifier training set size per class *)
  test_per_class : int;
  synth_per_class : int;  (** synthesis training images per class *)
  epochs : int;
  log : string -> unit;
  backend : Nn.Backend.kind;
      (** tensor engine for oracle forward passes ([Boxed] reference or
          the [F32] Bigarray plan); affects wall-clock only — query
          accounting and attack outcomes are engine-independent within
          {!Nn.Backend.score_tol} *)
}

val default_config : config
(** artifacts in ["_artifacts"], seed 42, 60/8 train/test per class,
    10 synthesis images per class, 8 epochs, silent log, boxed
    backend. *)

val load_classifier : config -> Dataset.spec -> string -> classifier
(** Train (or load cached weights for) one architecture on one dataset
    and assemble its filtered test and synthesis sets.  Raises
    [Invalid_argument] for unknown architecture names. *)

val cifar_suite : config -> classifier list
val imagenet_suite : config -> classifier list

val oracle_factory : classifier -> unit -> Oracle.t
(** Fresh metered oracle per call (thread-safe usage pattern: one oracle
    per image, see {!Domain_pool}), scoring through the classifier's
    [backend]. *)

val targeted_samples : classifier -> target:int -> (Tensor.t * int) array
(** The classifier's attackable test images whose true class is not
    [target] — the sample set of a targeted run (images already
    classified as the target would succeed in zero queries).  Raises
    [Invalid_argument] for an out-of-range class. *)

type synth_params = {
  iters : int;
  beta : float;
  synth_max_queries_per_image : int;
  domains : int option;
}

val default_synth_params : synth_params
(** 40 iterations, beta 0.02, 1024-query cap per synthesis attack. *)

val log_cache_stats : config -> string -> Score_cache.store -> unit
(** [log_cache_stats config label store] writes one line of the store's
    aggregated counters to [config.log]: hits, misses, hit rate, resident
    entries and their estimated footprint in MB.  Used after each synthesis
    run and attack sweep. *)

val synthesize_programs :
  ?params:synth_params ->
  ?pool:Domain_pool.Pool.t ->
  config ->
  classifier ->
  Oppsla.Condition.program array
(** One program per class, via OPPSLA on each class's synthesis set: a
    one-island {!Oppsla.Islands.synthesize} run (Algorithm 2's single MH
    chain) whose final program is kept.  Cached under the artifacts
    directory.  Classes whose synthesis set is empty (no correctly
    classified image) fall back to the Sketch+False program.  MH proposal
    evaluation fans out over [pool] (or a transient pool sized by
    [params.domains]); the accepted-program trace is identical at every
    pool size. *)

val sketch_random_programs :
  ?samples:int ->
  ?max_queries_per_image:int ->
  ?pool:Domain_pool.Pool.t ->
  config ->
  classifier ->
  Oppsla.Condition.program array
(** Per-class programs chosen by the Sketch+Random ablation baseline;
    cached like {!synthesize_programs}.  Perturbation scores are
    memoized per training image across the sampled programs, as OPPSLA
    synthesis memoizes them across MH proposals. *)
