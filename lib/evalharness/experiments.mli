(** The paper's experiments (Section 5 and Appendix C), scaled to the
    synthetic substrate.

    Every function returns structured data; {!Report} renders it in the
    shape of the paper's tables/figures.  Expensive artifacts (trained
    weights, synthesized programs) are cached through {!Workbench}. *)

type scale = {
  domains : int option;
      (** width of the per-experiment persistent domain pool; [None] =
          auto.  Parallelism never changes results: per-image oracles and
          image-order merging keep query counts bit-identical (see
          {!Oppsla.Score.evaluate}). *)
  batch : int;
      (** speculative candidate chunk width for every attack (synthesis
          and attack phases alike; overrides [synth.batch]).  Like
          [domains] this never changes results — the
          {!Batcher} meters at consumption — it only batches forward
          passes.  Default {!Oppsla.Sketch.default_batch}. *)
  budgets : int list;  (** reporting budgets for Figure 3 *)
  max_queries_cifar : int;  (** attack allowance, CIFAR regime *)
  max_queries_imagenet : int;  (** attack allowance, ImageNet regime *)
  su_population : int;  (** SuOPA population (= its minimum queries) *)
  random_samples : int;  (** Sketch+Random sample count *)
  synth : Workbench.synth_params;  (** CIFAR-regime synthesis *)
  imagenet_synth : Workbench.synth_params;
      (** ImageNet-regime synthesis (lighter: larger search space, slower
          forward passes) *)
  imagenet_test_per_class : int;
  imagenet_synth_per_class : int;
  fig4_iters : int;  (** synthesis iterations traced in Figure 4 *)
  fig4_test_images : int;  (** held-out images for Figure 4's evaluation *)
  attack_seed : int;  (** seed for randomized attackers *)
}

val default_scale : scale
(** Laptop-scale defaults (see EXPERIMENTS.md for the mapping to the
    paper's parameters): budgets 50/200/full-space, SuOPA population 400,
    CIFAR synthesis of 25 iterations on 10 images per class, ImageNet
    synthesis of 15 iterations on 6 images per class. *)

val quick_scale : scale
(** A smoke-test scale that runs every experiment in a couple of minutes
    (tiny budgets and iteration counts; numbers are not meaningful). *)

(** {1 Figure 3: success rate vs. query budget} *)

type fig3_cell = { budget : int; success_rate : float }

type fig3_row = {
  classifier : string;
  dataset : string;
  attacker : string;
  attacked_images : int;
  cells : fig3_cell list;
  avg_queries : float option;  (** over successes at the full allowance *)
}

val fig3 : ?scale:scale -> Workbench.config -> fig3_row list
(** Three CIFAR-regime and two ImageNet-regime classifiers, each attacked
    by OPPSLA (per-class synthesized programs), Sparse-RS and SuOPA. *)

val fig3_cifar : ?scale:scale -> Workbench.config -> fig3_row list
val fig3_imagenet : ?scale:scale -> Workbench.config -> fig3_row list
(** The two halves of {!fig3}, runnable independently (the ImageNet
    regime is by far the more expensive). *)

(** {1 Table 1: transferability} *)

type table1 = {
  classifiers : string list;  (** row/column order *)
  avg_queries : float option array array;
      (** [avg.(target).(source)]: programs synthesized for [source], run
          against [target] *)
}

val table1 : ?scale:scale -> Workbench.config -> table1

(** {1 Figure 4: synthesis queries vs. program quality} *)

type fig4_point = {
  iteration : int;
  synth_queries : int;  (** cumulative synthesis queries when accepted *)
  test_avg_queries : float;  (** average attack queries on held-out images *)
}

type fig4 = {
  series : fig4_point list;  (** one point per newly accepted program *)
  baseline_avg_queries : float;  (** Sketch+False on the same held-out set *)
}

val fig4 : ?scale:scale -> Workbench.config -> fig4
(** Synthesis for vgg_tiny on the airplane class, tracing intermediate
    accepted programs, each evaluated on held-out airplane images. *)

(** {1 Table 2: ablation} *)

type table2_row = {
  classifier : string;
  approach : string;
  success_rate : float;  (** within the full attack allowance *)
  avg_queries : float option;
  median_queries : float option;
}

val table2 : ?scale:scale -> Workbench.config -> table2_row list
(** OPPSLA vs Sketch+False vs Sketch+Random vs Sparse-RS on the three
    CIFAR-regime classifiers. *)

(** {1 Targeted attacks}

    The targeted extension of the paper's untargeted protocol: for every
    class [t], attack every test image whose true class is not [t]
    ({!Workbench.targeted_samples}) with goal [Targeted t], recording
    success-by-budget curves like Figure 3.  One cache store per target,
    shared across attackers (perturbation cache keys are
    goal-independent). *)

type targeted_row = {
  classifier : string;
  attacker : string;
  target : int;
  target_name : string;
  attacked_images : int;
  cells : fig3_cell list;  (** success rate by budget, as in Figure 3 *)
  avg_queries : float option;
  median_queries : float option;
}

val targeted : ?scale:scale -> Workbench.config -> targeted_row list
(** Sketch+False and Sparse-RS against vgg_tiny, one row per
    (attacker, target class). *)

(** {1 MH temperature sweep}

    How the Metropolis-Hastings temperature β affects synthesis quality
    (DESIGN.md §3): one single-island synthesis per β on vgg_tiny's
    class-0 synthesis set, [scale.synth.iters] rounds at
    [scale.synth.synth_max_queries_per_image] queries per image, each β
    on its own ["sweep-beta/<β>"] PRNG stream.  Not part of the paper's
    evaluation. *)

type beta_row = {
  beta : float;
  final_avg_queries : float;  (** the chain's last program *)
  best_avg_queries : float;  (** the best program the chain visited *)
  accepted : int;  (** accepted programs, the seed program included *)
}

type beta_sweep = {
  arch : string;
  class_id : int;
  rounds : int;
  rows : beta_row list;  (** β = 0.005, 0.02, 0.08, 0.32 *)
}

val beta_sweep : ?scale:scale -> Workbench.config -> beta_sweep
