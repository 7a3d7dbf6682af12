(** The synthesizer's score function (Section 4).

    [S(P) = exp (-beta * avgQ(P))] where [avgQ(P)] averages the number of
    queries [P] spends on the training inputs for which it finds an
    adversarial example; inputs with no successful example are ignored
    (their query count is program-independent). *)

type image_eval = {
  queries : int;  (** oracle queries this image's attack posed *)
  success : bool;
}

type evaluation = {
  avg_queries : float;
      (** mean queries over successful inputs; [no_success_penalty] when
          no input succeeded *)
  successes : int;
  attempts : int;
  total_queries : int;  (** all queries posed, successful or not *)
  per_image : image_eval array;
      (** one entry per training input, in input order — the ground truth
          the differential test suite compares across evaluators *)
}

val no_success_penalty : float
(** Stand-in average when a program succeeds on no training input (never
    happens once the training set contains at least one attackable image,
    because success is program-independent). *)

val attack_each :
  ?pool:Domain_pool.Pool.t ->
  ?caches:Score_cache.store ->
  (int ->
  cache:Score_cache.t option ->
  image:Tensor.t ->
  true_class:int ->
  'r) ->
  (Tensor.t * int) array ->
  'r array
(** [attack_each ?pool ?caches attack samples] runs
    [attack i ~cache ~image ~true_class] once per sample and returns the
    results in sample order.  It is the per-image loop behind
    {!evaluate}, {!evaluate_pac} and [Evalharness.Runner.run]:

    - without [pool] the attacks run inline in the caller, in order;
      with [pool] they run as one {!Domain_pool.Pool.map};
    - [cache] is slot [i] of [caches] (or [None]) — each slot is handed
      to the one attack on its image, so a cache is never shared across
      domains;
    - every attack runs under the caller's journal charge site (re-applied
      in pool workers) and its own image index ({!Telemetry.Journal});
    - the image index is stamped on the ["eval.image"] heartbeat slot,
      which is never entered and so never reports a stall.

    [attack] picks its own oracle; it must not share one metered handle
    across images when [pool] is given.  Raises [Invalid_argument] if
    the store size differs from the sample count. *)

val evaluate :
  ?max_queries:int ->
  ?goal:Sketch.goal ->
  ?caches:Score_cache.store ->
  ?pool:Domain_pool.Pool.t ->
  Oracle.t ->
  Condition.program ->
  (Tensor.t * int) array ->
  evaluation
(** Run the program on every (image, true class) pair.  [max_queries]
    bounds each individual attack (default: the full perturbation
    space); [goal] defaults to untargeted.

    Without [pool], the attacks run sequentially against the one given
    oracle.  With [pool], they fan out over the pool as one map call:
    each image is attacked against its own {!Oracle.clone} of [oracle],
    so query metering is race-free, and results are merged in image
    order.  The paper's cost model is oracle queries, so the pooled
    evaluation is {e bit-identical} to the sequential one (same
    [avg_queries], [per_image], flags) for every oracle and any pool
    size: the oracle only meters, and each attack caps itself at
    [max_queries].

    [caches] memoizes perturbation scores per image: slot [i] of the
    store backs sample [i], and the same store handed to every call over
    the same samples (as the synthesizer does across MH proposals) makes
    repeated evaluation cost one forward pass per distinct perturbation
    instead of one per query.  Metering stays above the cache, so the
    returned evaluation is bit-identical with and without [caches].  It
    is safe under a pool by ownership rather than locking: clones drop
    any attached cache ({!Oracle.clone}), each image's slot is attached
    ({!Oracle.set_cache}) to the handle attacking that image for the one
    attack and detached afterwards, at any instant an image — hence
    its cache — is held by exactly one domain, and the pool's map
    barrier orders hand-offs between evaluations.  Raises
    [Invalid_argument] if the store size differs from the sample count,
    or if [oracle] carries an {e attached} per-image cache (which cannot
    be correct for a multi-image batch). *)

val evaluate_parallel :
  ?max_queries:int ->
  ?goal:Sketch.goal ->
  ?caches:Score_cache.store ->
  ?batch:int ->
  pool:Domain_pool.Pool.t ->
  Oracle.t ->
  Condition.program ->
  (Tensor.t * int) array ->
  evaluation
(** [evaluate ~pool], under its old name.  Deprecated: kept only for the
    repository benchmark, which still calls it; the next change to that
    benchmark moves it to [evaluate ~pool] and deletes this alias.
    [batch] is accepted only at {!Sketch.default_batch}
    ({!Sketch.require_default_batch}). *)

(** {2 PAC early stopping}

    Statistical candidate pruning for the synthesizer (motivated by
    Bastani-style statistical sketching): a candidate is
    evaluated on a caller-permuted prefix of the training set, and
    abandoned once a lower bound on its final average query count
    provably (or with probability [1 - delta]) exceeds a threshold —
    typically the incumbent program's average.  Bad candidates die after
    [min_images] images instead of the full set. *)

type pac = {
  delta : float;
      (** Hoeffding confidence parameter: the statistical part of the
          bound wrongly prunes a candidate with probability at most
          [delta] per check; default 0.05 *)
  min_images : int;
      (** never prune before this many images were evaluated; default 10 *)
  stage : int;
      (** evaluate this many images between bound checks; default 10 *)
  range : float option;
      (** assumed per-image query range for the Hoeffding bound; [None]
          uses [max_queries] (the per-attack cap), which is the widest
          sound choice.  A tighter, workload-informed range prunes
          earlier at the same [delta]. *)
}

val default_pac : pac

type pruned_stats = {
  lower_bound : float;
      (** the bound that fired: a certified optimistic-completion bound
          or the Hoeffding lower confidence bound, whichever is larger *)
  images_seen : int;  (** images evaluated before pruning *)
  queries_spent : int;  (** oracle queries those images cost *)
}

type staged = Complete of evaluation | Pruned of pruned_stats

val evaluate_pac :
  ?max_queries:int ->
  ?goal:Sketch.goal ->
  ?caches:Score_cache.store ->
  ?pool:Domain_pool.Pool.t ->
  pac:pac ->
  threshold:float ->
  order:int array ->
  Oracle.t ->
  Condition.program ->
  (Tensor.t * int) array ->
  staged
(** [evaluate_pac ~pac ~threshold ~order oracle program samples] evaluates
    [samples] in the order given by the permutation [order] (the caller
    draws it from a dedicated PRNG stream so replay is deterministic), in
    stages of [pac.stage] images; after each stage with at least
    [pac.min_images] images done, it prunes iff the combined lower bound
    exceeds [threshold].

    [Complete e] is {e bit-identical} to {!evaluate} (with the same
    [pool]) on the same arguments: every image is
    evaluated exactly once, per-image results are merged in input order,
    and the visiting order cannot affect any per-image result.
    [Pruned] reports the bound and the partial spend; the caller treats
    the candidate as rejected.

    Raises [Invalid_argument] if [order] is not a permutation of the
    sample indices, if [pac.stage <= 0], or if neither [pac.range] nor
    [max_queries] is given (the Hoeffding bound needs a range). *)

val score : beta:float -> float -> float
(** [score ~beta avg_queries = exp (-. beta *. avg_queries)]. *)

val acceptance_ratio : beta:float -> current:float -> proposal:float -> float
(** [S(P') / S(P) = exp (beta * (current - proposal))] — the
    Metropolis-Hastings acceptance ratio expressed directly on average
    query counts, immune to underflow of the individual scores. *)
