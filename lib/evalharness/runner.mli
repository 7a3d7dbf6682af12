(** Attack evaluation over a test set, and the statistics the paper
    reports.

    Each image is attacked once with the full query allowance; the
    recorded per-image query count then yields the success rate at
    {e every} smaller budget (an attack that succeeds after [q] queries
    succeeds for any budget [>= q]; one that fails within the full space
    fails for all budgets).  This is exact for the deterministic sketch
    family and standard practice for the randomized baselines. *)

type record = {
  true_class : int;
  success : bool;
  queries : int;  (** queries spent (until success, or until give-up) *)
}

val run :
  ?domains:int ->
  ?pool:Domain_pool.Pool.t ->
  ?caches:Score_cache.store ->
  ?batch:int ->
  ?goal:Oppsla.Sketch.goal ->
  seed:int ->
  max_queries:int ->
  Attackers.t ->
  oracle_factory:(unit -> Oracle.t) ->
  (Tensor.t * int) array ->
  record array
(** Attack every (image, class) pair through
    {!Oppsla.Score.attack_each}, the per-image loop the score evaluators
    use — over the persistent [pool] when given, else over a transient
    [domains]-wide pool ([domains] defaults to
    {!Domain_pool.domain_count}; at [domains <= 1] or on fewer than two
    samples the attacks run inline and no pool is created).  Every
    attack runs under the caller's journal charge site, pooled or not.
    Every image gets a fresh oracle from [oracle_factory] (for a
    network-backed classifier, pass {!Workbench.oracle_factory}; tests
    can hand the runner a toy oracle the same way), and randomized
    attackers get a distinct, reproducible RNG per image (derived from
    [seed] and the image's index), so records do not depend on the
    parallelism.

    [goal] (default [Untargeted]) is forwarded to every attack; targeted
    runs record success against the target class
    ({!Oppsla.Sketch.goal_reached}).

    [caches] (slot [i] backing sample [i]) is attached to each image's
    fresh oracle via {!Oracle.set_cache}; cache-aware attackers then
    memoize perturbation forward passes under the metered query counter,
    so records are bit-identical with and without it.  Handing the {e
    same} store to several [run] calls over the same samples (as the
    experiments do across attackers on one classifier) lets later
    attackers hit scores the earlier ones already computed.  Raises
    [Invalid_argument] on a store/sample size mismatch.

    [batch] accepts only {!Oppsla.Sketch.default_batch} (its default)
    and raises [Invalid_argument] otherwise: every attack poses one
    candidate per query.  It stays for the repository benchmark, which
    passes it. *)

val success_rate_at : record array -> int -> float
(** Fraction of images whose attack succeeded within the given budget. *)

val success_rate : record array -> float

val avg_queries : record array -> float option
(** Mean queries over successful attacks ([None] without successes). *)

val median_queries : record array -> float option
(** Median queries over successful attacks (mean of middle pair for even
    counts). *)
