(** The one-pixel attack sketch (Algorithm 1 / Appendix A).

    [attack] enumerates the finite perturbation space (all RGB-cube
    corners at all locations) through the priority queue of
    {!Pair_queue.full_space}, querying the oracle for each candidate.  A
    failed candidate's {i closest pairs} are reordered according to the
    program's four conditions:

    - [B1] true: the in-queue neighbours with the same corner are pushed
      to the back;
    - [B2] true: the front-most in-queue pair at the same location is
      pushed to the back;
    - [B3] true: the in-queue neighbours with the same corner are removed
      and eagerly checked, recursively;
    - [B4] true: the front-most in-queue pair at the same location is
      removed and eagerly checked, recursively.

    Every instantiation visits the same candidate set, so success is
    program-independent; only the {i order} — hence the query count —
    changes.

    The clean score vector [N(x)] (needed by [score_diff] conditions) is
    obtained without spending a metered query: in the paper's protocol the
    attacker only targets images it already knows are correctly
    classified, so [N(x)] is in hand before the attack starts. *)

type goal =
  | Untargeted  (** succeed when the prediction is anything but the true class *)
  | Targeted of int
      (** succeed only when the prediction becomes this specific class
          (an extension beyond the paper's untargeted setting; the sketch
          and query accounting are unchanged) *)

type result = {
  adversarial : (Pair.t * Tensor.t) option;
      (** the successful pair and perturbed image, or [None] *)
  queries : int;  (** oracle queries posed by this attack *)
}

val goal_reached : goal -> true_class:int -> int -> bool
(** [goal_reached goal ~true_class predicted]: the success predicate all
    attacks share — [predicted <> true_class] untargeted,
    [predicted = target] targeted.  Because the argmax of a one-hot
    vector is the argmax of the raw vector, this predicate is identical
    under {!Oracle.Score} and {!Oracle.Decision} observation. *)

val perturb : Tensor.t -> Pair.t -> Tensor.t
(** [perturb x pair] is [x[l <- p]]: a copy of [x] with the pair's pixel
    overwritten by its corner value. *)

val cache_key : Pair.t -> Score_cache.key
(** The {!Score_cache} key of a pair's perturbation:
    [Corner {row; col; corner}].  Shared with baselines that query the
    same finite space (Sparse-RS at [k = 1]), so their caches interoperate
    with the sketch's. *)

val corner_keys : d1:int -> d2:int -> Score_cache.key array
(** The shared, immutable table of corner keys for a [d1 x d2] image:
    entry [id] is [cache_key (Pair.of_id ~d2 id)].  Built once per
    geometry (domain-safe) and never mutated, so the attack names each
    query's key by an array read.  Do not mutate it. *)

val default_batch : int
(** The candidate width: 1.  Every attack poses one candidate per query
    and forwards it alone on a cache miss.  The width-typed names that
    still carry it ([Evalharness.Runner.run ?batch], [Score.evaluate_parallel
    ?batch], [Evalharness.Attackers.t]'s [~batch], [Islands.config.batch])
    accept only this value, through {!require_default_batch}. *)

val require_default_batch : string -> int -> unit
(** [require_default_batch fn b] returns when [b] is {!default_batch}
    and otherwise raises [Invalid_argument] naming [fn]. *)

val attack :
  ?max_queries:int ->
  ?goal:goal ->
  ?on_query:(int -> Pair.t -> Tensor.t -> unit) ->
  Oracle.t ->
  Condition.program ->
  image:Tensor.t ->
  true_class:int ->
  result
(** Run the sketch.  Stops with [adversarial = None] when the queue is
    exhausted or when [max_queries] attack queries have been spent — the
    one query cap, enforced by the attack's {!Batcher}; the oracle only
    meters.  [max_queries] defaults to the full space size
    [8 * d1 * d2] (the attack never needs more).  [goal] defaults to
    [Untargeted].

    The oracle's attached cache ({!Oracle.set_cache}), if any, is this
    image's perturbation-score memo table and must belong to [image]
    (see {!Score_cache}).  Every query is posed through the {!Batcher},
    so metering — the query counter and [queries] in the result — is
    bit-identical with and without it, and so are the score vectors
    every condition sees.  A forwarded candidate is built in place in
    the attack's one {!Arena} slot; the adversarial image in the result
    is a fresh {!perturb} copy.

    [on_query] is an instrumentation hook called after every metered
    query with the 1-based query index, the candidate pair, and the
    returned score vector (used by {!Analysis.traced_attack}); with a
    cache the vector may be shared with the memo table, so hooks must not
    mutate it.  Without it the attack builds no {!Pair.t} per query.

    The interpreter runs on pair ids ({!Pair_queue}'s id operations,
    {!Condition.compile}d holes, {!corner_keys}), so a query answered
    from the cache allocates nothing in the sketch itself. *)

val success_exists :
  ?goal:goal -> Oracle.t -> image:Tensor.t -> true_class:int -> bool
(** Ground truth via exhaustive unmetered scan: does any corner one-pixel
    perturbation flip the classification?  Every candidate is built in
    the one {!Arena} slot.  For tests and dataset diagnostics only. *)
