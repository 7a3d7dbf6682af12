(** Speculative candidate batching with query-identical accounting.

    A [Batcher.t] sits between a sequential attacker and a metered
    {!Oracle.t}.  Each {!query} names the candidate the attacker is
    posing NOW (by its {!Score_cache.key} identity) plus, optionally, a
    [speculate] callback enumerating the candidates it would pose next
    if nothing interesting happens.  The batcher resolves up to [width]
    candidates in one unmetered batched forward pass
    ({!Oracle.eval_batch}; cache hits are excluded from the batch first)
    and buffers the results; while subsequent queries match the buffered
    heads they are served — and metered — one at a time from the buffer.
    A query whose key differs from the buffered head is first looked up
    in the cache: a hit is answered (and metered) from the cache
    directly, with no speculation, no chunk and the buffer kept, since
    buffered slots stay valid answers for their keys.  Only a miss (the
    attacker changed course after an answer onto a candidate nobody has
    resolved) discards the buffer and rebuilds from the true state.

    {b The speculative-batching invariant.}  Forward passes are
    speculative and free of accounting; the query counter is charged
    only at consumption, one query per served candidate, in the exact
    order posed.  If success or the attacker's [max_queries] cap lands at
    candidate [j] of a chunk, results after [j] are discarded and
    exactly [j+1] queries were charged — query counts, success flags and
    synthesizer traces are bit-identical to the sequential path at every
    batch width.  Mis-speculation costs wall-clock only.
    [test/test_batch_eval.ml] and
    [test/diff_runner.ml --batch 1|16] enforce this.

    Candidate keys must uniquely identify the perturbed input within the
    attacked image, exactly as cache keys must ({!Score_cache.key}); the
    same keys serve both purposes. *)

type candidate = {
  key : Score_cache.key;  (** identity of the perturbed input *)
  input : unit -> Tensor.t;
      (** builds the input; called only on miss.  A chunk calls at most
          [width] inputs and hands them to the oracle, which borrows them
          (see {!Oracle.of_fn}), before any further [input] is called —
          so inputs may share storage round-robin across [width] slots. *)
}

type t

val create : ?cache:Score_cache.t -> width:int -> Oracle.t -> t
(** [create ~width oracle]: a batcher posing chunks of up to [width]
    candidates.  Uses [cache] (default: the oracle's attached cache, see
    {!Oracle.set_cache}) to exclude already-known candidates from the
    forward pass and to store newly computed ones.  Width 1 degenerates
    to the sequential path ([speculate] is never called).  Raises
    [Invalid_argument] if [width < 1]. *)

val query :
  t ->
  speculate:(int -> candidate option) ->
  input:(unit -> Tensor.t) ->
  Score_cache.key ->
  Tensor.t
(** [query t ~speculate ~input key]: one metered query for the candidate
    [key], answered from the buffer or the cache when possible; [input]
    builds that candidate's input (see {!candidate}) and is called only
    on a miss.  The candidate arrives as a key plus a closure rather
    than a {!candidate} record so that an attacker can make its [input]
    once per attack (reading which candidate is pending from its own
    state): a query answered from the buffer or the cache then
    allocates nothing.

    This is the one cached query path, and every query is
    metered before the cache answers it: a cache answer meters before
    counting the hit (journaled with [hit = true] and [chunk = -1]), and
    a miss is metered once its chunk is resolved, so a forward pass that
    raises charges nothing, stores nothing in the cache and leaves the
    buffer empty.  A chunk forwards a key repeated inside it once.
    [speculate i] (called only when a new chunk must be built, with
    [i = 0, 1, 2, ...] in order until it returns [None] or the chunk is
    full) returns the [i]-th candidate the attacker would pose after
    this one under the assumption that no answer changes its course,
    or [None] to stop filling; it must not mutate attacker state.  Pass
    {!no_speculation} to pose the candidate alone.  Callers cap it at
    their own [max_queries], since a slot past the cap is never served.
    Meters exactly like {!Oracle.scores}: one counter increment per
    query, in the order posed. *)

val no_speculation : int -> candidate option
(** Always [None]: the chunk is the queried candidate alone. *)

val width : t -> int

(** {1 Statistics}

    Counters are global (atomic, summed across all batchers and
    domains); [Runner]/[Workbench] reset them per run and report them
    next to cache and pool statistics. *)

type stats = {
  queries : int;  (** metered queries served *)
  batches : int;  (** chunks resolved (built only on a cache miss) *)
  prepared : int;  (** candidates resolved across all chunks *)
  buffer_hits : int;  (** queries served from an existing buffer *)
  discarded : int;  (** buffered results thrown away on mis-speculation *)
}

val global_stats : unit -> stats
val reset_global_stats : unit -> unit
val zero_stats : stats
val add_stats : stats -> stats -> stats
