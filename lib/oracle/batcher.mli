(** Speculative candidate batching with query-identical accounting: each
    attack's one metered query step.

    A [Batcher.t] sits between a sequential attacker and a metered
    {!Oracle.t}; every attacker (the sketch, Sparse-RS, SuOPA) poses
    every query through one.  Besides batching, the batcher owns the
    attack's query cap ([max_queries]), its spent count ({!spent}), the
    watchdog beat and the threat-model observation ({!Oracle.observe})
    of every answer, so an attacker keeps only its own goal test and
    result.  Each {!query} names the candidate the attacker is
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
    order posed.  No chunk reaches past the attack's [max_queries] cap.
    If success lands at candidate [j] of a chunk, results after [j] are
    discarded and exactly [j+1] queries were charged — query counts,
    success flags and synthesizer traces are bit-identical to the
    sequential path at every batch width.  Mis-speculation costs wall-clock only.
    [test/test_batch_eval.ml] and
    [test/diff_runner.ml --batch 1|16] enforce this.

    Candidate keys must uniquely identify the perturbed input within the
    attacked image, exactly as cache keys must ({!Score_cache.key}); the
    same keys serve both purposes.

    The attackers' default width ([Oppsla.Sketch.default_batch]) is 1:
    [speculate] is never called and every chunk is the posed candidate
    alone, one forward pass per cache miss.  Inputs are borrowed: the
    attackers build them in reused slots ([Oppsla.Arena]) and rewind
    those before every query. *)

type candidate = {
  key : Score_cache.key;  (** identity of the perturbed input *)
  input : unit -> Tensor.t;
      (** builds the input; called only on miss.  A chunk calls at most
          [width] inputs and hands them to the oracle, which borrows them
          (see {!Oracle.of_fn}), before any further [input] is called —
          so inputs may share storage round-robin across [width] slots. *)
}

type t

exception Out_of_queries
(** Raised by {!query} once [max_queries] queries have been served; the
    refused query is neither charged nor forwarded. *)

val create :
  max_queries:int -> watchdog:Telemetry.Watchdog.t -> width:int -> Oracle.t -> t
(** [create ~max_queries ~watchdog ~width oracle]: one attack's query
    step, posing chunks of up to [width] candidates and serving at most
    [max_queries] queries.  Each served query beats [watchdog] (the
    attack's own heartbeat slot) with the spent count.  The oracle's
    attached cache ({!Oracle.set_cache}), read once here, excludes
    already-known candidates from the forward pass and stores newly
    computed ones.  Width 1 degenerates to the sequential path
    ([speculate] is never called).  Raises [Invalid_argument] if
    [width < 1]. *)

val query :
  t ->
  speculate:(int -> candidate option) ->
  input:(unit -> Tensor.t) ->
  Score_cache.key ->
  Tensor.t
(** [query t ~speculate ~input key]: one metered query for the candidate
    [key], answered from the buffer or the cache when possible, and
    returned through {!Oracle.observe} (a one-hot label vector under a
    label-only oracle).  Raises {!Out_of_queries} before any charge when
    [max_queries] queries have been served; otherwise the query counts
    towards {!spent} and beats the watchdog slot.  [input]
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
    {!no_speculation} to pose the candidate alone.  The batcher caps
    the chunk at [min width (max_queries - spent)], since a slot past
    the cap is never served, so [speculate] is never asked for one.
    Every query is one {!Oracle.charge}, in the order posed. *)

val no_speculation : int -> candidate option
(** Always [None]: the chunk is the queried candidate alone. *)

val spent : t -> int
(** Queries served so far: the attack's query count. *)

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
