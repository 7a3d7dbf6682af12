(** Each attack's one metered query step.

    A [Batcher.t] sits between a sequential attacker and a metered
    {!Oracle.t}; every attacker (the sketch, Sparse-RS, SuOPA) poses
    every query through one, one candidate at a time, as Algorithm 1
    does.  The batcher owns the attack's query cap ([max_queries]), its
    spent count ({!spent}), the watchdog beat and the threat-model
    observation ({!Oracle.observe}) of every answer, so an attacker
    keeps only its own goal test and result.

    A query names the candidate the attacker is posing by its
    {!Score_cache.key} identity.  The oracle's attached cache answers
    it when it can; otherwise the candidate's input is built and
    forwarded once ({!Oracle.forward}) and the answer stored under its
    key.  Either way the query is charged exactly once
    ({!Oracle.charge}), in the order posed, so query counts, success
    flags and synthesizer traces are bit-identical with and without a
    cache.

    Candidate keys must uniquely identify the perturbed input within the
    attacked image, exactly as cache keys must ({!Score_cache.key}).
    Inputs are borrowed: the attackers build them in one reused slot
    ({!Oppsla.Arena}), which the oracle consumes before the query
    returns. *)

type t

exception Out_of_queries
(** Raised by {!query} once [max_queries] queries have been served; the
    refused query is neither charged nor forwarded. *)

val create : max_queries:int -> watchdog:Telemetry.Watchdog.t -> Oracle.t -> t
(** [create ~max_queries ~watchdog oracle]: one attack's query step,
    serving at most [max_queries] queries.  Each served query beats
    [watchdog] (the attack's own heartbeat slot) with the spent count.
    The oracle's attached cache ({!Oracle.set_cache}), read once here,
    answers already-known candidates and stores newly computed ones. *)

val query : t -> input:(unit -> Tensor.t) -> Score_cache.key -> Tensor.t
(** [query t ~input key]: one metered query for the candidate [key],
    returned through {!Oracle.observe} (a one-hot label vector under a
    label-only oracle).  Raises {!Out_of_queries} before any charge when
    [max_queries] queries have been served; otherwise the query counts
    towards {!spent} and beats the watchdog slot.  [input] builds the
    candidate's input and is called only on a cache miss.  The
    candidate arrives as a key plus a closure so that an attacker can
    make its [input] once per attack (reading which candidate is pending
    from its own state): a query the cache answers then allocates
    nothing.

    This is the one cached query path, and every query is metered before
    the cache answers it: a cache answer meters before counting the hit
    (journaled with [hit = true] and [chunk = -1]); a miss is forwarded,
    stored and then metered (journaled with [hit = false] and
    [chunk = 0]), so a forward pass that raises charges nothing and
    stores nothing in the cache. *)

val spent : t -> int
(** Queries served so far: the attack's query count. *)

(** {1 Statistics}

    Counters are global (atomic, summed across all batchers and
    domains).  The record keeps the fields of the speculative engine it
    replaced, for the repository benchmark that still reads them: every
    forward pass is one candidate, so [batches] = [prepared] = forward
    passes, and [buffer_hits] = [discarded] = 0. *)

type stats = {
  queries : int;  (** metered queries served *)
  batches : int;  (** forward passes (one per cache miss) *)
  prepared : int;  (** candidates forwarded: equal to [batches] *)
  buffer_hits : int;  (** always 0 *)
  discarded : int;  (** always 0 *)
}

val global_stats : unit -> stats
val reset_global_stats : unit -> unit
