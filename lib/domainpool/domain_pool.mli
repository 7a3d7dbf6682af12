(** Reusable parallel execution over OCaml 5 domains.

    One entry point: {!Pool.map} on a {e persistent} pool of worker
    domains with explicit [create] / [shutdown] (or {!Pool.with_pool}).
    Spawning a domain costs far more than an oracle query, so every
    caller (per-image attack loops, Metropolis-Hastings evaluation, the
    experiment runners) creates one pool per run and pushes every batch
    of images through it.  This is the system's only level of
    parallelism: a forward pass runs on the domain that asked for it.

    Scheduling is chunked self-scheduling over an atomic cursor: every
    participant — the caller domain included — repeatedly steals the next
    chunk of indices until the input is exhausted, so uneven per-item cost
    balances automatically.  Results always land at their input index;
    parallelism never reorders outputs.

    Exception contract: if [f] raises, the {e first} exception raised
    (in claim order) is re-raised in the caller with its original
    backtrace, after every in-flight item has drained.  Items after the
    failure are abandoned, never silently reported as results: a map
    either returns a fully materialized array or raises.  Either way the
    job is counted in {!Pool.stats} and the [pool.job_inflight] gauge
    is back at 0 when [map] exits. *)

val domain_count : unit -> int
(** [Domain.recommended_domain_count], capped at 8. *)

module Pool : sig
  type t
  (** A persistent pool.  A pool is owned by the domain that created it:
      only that domain may call {!map} / {!shutdown}, and {!map} must not
      be re-entered from inside a mapped function (workers block waiting
      for the outer map's cursor). *)

  type stats = {
    domains : int;  (** participants per map call, caller included *)
    jobs : int;  (** map calls served *)
    tasks : int;  (** items processed across all jobs *)
    steals : int;  (** items processed by worker domains (not the caller) *)
    busy_seconds : float;  (** wall time spent inside map calls *)
  }

  val create : ?domains:int -> unit -> t
  (** [create ~domains ()] spawns [domains - 1] worker domains (the
      caller is the remaining participant).  [domains] defaults to
      {!domain_count}; values [<= 1] yield a poolless pool whose [map]
      runs inline in the caller. *)

  val size : t -> int
  (** Participants per map call ([domains] at creation, caller
      included). *)

  val map : t -> ('a -> 'b) -> 'a array -> 'b array
  (** Order-preserving parallel map over the pool's domains.  Raises
      [Invalid_argument] if the pool was shut down (rejecting new work
      beats hanging on dead workers), or if a parallel job is already in
      flight (re-entering [map] from a mapped function would deadlock;
      that misuse now fails loudly instead). *)

  val stats : t -> stats
  (** Cumulative instrumentation since [create]. *)

  val shutdown : t -> unit
  (** Join the worker domains.  Idempotent.  After shutdown, {!map}
      rejects new work with [Invalid_argument]. *)

  val with_pool : ?domains:int -> (t -> 'a) -> 'a
  (** [with_pool f] is [f (create ())] with a guaranteed shutdown,
      whether [f] returns or raises. *)
end

