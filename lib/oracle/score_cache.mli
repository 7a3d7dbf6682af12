(** Per-image memoization of oracle score vectors.

    The synthesizer's cost model is oracle {e queries}, but its wall-clock
    cost is forward passes: every Metropolis-Hastings candidate program
    re-runs one-pixel attacks on the same training images over the same
    finite perturbation space (8 RGB corners at every location), so
    identical [(image, location, corner)] forward passes are recomputed
    thousands of times per synthesis run.  A [Score_cache.t] memoizes the
    score vector of each distinct perturbed input of {e one} base image,
    so repeated evaluation of the fixed candidate space costs one forward
    pass per distinct perturbation instead of one per query.

    {b The metering-above-cache invariant.}  The cache sits {e under} the
    metering layer, never above it: {!Batcher.query}, the one cached
    query path, charges one query for every answer, cache hits and
    misses alike.  Query counts, success flags and synthesizer traces
    are therefore bit-identical whether a cache is used or not — the
    cache buys wall-clock, never queries.  A differential suite
    ([test/test_cache_eval.ml] and [test/diff_runner.ml --cache on|off])
    enforces this.

    A cache is unbounded: a full 16x16 corner space is 2049 entries of
    one score vector each, and a cache lives only as long as the one
    base image it belongs to.

    {b Ownership rules.}
    - One cache belongs to one [(oracle function, base image)] pair.
      Sharing a cache across images, or across different classifiers,
      silently returns wrong scores — use a {!store} (one cache per
      sample index) when evaluating a batch.
    - A cache is mutable and unsynchronized: at any instant at most one
      domain may touch it.  Per-image caches under a pooled
      {!Oppsla.Score.attack_each} satisfy this by construction
      (each image is attacked by exactly one domain per map call, and the
      pool's map barrier orders the hand-off between calls); {!Oracle.clone}
      drops any attached cache so clones can never alias one table across
      domains.  No locks are ever taken on the read path.

    Returned tensors are shared, not copied: a hit returns the same
    [Tensor.t] the miss stored.  Callers must treat score vectors as
    immutable (all in-repo callers do). *)

type key =
  | Clean  (** the unperturbed base image's scores, [N(x)] *)
  | Corner of { row : int; col : int; corner : int }
      (** a one-pixel corner perturbation — the sketch's finite space
          (see {!Oppsla.Sketch.cache_key}) *)
  | Custom of string
      (** escape hatch for perturbations outside the corner space
          (SuOPA's continuous colors, Sparse-RS pixel sets).  Producers
          must prefix their encodings distinctly so key spaces cannot
          collide. *)

val equal_key : key -> key -> bool
(** Structural key equality, without polymorphic compare: the cache's
    table matches keys with it. *)

val key_kind : key -> string
(** ["clean"], ["corner"] or ["custom"] — the label the telemetry layer
    files per-key-kind query counters under
    ([oracle.queries.<kind>]). *)

val key_to_string : key -> string
(** Canonical string form — the query journal's provenance key:
    ["clean"], ["corner:<row>,<col>,<corner>"], or the [Custom]
    payload verbatim (the space layers build those canonically). *)

type t

type stats = {
  hits : int;
  misses : int;  (** each miss is one forward pass actually computed *)
  entries : int;  (** resident entries *)
  bytes : int;  (** approximate resident size (payload + table overhead) *)
}

val create : unit -> t
(** An empty cache. *)

val find_or_add : t -> key -> compute:(unit -> Tensor.t) -> Tensor.t
(** [find_or_add t key ~compute] returns the cached vector for [key], or
    calls [compute] exactly once, stores its result, and returns it.
    [compute] is not called on a hit — lazy construction of the perturbed
    input belongs inside it. *)

val find : t -> key -> Tensor.t
(** Silent probe: no statistics are touched.  Raises [Not_found] when
    [key] is not resident, so a hit allocates nothing.  The batcher
    pairs it with {!count_hit} and {!add} because it meters a query
    between the lookup and the count, and forwards a miss between the
    lookup and the fill. *)

val count_hit : t -> unit
(** Count one hit without a lookup: the batcher probes with {!find} and
    counts the hit itself — on its cache-first path only after the query
    was metered. *)

val add : t -> key -> Tensor.t -> unit
(** Store a computed vector, counted as a miss.  A no-op if [key] is
    already resident (the first stored vector wins, matching
    {!find_or_add}). *)

val stats : t -> stats

val zero_stats : stats
val add_stats : stats -> stats -> stats
(** Pointwise sum — aggregate per-image caches into a run-level figure. *)

val hit_rate : stats -> float option
(** [hits / (hits + misses)], or [None] before any lookup. *)

(** {1 Stores: one cache per sample index}

    Batch evaluators ({!Oppsla.Score.evaluate},
    {!Oppsla.Score.evaluate_pac}, {!Evalharness.Runner.run}) take a
    [store] sized to their sample array: slot [i] memoizes image [i].
    The store is created eagerly (no lazy table mutation during a
    parallel phase), so the per-domain ownership rule above reduces to
    per-image ownership. *)

type store

val store : int -> store
(** [store n]: [n] empty caches.  Raises [Invalid_argument] if [n < 0]. *)

val image_cache : store -> int -> t
(** The cache for sample index [i].  Raises [Invalid_argument] out of
    bounds. *)

val store_size : store -> int

val store_stats : store -> stats
(** {!add_stats} over every slot. *)
