(** Black-box, query-metered access to a classifier.

    The paper's setting is black-box with a query budget (online
    classification APIs meter queries).  Attack and synthesis code may
    only observe a classifier through this module: every metered query
    goes through {!Batcher.query}, the one metered query step, and
    increments the query counter through {!charge}.  The
    oracle only meters; the one query cap is the attacker's own
    [max_queries] ({!Oppsla.Sketch.attack}, the baselines), and budget
    thresholds such as the paper's ≤100/≤500/≤10000 are read off each
    image's count after the fact.

    The oracle returns the full softmax score vector, matching the paper's
    [N(x) in R^c] (score-based black-box access).

    {b Caching.}  An oracle may carry an attached {!Score_cache.t}
    ({!set_cache}) memoizing the score vectors of one base image's
    perturbations.  The cache sits strictly {e under} the metering layer:
    {!Batcher.query}, the one cached query path, charges one query for
    every answer, cache hit or miss, so query accounting is
    bit-identical with and without a cache — caching trades forward
    passes, never queries. *)

type t

type mode = Score | Decision
(** The query threat model.  [Score] is the paper's setting: every query
    reveals the full score vector [N(x) in R^c].  [Decision] is the
    harder label-only (top-1) setting: a query still costs exactly one
    query, but only the predicted label is observable.  The
    mode changes what {!observe} reveals, never what a query costs. *)

val of_network : ?backend:Nn.Backend.kind -> Nn.Network.t -> t
(** Network-backed oracle.  The network is compiled once into a
    {!Nn.Backend} plan and every forward pass runs it on a one-image
    view of the candidate.  [?backend] (default [Boxed]) selects the
    tensor engine: [Boxed] is {!Nn.Backend.Boxed_engine}, bit-identical
    to the single-image {!Nn.Network.scores} (the same float64 kernels);
    [F32] is the float32 Bigarray plan ({!Nn.Backend.F32_engine}) —
    identical argmax/success/query behaviour within
    {!Nn.Backend.score_tol} per score.  Query accounting is independent
    of the backend. *)

val of_fn :
  ?batch_fn:(Tensor.t array -> Tensor.t array) ->
  ?name:string -> num_classes:int ->
  (Tensor.t -> Tensor.t) -> t
(** Wrap an arbitrary scoring function (tests, toy classifiers).  The
    function must return a score vector of length [num_classes].  With
    [batch_fn], the batcher's forward passes ({!forward}) call it on a
    one-element array instead of calling the single-image function; it
    must answer one vector ([Invalid_argument] otherwise).  Unmetered
    calls always use the single-image function.  Accounting is
    identical either way.

    The tensors passed to [fn] and [batch_fn] are borrowed: the caller
    may reuse their storage for the next candidate as soon as the call
    returns (the attackers perturb a few pixels of one slot in place),
    so the functions must neither keep nor mutate them.  Copy an input
    to retain it. *)

val mode : t -> mode

val set_mode : t -> mode -> unit
(** Switch the query threat model.  Affects only {!observe}; metering,
    caching and forwarding are mode-blind, so query accounting is
    bit-identical across modes by construction. *)

val observe : t -> Tensor.t -> Tensor.t
(** The observation point of the threat model: {!Batcher.query} passes
    every resolved score vector through [observe] before the attack
    acts on it.
    Identity in [Score] mode; in [Decision] mode the vector collapses to
    the one-hot of its argmax, so only the predicted label survives.  On
    one-hot vectors the sketch DSL's [Score_diff] condition evaluates to
    exactly the label-flip indicator (1.0 when the prediction moved off
    the clean argmax, 0.0 otherwise), which is how score-based
    conditions degrade gracefully to label-flip predicates.  Caches
    store raw score tensors internally in both modes — keys
    and accounting never depend on the mode.

    A [Decision]-mode answer is one of [num_classes] one-hot vectors the
    oracle builds once and shares with its clones, so an observation
    allocates nothing: treat it as read-only, as every score vector. *)

val charge : t -> Score_cache.key -> hit:bool -> chunk:int -> unit
(** Charge one query for the candidate [key]: the one meter.  It never
    refuses a query; the cap is the attack's [max_queries], enforced by
    {!Batcher.query}.  Exposed so the batcher can keep metering
    {e above} the cache ({!Batcher} is its one caller); never call it
    without answering the query it charges for.  The key's
    {!Score_cache.key_kind} routes the telemetry per-kind counter
    [oracle.queries.<kind>]; it never affects accounting.  No optional arguments, so a charge with the
    journal closed allocates nothing.

    The key, [hit] and [chunk] are also query-journal provenance — the
    cache key behind the charge, whether the cache already held the
    answer, and [0] for a forwarded answer or [-1] for a cached one.
    They are only consulted when the journal sink is open and never
    affect accounting: a journaled run charges the same queries at the
    same indices as a bare one (the [journal] bench asserts this). *)

val forward : t -> Tensor.t -> Tensor.t
(** Unmetered forward pass of one candidate: the miss path of
    {!Batcher.query}, its one caller, which charges the query once the
    answer is in hand.  Never call it from attack code directly.  The
    input is borrowed for the duration of the call (see {!of_fn});
    raises [Invalid_argument] if the answer has the wrong length. *)

val queries : t -> int
(** Queries posed since creation.  A fresh count is a fresh oracle or a
    {!clone}. *)

val set_cache : t -> Score_cache.t option -> unit
(** Attach (or detach, with [None]) a per-image score cache.  The cache
    must belong to the one base image this handle is about to attack —
    attaching it is the one way an attack is given its cache
    ({!Oppsla.Score} and {!Evalharness.Runner} attach each image's slot
    to the handle that attacks it). *)

val cache : t -> Score_cache.t option
(** The attached cache, if any: the one place an attack's cache comes
    from ({!Batcher.create} and the sketch's clean scores read it). *)

val clone : t -> t
(** A fresh metered handle onto the same scoring function: same name,
    classes and mode, but an independent query counter starting at 0
    and {b no attached cache}.  This is the sanctioned way to fan an
    oracle out across domains — the counter is plain mutable state, so
    domains must never share one handle, and a {!Score_cache.t} is plain
    mutable state too, so a clone deliberately {e drops} it rather than
    aliasing one unsynchronized table across workers (a pooled
    {!Oppsla.Score.evaluate} hands each image's clone that image's own
    slot explicitly).

    The clone contract for the query {!mode} is the opposite of the
    cache's: the mode is {b preserved}.  A cache is per-image mutable
    working state (dropped); the mode is the threat-model identity of
    the oracle (kept), so a worker clone observes exactly what its
    parent would.  The copy is independent — {!set_mode} on the clone
    never touches the parent. *)

val num_classes : t -> int
val name : t -> string

val unmetered_classify : t -> Tensor.t -> int
(** Classification that does NOT count as a query.  Reserved for
    experiment bookkeeping (e.g. filtering misclassified test images, as
    the paper does before attacking); never use it inside an attack. *)

val unmetered_scores : t -> Tensor.t -> Tensor.t
(** Unmetered score vector.  Same restrictions as {!unmetered_classify},
    plus one sanctioned use: the sketch reads the clean scores [N(x)] this
    way, because the attacker learned them when it established that the
    image is correctly classified. *)
