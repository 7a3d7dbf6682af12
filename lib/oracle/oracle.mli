(** Black-box, query-metered access to a classifier.

    The paper's setting is black-box with a hard query budget (online
    classification APIs meter queries).  Attack and synthesis code may
    only observe a classifier through this module: every call to
    {!scores} / {!classify} increments the query counter and, when a
    budget is set, raises {!Budget_exhausted} once the budget is spent.

    The oracle returns the full softmax score vector, matching the paper's
    [N(x) in R^c] (score-based black-box access).

    {b Caching.}  An oracle may carry an attached {!Score_cache.t}
    ({!set_cache}) memoizing the score vectors of one base image's
    perturbations.  The cache sits strictly {e under} the metering layer:
    {!scores_memo} charges the counter and enforces the budget {e before}
    the lookup, so query accounting is bit-identical with and without a
    cache — caching trades forward passes, never queries. *)

type t

type mode = Score | Decision
(** The query threat model.  [Score] is the paper's setting: every query
    reveals the full score vector [N(x) in R^c].  [Decision] is the
    harder label-only (top-1) setting: a query still costs exactly one
    unit of budget, but only the predicted label is observable.  The
    mode changes what {!observe} reveals, never what a query costs. *)

exception Budget_exhausted of int
(** Carries the budget that was exhausted. *)

val of_network :
  ?budget:int ->
  ?backend:Nn.Backend.kind ->
  ?pool:Domain_pool.Pool.t ->
  Nn.Network.t ->
  t
(** Network-backed oracle.  The network is compiled once into a
    {!Nn.Backend} plan and every forward pass runs it: batched queries
    ({!eval_batch}, {!scores_batch}, {!Batcher}) as one forward over
    the whole chunk, single queries as a batch of one.  [?backend]
    (default [Boxed]) selects the tensor engine: [Boxed] is
    {!Nn.Backend.Boxed_engine}, bit-identical to the direct
    {!Nn.Network.scores}; [F32] is the float32 Bigarray plan
    ({!Nn.Backend.F32_engine}) — identical argmax/success/query
    behaviour within {!Nn.Backend.score_tol} per score.  [?pool] (f32
    only) lets the GEMM dispatch row panels onto an idle domain pool;
    query accounting is independent of both knobs. *)

val of_fn :
  ?budget:int ->
  ?batch_fn:(Tensor.t array -> Tensor.t array) ->
  ?name:string -> num_classes:int ->
  (Tensor.t -> Tensor.t) -> t
(** Wrap an arbitrary scoring function (tests, toy classifiers).  The
    function must return a score vector of length [num_classes].
    Without [batch_fn], batched queries fall back to mapping the
    single-image function — accounting semantics are identical either
    way, only wall-clock differs.

    The tensors passed to [fn] and [batch_fn] are borrowed: the caller
    may reuse their storage for the next candidate as soon as the call
    returns (the sketch perturbs a few image slots in place), so the
    functions must neither keep nor mutate them.  Copy an input to
    retain it. *)

val scores : t -> Tensor.t -> Tensor.t
(** One metered query.  Raises {!Budget_exhausted} if the budget is
    already spent (the query is not forwarded). *)

val classify : t -> Tensor.t -> int
(** [argmax (scores t x)] — also one metered query. *)

val decide : t -> Tensor.t -> int
(** Label-only (top-1) query: one metered query — same counter
    increment, same {!Budget_exhausted} at the same query index as
    {!scores} — that reveals only the predicted label.  Use this when
    writing decision-based attack code directly; score-based attack code
    is switched to the label-only threat model wholesale via {!set_mode}
    [Decision] + {!observe} instead. *)

val mode : t -> mode

val set_mode : t -> mode -> unit
(** Switch the query threat model.  Affects only {!observe}; metering,
    caching and batching are mode-blind, so query accounting is
    bit-identical across modes by construction. *)

val observe : t -> Tensor.t -> Tensor.t
(** The observation point of the threat model: attacks pass every
    resolved score vector through [observe] before acting on it.
    Identity in [Score] mode; in [Decision] mode the vector collapses to
    the one-hot of its argmax, so only the predicted label survives.  On
    one-hot vectors the sketch DSL's [Score_diff] condition evaluates to
    exactly the label-flip indicator (1.0 when the prediction moved off
    the clean argmax, 0.0 otherwise), which is how score-based
    conditions degrade gracefully to label-flip predicates.  Caches and
    the batcher store raw score tensors internally in both modes — keys
    and accounting never depend on the mode. *)

val score_of : t -> Tensor.t -> int -> float
(** [score_of t x c] is [(scores t x).(c)] — one metered query. *)

val meter :
  ?kind:string -> ?ckey:Score_cache.key -> ?hit:bool -> ?chunk:int -> t -> unit
(** The metering half of {!scores} on its own: raise {!Budget_exhausted}
    if the budget is spent, otherwise charge one query.  Exposed so
    caching layers can keep metering {e above} the cache; never call it
    without answering the query it charges for.  [kind] (a
    {!Score_cache.key_kind} label) only routes the telemetry per-kind
    counter [oracle.queries.<kind>]; it never affects accounting.

    [ckey], [hit] and [chunk] are query-journal provenance — the cache
    key behind the charge, whether the memo layer already held the
    answer, and the batcher slot position.  They are only consulted
    when the journal sink is open and never affect accounting: a
    journaled run charges the same queries at the same indices as a
    bare one (the [journal] bench asserts this). *)

val scores_memo :
  t ->
  Score_cache.t ->
  key:Score_cache.key ->
  input:(unit -> Tensor.t) ->
  Tensor.t
(** One metered query answered through a cache.  Meters exactly like
    {!scores} — same counter increment, same {!Budget_exhausted} at the
    same query index — then returns the cached score vector for [key],
    calling [input] to construct the query tensor only on a miss.  The
    caller owns the key discipline: [key] must uniquely identify the
    perturbed input within the cache's base image (see
    {!Score_cache.key}).  The returned tensor is shared with the cache;
    treat it as immutable. *)

val eval_batch : t -> Tensor.t array -> Tensor.t array
(** Unmetered batched forward pass — the {e speculative} half of the
    batched query path.  Deliberately not a query: callers
    ({!scores_batch}, {!Batcher}) must meter each slot at consumption
    time, in submission order, so speculation can never perturb query
    accounting.  Never call it from attack code directly.  The inputs
    are borrowed for the duration of the call (see {!of_fn}). *)

val scores_batch :
  t ->
  ?cache:Score_cache.t ->
  keys:Score_cache.key option array ->
  inputs:(unit -> Tensor.t) array ->
  consume:(int -> Tensor.t -> bool) ->
  unit ->
  int
(** One speculative chunk of queries with sequential accounting.

    First every slot's score vector is resolved without touching the
    query counter: slots whose [key] is resident in [cache] leave the
    batch (a counted hit), the rest are evaluated in one {!eval_batch}
    call and stored under their keys ([None] keys bypass the cache).
    Then slots are walked strictly in submission order: each is charged
    one query — raising {!Budget_exhausted} at exactly the query index
    the sequential path would — and handed to [consume], which returns
    [false] to stop (e.g. on attack success).  Returns the number of
    slots consumed; results past the stopping slot are discarded, so
    only [stop + 1] queries are ever charged. *)

val queries : t -> int
(** Queries posed since creation or the last {!reset}. *)

val reset : t -> unit

val budget : t -> int option
val set_budget : t -> int option -> unit

val remaining : t -> int option
(** [None] when unlimited. *)

val exhausted : t -> bool

val set_cache : t -> Score_cache.t option -> unit
(** Attach (or detach, with [None]) a per-image score cache.  The cache
    must belong to the one base image this handle is about to attack —
    attaching it is how per-image cache slots are threaded through code
    whose signatures only carry an oracle (e.g.
    {!Evalharness.Attackers.t}). *)

val cache : t -> Score_cache.t option
(** The attached cache, if any.  {!Oppsla.Sketch.attack} and the
    baselines consult this when no explicit cache is passed. *)

val clone : t -> t
(** A fresh metered handle onto the same scoring function: same name,
    classes and budget, but an independent query counter starting at 0
    and {b no attached cache}.  This is the sanctioned way to fan an
    oracle out across domains — the counter is plain mutable state, so
    domains must never share one handle, and a {!Score_cache.t} is plain
    mutable state too, so a clone deliberately {e drops} it rather than
    aliasing one unsynchronized table across workers (a pooled
    {!Oppsla.Score.evaluate} hands each image's clone that image's own
    slot explicitly).  Clones meter their budgets independently; pooled
    evaluation of budgeted oracles is therefore per-clone, not global
    (see {!Oppsla.Score.evaluate}).

    The clone contract for the query {!mode} is the opposite of the
    cache's: the mode is {b preserved}.  A cache is per-image mutable
    working state (dropped); the mode is the threat-model identity of
    the oracle (kept), so a worker clone observes exactly what its
    parent would.  The copy is independent — {!set_mode} on the clone
    never touches the parent. *)

val num_classes : t -> int
val name : t -> string

val backend_name : t -> string
(** The scoring engine behind this oracle — ["boxed"] / ["f32"] for
    network oracles, ["fn"] for closures — as recorded in journal
    provenance and the [oracle.queries.by{backend=...,mode=...}]
    dimensional series.  Metering is backend-independent; this is
    observability only. *)

val unmetered_classify : t -> Tensor.t -> int
(** Classification that does NOT count as a query.  Reserved for
    experiment bookkeeping (e.g. filtering misclassified test images, as
    the paper does before attacking); never use it inside an attack. *)

val unmetered_scores : t -> Tensor.t -> Tensor.t
(** Unmetered score vector.  Same restrictions as {!unmetered_classify},
    plus one sanctioned use: the sketch reads the clean scores [N(x)] this
    way, because the attacker learned them when it established that the
    image is correctly classified. *)
