type mode = Score | Decision

type t = {
  fn : Tensor.t -> Tensor.t;
  (* The batcher's forward pass of one candidate: [fn], or a one-input
     call of [of_fn]'s [batch_fn]. *)
  forward_fn : Tensor.t -> Tensor.t;
  oracle_name : string;
  classes : int;
  backend_kind : string;  (* "boxed" / "f32" / "fn" — journal provenance *)
  mutable count : int;
  mutable memo : Score_cache.t option;
  mutable qmode : mode;
  (* Entry [c]: the one-hot vector of class [c], what [observe] answers
     in [Decision] mode.  Built on the first switch to [Decision] and
     shared, read-only, by the handle and its clones. *)
  mutable one_hots : Tensor.t array;
  (* Cached handle on the dimensional series
     [oracle.queries.by{backend=...,mode=...}]: re-resolved on
     [set_mode] so the hot metering path stays one atomic incr. *)
  mutable m_by : Telemetry.Counter.t;
}

(* Process-wide query metering: the total plus a per-key-kind split
   (clean/corner/custom, from the key every query is charged under).
   The split does not change accounting — it is a registry mirror of
   the same counter increments. *)
let m_q_total = Telemetry.Metrics.counter "oracle.queries.total"
let m_q_clean = Telemetry.Metrics.counter "oracle.queries.clean"
let m_q_corner = Telemetry.Metrics.counter "oracle.queries.corner"
let m_q_custom = Telemetry.Metrics.counter "oracle.queries.custom"

let kind_counter : Score_cache.key -> _ = function
  | Clean -> m_q_clean
  | Corner _ -> m_q_corner
  | Custom _ -> m_q_custom

let mode_label = function Score -> "score" | Decision -> "decision"

let by_counter ~backend qmode =
  Telemetry.Metrics.counter
    ~labels:[ ("backend", backend); ("mode", mode_label qmode) ]
    "oracle.queries.by"

(* [batch_fn] is only ever given one input, so it must answer one
   vector. *)
let one_of_batch batch_fn x =
  match batch_fn [| x |] with
  | [| s |] -> s
  | r ->
      invalid_arg
        (Printf.sprintf
           "Oracle.of_fn: batch_fn answered %d vectors for one input"
           (Array.length r))

let of_fn ?batch_fn ?(name = "fn") ~num_classes fn =
  if num_classes <= 0 then invalid_arg "Oracle.of_fn: num_classes <= 0";
  {
    fn;
    forward_fn = Option.fold ~none:fn ~some:one_of_batch batch_fn;
    oracle_name = name;
    classes = num_classes;
    backend_kind = "fn";
    count = 0;
    memo = None;
    qmode = Score;
    one_hots = [||];
    m_by = by_counter ~backend:"fn" Score;
  }

let of_network ?(backend = Nn.Backend.Boxed) net =
  (* Every forward pass runs a plan compiled once here: [Boxed] over the
     float64 kernels (bit-identical to [Nn.Network.scores]), [F32] over
     float32 Bigarrays.  Query accounting is backend-independent by
     construction — the meter sits above this function. *)
  let scores_nchw =
    match backend with
    | Nn.Backend.Boxed ->
        let plan = Nn.Backend.Boxed_engine.compile net in
        fun batch -> Nn.Backend.Boxed_engine.scores_batch plan batch
    | Nn.Backend.F32 ->
        let plan = Nn.Backend.F32_engine.compile net in
        fun batch -> Nn.Backend.F32_engine.scores_batch plan batch
  in
  (* An image runs as a one-image view of itself and its score row comes
     back as a view of the output ([Tensor.reshape] shares the data), so
     a query copies no image. *)
  let fn x =
    let s = Tensor.shape x in
    if Array.length s <> 3 then
      invalid_arg "Oracle.of_network: inputs must be CHW images";
    let out = scores_nchw (Tensor.reshape x [| 1; s.(0); s.(1); s.(2) |]) in
    Tensor.reshape out [| Tensor.dim out 1 |]
  in
  {
    fn;
    forward_fn = fn;
    oracle_name = net.Nn.Network.name;
    classes = net.Nn.Network.num_classes;
    backend_kind = Nn.Backend.kind_name backend;
    count = 0;
    memo = None;
    qmode = Score;
    one_hots = [||];
    m_by = by_counter ~backend:(Nn.Backend.kind_name backend) Score;
  }

(* The single funnel every charged query passes through: the counters,
   then the journal record (consulted only when the journal sink is
   open, so the disabled path costs one atomic load).  [key]'s kind
   picks the per-kind counter; with [hit] it is journal provenance (the
   cache key, and whether the score came from the cache). *)
let charge t key ~hit =
  t.count <- t.count + 1;
  Telemetry.Counter.incr m_q_total;
  Telemetry.Counter.incr (kind_counter key);
  Telemetry.Counter.incr t.m_by;
  if Telemetry.Journal.enabled () then
    Telemetry.Journal.record ~key:(Score_cache.key_to_string key)
      ~kind:(Score_cache.key_kind key) ~mode:(mode_label t.qmode) ~hit
      ~backend:t.backend_kind

let validated t s =
  if Tensor.numel s <> t.classes then
    invalid_arg
      (Printf.sprintf "Oracle(%s): scoring function returned %d scores, expected %d"
         t.oracle_name (Tensor.numel s) t.classes);
  s

(* Unmetered forward pass of one candidate: the batcher's miss path. *)
let forward t x = validated t (t.forward_fn x)

let mode t = t.qmode

let set_mode t m =
  t.qmode <- m;
  t.m_by <- by_counter ~backend:t.backend_kind m;
  if m = Decision && Array.length t.one_hots = 0 then
    t.one_hots <-
      Array.init t.classes (fun label ->
          Tensor.init [| t.classes |] (fun j -> if j = label then 1.0 else 0.0))

(* The observation point of the threat model.  Caches, the batcher and
   the metering layer all carry full score tensors internally — that
   keeps accounting and cache keys bit-identical across modes — and
   attacks pass every resolved score vector through [observe] before
   acting on it.  In [Score] mode this is the identity; in [Decision]
   mode the vector collapses to the one-hot of its argmax, so the only
   information that survives is the predicted label.  The one-hot is
   one of the oracle's shared vectors, so neither mode allocates.
   Downstream,
   score-based conditions degrade gracefully: on one-hot vectors
   [Score_diff] evaluates to exactly the label-flip indicator (1.0 when
   the prediction moved off the clean argmax, 0.0 otherwise). *)
let observe t s =
  match t.qmode with
  | Score -> s
  | Decision -> t.one_hots.(Tensor.argmax s)

let queries t = t.count

let set_cache t c = t.memo <- c
let cache t = t.memo

(* Clones DROP the attached cache (as well as the count): a cache is
   per-image, per-owner mutable state, and the whole point of cloning is
   to fan the oracle out across domains — sharing the table would alias
   one unsynchronized Hashtbl across workers.  The query mode is
   PRESERVED (the [with] copy snapshots it): the mode is part of the
   threat-model identity of the oracle, not per-image state, and a
   worker clone answering score vectors while its parent is label-only
   would silently break the differential guarantees.  The copy is still
   independent — flipping the clone's mode later never touches the
   parent.  The one-hot vectors are shared: they are never written
   after they are built. *)
let clone t = { t with count = 0; memo = None }

let num_classes t = t.classes
let name t = t.oracle_name
let unmetered_classify t x = Tensor.argmax (t.fn x)
let unmetered_scores t x = t.fn x
