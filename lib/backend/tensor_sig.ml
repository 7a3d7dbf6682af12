(* The TENSOR signature the nn plan compiler is functorized over.

   A backend supplies batched (NCHW) inference kernels over an abstract
   activation type, one per layer kind the zoo nets build.  Two
   implementations exist: [Tensor_boxed] (the reference — delegates to
   the float64 [Tensor] batch kernels, the same ones [Layer.forward] runs
   on one image, so a compiled boxed plan is bit-identical to
   [Network.scores]) and [Tensor_f32] (flat [Bigarray] float32
   storage with an explicit shape descriptor — the Manticore
   flat-data-plus-shape idiom — the boxed backend's C GEMM kernel on
   float32 weights, and fused conv→norm→relu→max-pool).

   Weights enter a plan as ordinary float64 [Tensor.t]s and are
   converted once at compile time via [of_tensor]; activations cross the
   boundary the same way, so callers above the plan never see backend
   storage. *)

module type S = sig
  type t
  (** A batched activation (or converted weight): flat backend storage
      plus a shape descriptor.  Never nested. *)

  val name : string
  (** Short backend id, also the metric-name segment ("boxed", "f32"). *)

  val fuse : bool
  (** True when the plan compiler may fuse conv→norm→relu→max-pool into
      the [conv2d_batch] call.  Backends where fusion is off still
      accept the [?norm]/[?relu]/[?max_pool] arguments (they compose the
      unfused kernels), so the signature stays total. *)

  val of_tensor : Tensor.t -> t
  val to_tensor : t -> Tensor.t
  val shape : t -> int array
  val reshape : t -> int array -> t

  val relu : t -> t
  val add : t -> t -> t

  type conv_memo
  (** A token that turns on a backend's incremental convolution: the
      plan compiler makes one for its input conv and passes it on every
      run.  The backend keeps one reference image per domain, keyed on
      the conv's operands, so a plan shared across domains stays
      correct. *)

  val conv_memo : unit -> conv_memo

  val recomputed_cols : conv_memo -> int
  (** Output columns the last {!conv2d_batch} call with a memo on the
      calling domain computed incrementally, summed over its batch (0
      when every image ran the full conv, always 0 on backends without
      an incremental path).  For trace span args. *)

  val conv2d_batch :
    ?memo:conv_memo ->
    stride:int ->
    pad:int ->
    weight:t ->
    bias:t ->
    ?norm:t * t * float ->
    ?relu:bool ->
    ?max_pool:int * int ->
    t ->
    t
  (** Batched convolution over NCHW input; [weight] is
      [|out_c; in_c; kh; kw|], [bias] is [|out_c|].  [?norm:(gamma,
      beta, eps)] and [?relu:true] request the fused
      conv→channel-norm→relu epilogue; the result must equal the unfused
      composition [relu (channel_norm_batch (conv ...))] exactly (the
      fusion saves passes and intermediates, never changes rounding).
      [?memo] lets the backend reuse the previous image's output where
      the input is unchanged; the result must be bit-identical to the
      call without it.  [?max_pool:(size, stride)]
      appends a max-pool to the epilogue; the result must equal
      [max_pool2d_batch ~stride ~size] of the unpooled result exactly.
      The plan compiler asks for it only after a fused relu (DESIGN.md
      section 5 has why rounding then commutes with the window max). *)

  val dense_batch : weight:t -> bias:t -> t -> t
  val max_pool2d_batch : stride:int -> size:int -> t -> t
  val channel_norm_batch : gamma:t -> beta:t -> eps:float -> t -> t
  val concat_channels_batch : t list -> t
  val softmax_rows : t -> t
end

(* Per-backend GEMM instrumentation, shared by every implementation:
   the Report "backend" section renders one row per backend that ran.
   MFLOP/s = gemm_flops / gemm_seconds.sum. *)
module Stats = struct
  type t = {
    flops : Telemetry.Counter.t;
        (* 2 flops per multiply-add actually executed: 2*m*k*n per GEMM,
           2*out_c*k per column an incremental conv recomputes *)
    panels : Telemetry.Counter.t;
        (* GEMM B-panel fills (one per full conv; f32 gathers its input
           straight into a float64 panel, boxed runs im2col) *)
    fusion_hits : Telemetry.Counter.t;  (* fused conv epilogues executed *)
    seconds : Telemetry.Histogram.t;  (* wall seconds per conv/dense call *)
  }

  let make backend =
    {
      flops = Telemetry.Metrics.counter ("backend." ^ backend ^ ".gemm_flops");
      panels = Telemetry.Metrics.counter ("backend." ^ backend ^ ".panels");
      fusion_hits =
        Telemetry.Metrics.counter ("backend." ^ backend ^ ".fusion_hits");
      seconds =
        Telemetry.Metrics.histogram ~buckets:Telemetry.Metrics.time_buckets
          ("backend." ^ backend ^ ".gemm_seconds");
    }
end
