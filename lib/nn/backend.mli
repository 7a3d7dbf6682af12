(** Plan compiler over pluggable tensor backends.

    [Make (B)] translates a {!Network.t} once into a list of [B] kernel
    steps (weights converted to backend storage at compile time,
    conv→norm→relu→max-pool fused into the conv epilogue when [B.fuse],
    the max-pool only after a relu) and runs
    whole batches through it.  This is the one batched inference engine:
    [Oracle.of_network] scores every query through a plan, whichever
    backend kind it is given.  The boxed instance runs the float64
    {!Tensor} kernels [Layer.forward] runs on one image, so it is
    bit-identical to {!Network.scores} and a differential between the
    two checks the compiler (layer walk, fusion, batching); the f32
    instance matches under the tolerance policy: identical argmax,
    success and query counts, and per-logit deviation at most
    {!score_tol}.

    The plan's input conv (its first step, when that is a conv) carries
    an incremental-conv memo ({!Tensor_sig.S.conv_memo}): on the f32
    backend an image that differs from the domain's last fully computed
    image in a few pixels recomputes only the output columns those
    pixels reach, bit-identical to the full conv.

    Each conv, dense, norm and pool step runs under a [backend.conv] /
    [backend.dense] / [backend.norm] / [backend.pool] trace span (the
    input conv's span carries a [recomputed_cols] arg, and a conv with a
    fused max-pool a [max_pool] arg such as ["2x2/2"]), nested in one
    [backend.forward_batch] span per batch; {!Make.scores_batch}'s
    softmax follows under a [backend.softmax] span. *)

val score_tol : float
(** Per-score absolute tolerance (1e-4) for cross-backend differentials
    between the f32 engine and the boxed reference. *)

(** Backend selection token, threaded from the CLI ([--backend
    boxed|f32]) through Workbench and Oracle. *)
type kind = Boxed | F32

val kind_name : kind -> string
val kind_of_string : string -> kind option
val all_kinds : kind list

module Make (B : Tensor_sig.S) : sig
  type plan

  val compile : Network.t -> plan
  (** Translate the network's current parameters into backend storage.
      The plan snapshots weights: recompile after any parameter
      update. *)

  val scores_batch : plan -> Tensor.t -> Tensor.t
  (** NCHW batch in, [[|n; classes|]] softmax scores out: one forward
      over the whole batch on the calling domain, then a softmax per
      row. *)
end

module Boxed_engine : module type of Make (Tensor_boxed)
module F32_engine : module type of Make (Tensor_f32)
