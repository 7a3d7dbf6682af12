(** The reference tensor backend: float64 [Tensor.t] activations over
    the [Tensor] batch kernels that [Layer.forward] runs on one image, so
    compiled plans are bit-identical to the single-image
    [Nn.Network.scores].  [fuse] is off — every step runs the same
    kernel sequence as [Layer.forward]. *)

include Tensor_sig.S with type t = Tensor.t and type conv_memo = unit
