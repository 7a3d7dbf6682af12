(** Float32 [Bigarray] backend: flat unboxed storage + shape descriptor,
    the boxed backend's C GEMM kernel on float32 weights (read directly,
    float64 accumulation, float32 rounding only at the store), each
    conv's input gathered straight into a reused per-domain float64
    GEMM panel through a per-geometry index table, fused
    conv→norm→relu→max-pool epilogues that read per-domain float64
    copies of each plane, a dense layer over a per-domain float64 copy
    of its weights, an incremental conv under a
    {!conv_memo} (an image that differs from its domain's reference in a
    few pixels recomputes only the output columns they reach,
    bit-identical to the full conv).  Not bit-identical to the boxed
    reference; differentials use the tolerance policy
    ([Nn.Backend.score_tol]) instead. *)

include Tensor_sig.S

val matmul : t -> t -> t
(** [matmul a b] with [a : (m, k)] and [b : (k, n)] runs the blocked
    GEMM kernel on fresh operands — the property-test surface for
    comparing against a naive float64 reference. *)

val im2col :
  stride:int -> pad:int -> kh:int -> kw:int -> t -> t
(** Single-image im2col of a CHW tensor to a fresh
    [(in_c*kh*kw, oh*ow)] panel, through the same gather a full conv
    uses for its GEMM operand — the property-test surface for the block
    layout (padding positions must read back as explicit 0s). *)

val get_flat : t -> int -> float
(** Row-major flat read, for tests. *)
