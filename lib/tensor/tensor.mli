(** Dense float tensors.

    A small, dependency-free tensor library holding what training and
    scoring the zoo networks use: one float64 kernel per forward op,
    shared by [Layer.forward] (on a batch of one) and the boxed plan,
    plus the backward passes.  Tensors are immutable in shape but carry
    a mutable flat [float array] payload (OCaml unboxes float arrays).
    Everything is OCaml except the GEMM kernel under {!matmul} and
    {!conv2d_gemm_batch}: one C stub, vectorised across output columns,
    that the f32 backend shares.  Layout is row-major; images are stored
    CHW. *)

type t = private { shape : int array; data : float array }
(** [shape] is the dimension list; [data] has [numel] elements laid out
    row-major.  The record is [private]: use the constructors below so the
    shape/data invariant ([Array.length data = product shape]) always
    holds.  [data] may be mutated in place by the [*_inplace] operations. *)

exception Shape_mismatch of string
(** Raised when operand shapes are incompatible.  The payload describes the
    operation and both shapes. *)

(** {1 Construction} *)

val create : int array -> float -> t
(** [create shape v] is a tensor filled with [v]. *)

val zeros : int array -> t
val ones : int array -> t

val init : int array -> (int -> float) -> t
(** [init shape f] fills position [i] (flat index) with [f i]. *)

val of_array : int array -> float array -> t
(** [of_array shape data] wraps [data] (no copy).  Raises
    {!Shape_mismatch} if sizes disagree. *)

val copy : t -> t

val randn : Prng.t -> ?mu:float -> ?sigma:float -> int array -> t
(** Gaussian-filled tensor. *)

val rand_uniform : Prng.t -> ?lo:float -> ?hi:float -> int array -> t

(** {1 Shape accessors} *)

val shape : t -> int array
val ndim : t -> int
val numel : t -> int

val dim : t -> int -> int
(** [dim t i] is the size of axis [i].  Raises [Invalid_argument] if out of
    range. *)

val reshape : t -> int array -> t
(** [reshape t shape] shares [t]'s data under a new shape.  Raises
    {!Shape_mismatch} if element counts differ. *)

val flatten : t -> t
(** Rank-1 view sharing the same data. *)

(** {1 Element access} *)

val get : t -> int array -> float
val set : t -> int array -> float -> unit
val get_flat : t -> int -> float
val set_flat : t -> int -> float -> unit

(** {1 Elementwise operations}

    Binary operations raise {!Shape_mismatch} unless shapes are equal. *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
val add : t -> t -> t
val scale : float -> t -> t
val add_scalar : float -> t -> t
val relu : t -> t

val add_inplace : t -> t -> unit
(** [add_inplace dst src] accumulates [src] into [dst]. *)

val axpy : alpha:float -> t -> t -> unit
(** [axpy ~alpha x y] sets [y <- alpha * x + y]. *)

val scale_inplace : float -> t -> unit
val fill : t -> float -> unit

(** {1 Reductions} *)

val sum : t -> float
val mean : t -> float
val max_val : t -> float
val min_val : t -> float

val argmax : t -> int
(** Flat index of the maximum (first occurrence). *)

val dot : t -> t -> float
(** Inner product of equal-shaped tensors. *)

val sq_norm : t -> float
(** Sum of squares. *)

(** {1 Linear algebra} *)

val matmul : t -> t -> t
(** [matmul a b] for [a : (m, k)] and [b : (k, n)] is [(m, n)], on the
    GEMM kernel {!conv2d_gemm_batch} runs: C, register-tiled over 4 rows
    by 8 columns with two-lane float64 vectors across the columns,
    built without floating-point contraction.  Every output element is
    accumulated in ascending-[k] order, each multiply and add rounded as
    OCaml's [*.] and [+.] round them, independent of the operand
    widths, so results equal a plain loop's bit for bit and do not
    depend on how callers batch their columns. *)

val matmul_nt : t -> t -> t
(** [matmul_nt a b] for [a : (m, k)] and [b : (n, k)] is [a bᵀ : (m, n)],
    each element a dot product reduced in ascending-[k] order — the
    dense layer's kernel, so batching cannot perturb single-image
    scores. *)

val dense_batch : t -> weight:t -> bias:t -> t
(** [dense_batch x ~weight ~bias] for [x : (n, in_dim)],
    [weight : (out_dim, in_dim)] and [bias : (out_dim)] is the batched
    dense layer [x weightᵀ + bias : (n, out_dim)], the bias added after
    the {!matmul_nt} reduction.  [Layer.forward] runs it on a batch of
    one and the boxed plan on whole batches. *)

val matvec_t : t -> t -> t
(** [matvec_t a y] for [a : (m, k)] and [y : (m)] is [aᵀ y : (k)]. *)

val outer : t -> t -> t
(** [outer y x] for [y : (m)] and [x : (k)] is [(m, k)]. *)

val transpose : t -> t
(** 2-D transpose. *)

(** {1 Convolution and pooling}

    Images and feature maps are CHW ([|channels; height; width|]).
    Convolution weights are [|out_c; in_c; kh; kw|]. *)

val im2col : ?stride:int -> ?pad:int -> kh:int -> kw:int -> t -> t
(** Patch-matrix expansion of a CHW tensor:
    [(in_c * kh * kw, oh * ow)], column [o] holding the receptive field
    of output position [o] (zero-padded outside the image): the panel
    {!conv2d_gemm_batch} fills per image.  Valid output ranges are
    precomputed per kernel tap, so the copy loops carry no per-element
    bounds branches. *)

val conv2d_gemm_batch :
  ?stride:int -> ?pad:int -> t -> weight:t -> bias:t option -> t
(** Convolution over an NCHW batch via im2col + GEMM: per-image GEMMs
    over a per-domain reusable patch panel, each accumulating straight
    into the image's contiguous output block (small working set, no
    per-call patch-matrix allocation).  Each output is seeded with the
    bias before the GEMM accumulates taps in ascending ic/ky/kx order (a
    padding tap adds [w *. 0.]), so image [i] of the result does not
    depend on the rest of the batch.  The one float64 convolution:
    [Layer.forward] runs it on a batch of one, the boxed plan on whole
    batches. *)

val conv2d_backward :
  ?stride:int ->
  ?pad:int ->
  x:t ->
  weight:t ->
  t ->
  t * t * t
(** [conv2d_backward ~x ~weight dout] returns [(dx, dweight, dbias)]. *)

val max_pool2d : ?stride:int -> size:int -> t -> t * int array
(** Returns the pooled map and the flat argmax indices (one per output
    element) needed by the backward pass. *)

val max_pool2d_backward : x_shape:int array -> switches:int array -> t -> t
(** [max_pool2d_backward ~x_shape ~switches dout] scatters [dout] back
    through the recorded switches. *)

val max_pool2d_batch : ?stride:int -> size:int -> t -> t
(** Batched (NCHW) {!max_pool2d} without switches: pooling acts per
    channel plane, so the batch folds to [(n*c); h; w], runs the
    single-image kernel and unfolds. *)

val channel_stats : eps:float -> t -> float array * float array
(** Per-plane mean and [1/sqrt(var + eps)] of an NCHW tensor, plane [p]
    being image [p / c]'s channel [p mod c].  Image [i]'s entries do not
    depend on the rest of the batch. *)

val channel_norm_batch : gamma:t -> beta:t -> eps:float -> t -> t
(** Per-plane standardization of an NCHW tensor: each (image, channel)
    plane is normalized by its {!channel_stats}, then scaled and shifted
    by the per-channel [gamma]/[beta]. *)

(** {1 Softmax and losses} *)

val softmax_rows : t -> t
(** Numerically stable softmax of each row of an [(n, classes)] matrix
    (max, exp-shift, sum, scale by 1/z); a row does not depend on the
    others. *)

val softmax : t -> t
(** {!softmax_rows} over a rank-1 tensor viewed as one row. *)

val cross_entropy_with_grad : t -> int -> float * t
(** [cross_entropy_with_grad logits label] is [(loss, grad)] from one
    softmax pass over a rank-1 [logits]: [loss] is the negative
    log-likelihood of [label] under [softmax logits], and [grad] its
    gradient with respect to the logits ([softmax logits - onehot
    label]).  Raises [Invalid_argument] if [label] is out of range. *)

(** {1 Misc} *)

val concat_channels_batch : t list -> t
(** NCHW tensors with equal N, H and W concatenated along the channel
    axis, image by image. *)

val split_channels : t -> int list -> t list
(** Split a CHW tensor along the channel axis into pieces of the given
    channel counts (the backward pass of a one-image concat). *)

val equal : ?eps:float -> t -> t -> bool
(** Shape equality plus elementwise comparison within [eps]
    (default [1e-9]). *)
