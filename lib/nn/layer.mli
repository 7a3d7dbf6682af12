(** Neural-network layers with explicit forward and backward passes.

    Each layer is a mutable value: [forward] caches whatever the matching
    [backward] call needs (inputs, pooling switches), and [backward]
    both returns the gradient with respect to the layer input and
    accumulates parameter gradients into the layer's {!Param.t}
    records.

    The composite layers ({!residual}, {!inception}) embed sub-layer
    stacks, which is how the ResNet-, GoogLeNet- and DenseNet-style
    architectures in {!Zoo} are expressed.

    Note on normalization: the paper's classifiers use batch normalization.
    Training here is per-sample (no batch dimension), so {!channel_norm}
    normalizes each channel over its spatial extent with learnable scale
    and shift — the per-sample analogue of batch norm with identical
    train/inference behaviour.  DESIGN.md records this substitution. *)

type t

(** {1 Constructors} *)

val conv2d :
  Prng.t -> ?stride:int -> ?pad:int -> in_c:int -> out_c:int -> k:int -> unit -> t
(** He-initialized 2-D convolution over CHW tensors. *)

val dense : Prng.t -> in_dim:int -> out_dim:int -> unit -> t
(** He-initialized fully connected layer over rank-1 tensors. *)

val relu : unit -> t
val max_pool : ?stride:int -> size:int -> unit -> t
val flatten : unit -> t

val channel_norm : channels:int -> t
(** Per-channel spatial normalization with learnable gamma/beta (see the
    module comment). *)

val residual : ?projection:t -> t list -> t
(** [residual body] computes [x + body x].  When the body changes the
    shape, supply [?projection] (typically a 1x1 convolution) to map the
    skip connection onto the body's output shape. *)

val inception : t list list -> t
(** [inception branches] runs each branch (a layer stack) on the input and
    concatenates the branch outputs along the channel axis. *)

val sequential : t list -> t
(** A layer stack usable anywhere a single layer is (used to build
    residual bodies and dense blocks). *)

val dense_block : Prng.t -> in_c:int -> growth:int -> layers:int -> unit -> t
(** DenseNet-style block: each step runs conv3x3 (producing [growth]
    channels) on the concatenation of all previous feature maps and
    appends its output. *)

(** {1 Execution} *)

val forward : ?train:bool -> t -> Tensor.t -> Tensor.t
(** [forward ~train layer x].  With [~train:true] (default [false]) the
    layer caches what [backward] needs; with [~train:false] the caches
    are neither read nor written.  Conv, dense, channel norm and concat
    run the float64 batch kernels of {!Tensor} (the ones the boxed plan
    of {!Backend} runs) on a one-image view, so a single-image forward
    and a boxed-plan row are the same arithmetic. *)

val clear_caches : t -> unit
(** Drop all cached forward-pass intermediates (recursively).  Training
    retains the last forward's inputs per layer; call this when switching
    a trained network to inference so attack workloads don't carry that
    dead weight. *)

val norm_eps : float
(** The variance floor used by {!channel_norm} (1e-5).  Exposed so plan
    compilers ({!Backend}) normalize with the identical constant. *)

(** One-level structural view of a layer: its kind plus the current
    parameter tensors, without training caches.  Composite layers expose
    their sub-layers as [t]s so consumers recurse via {!view}.  This is
    what plan compilers ({!Backend.Make}) translate into backend
    kernels. *)
type view =
  | V_conv of { stride : int; pad : int; weight : Tensor.t; bias : Tensor.t }
  | V_dense of { weight : Tensor.t; bias : Tensor.t }
  | V_relu
  | V_max_pool of { size : int; stride : int }
  | V_flatten
  | V_norm of { gamma : Tensor.t; beta : Tensor.t }
  | V_residual of { body : t; projection : t option }
  | V_inception of t list  (** branch stacks *)
  | V_seq of t list
  | V_dense_block of t list  (** the per-step conv stacks *)

val view : t -> view
(** Parameter tensors in the view are the layer's live [Param.t] values
    (not copies): compile plans after training, or recompile when the
    parameters change. *)

val backward : t -> Tensor.t -> Tensor.t
(** [backward layer dout] must follow a [forward ~train:true] on the same
    layer.  Returns [dx] and accumulates parameter gradients. *)

val params : t -> Param.t list
(** All trainable parameters, in a deterministic order. *)

val describe : t -> string
(** One-line structural summary, e.g. ["conv2d(3->8,k3,s1,p1)"]. *)

val output_shape : t -> int array -> int array
(** [output_shape layer input_shape] computes the shape produced by
    [forward] on an input of [input_shape] without running any floats
    through the layer.  Raises [Invalid_argument] on incompatible
    shapes. *)
