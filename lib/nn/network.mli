(** Image classifiers: a named stack of layers mapping a CHW image to a
    class-score vector.

    This is the concrete implementation of the paper's classifier
    [N : [0,1]^(d1 x d2 x 3) -> R^c].  Attack code never touches this module
    directly; it goes through {!Oracle} (black-box access with query
    accounting). *)

type t = {
  name : string;
  input_shape : int array; (* [| 3; h; w |] *)
  num_classes : int;
  stack : Layer.t;
}

val create :
  name:string -> input_shape:int array -> num_classes:int -> Layer.t list -> t
(** Validates at construction time (via {!Layer.output_shape}) that the
    stack maps [input_shape] to [[| num_classes |]]; raises
    [Invalid_argument] otherwise, naming the offending layer. *)

val logits : t -> Tensor.t -> Tensor.t
(** Inference-mode forward pass of one CHW image ([Layer.forward
    ~train:false], no caches retained).  Oracles score through the
    compiled plans of {!Backend} instead.  This path runs the boxed
    plan's float64 kernels on one image, so checking a boxed plan against
    it checks the plan compiler: layer walk, fusion and batching. *)

val scores : t -> Tensor.t -> Tensor.t
(** [Tensor.softmax (logits t x)] (the plans' {!Tensor.softmax_rows} on
    one row): the paper's score vector [N(x)]. *)

val classify : t -> Tensor.t -> int
(** [argmax (logits t x)]. *)

val clear_caches : t -> unit
(** Drop every layer's cached training intermediates (see
    {!Layer.clear_caches}); called by {!Train.fit} before handing a
    trained network to inference-only workloads. *)

val forward_train : t -> Tensor.t -> Tensor.t
(** Caching forward pass for training. *)

val backward : t -> Tensor.t -> Tensor.t
(** Backpropagate a logits-gradient; accumulates parameter gradients. *)

val params : t -> Param.t list
val param_count : t -> int

val accuracy : t -> (Tensor.t * int) array -> float
(** Fraction of (image, label) pairs classified correctly. *)

val describe : t -> string
(** Multi-line architecture summary. *)
