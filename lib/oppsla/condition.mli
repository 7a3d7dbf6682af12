(** The condition language of Figure 1 and its evaluation.

    A program instantiates the sketch's four holes [B1..B4] with
    conditions.  A condition compares a function [F] against a constant:
    [F] is [max]/[min]/[avg] of a pixel (either the image's original pixel
    at the failed pair's location, or the pair's perturbation),
    [score_diff] (the drop in the true class's score caused by the
    perturbation), or [center] (the location's distance to the image
    center).

    [Const] conditions are outside the synthesizable grammar; they exist
    for the paper's Sketch+False ablation baseline (Appendix C). *)

type pixel_expr =
  | Orig  (** the original image pixel [x_l] at the pair's location *)
  | Pert  (** the pair's perturbation [p] *)

type func =
  | Max of pixel_expr
  | Min of pixel_expr
  | Avg of pixel_expr
  | Score_diff
      (** [score_diff (N x) (N x[l<-p]) c_x]: clean true-class score minus
          perturbed true-class score. *)
  | Center  (** [center l]: L-infinity distance to the image center *)

type cmp = Lt | Gt

type t =
  | Const of bool
  | Cmp of { func : func; cmp : cmp; threshold : float }

type program = { b1 : t; b2 : t; b3 : t; b4 : t }

val const_false_program : program
(** The Sketch+False baseline: a fixed prioritization, no reordering. *)

(** Everything a condition may observe about a failed pair, per the
    black-box setting: the image, its true class, the clean score vector,
    the pair, and the score vector of the (already queried) perturbed
    image.  [d1]/[d2] are the image dimensions (for [center]). *)
type ctx = {
  d1 : int;
  d2 : int;
  image : Tensor.t;
  true_class : int;
  clean_scores : Tensor.t;
  pair : Pair.t;
  perturbed_scores : Tensor.t;
}

val eval_func : func -> ctx -> float
val eval : t -> ctx -> bool

(** {1 Compiled holes}

    The sketch evaluates every hole on every queried pair, so it
    compiles each hole once per attack into a per-pair predicate.  A
    pixel function of [orig] becomes a [d1 * d2]-entry table indexed by
    location, one of [pert] an 8-entry table indexed by corner, [center]
    a [d1 * d2]-entry table; [score_diff] keeps the clean true-class
    score and reads one float of the queried vector.  {!eval} stays the
    specification: [holds (compile c ...) ~id ~scores] equals
    [eval c ctx] for the context of pair [Pair.of_id ~d2 id] with
    [perturbed_scores = scores] (a property test holds them equal). *)

type compiled

val compile :
  t -> image:Tensor.t -> true_class:int -> clean_scores:Tensor.t -> compiled
(** Compile one hole for attacking [image] (shape [[|3; d1; d2|]]) of
    class [true_class] whose clean score vector is [clean_scores]. *)

val holds : compiled -> id:int -> scores:Tensor.t -> bool
(** [holds c ~id ~scores]: the hole's value on pair id [id] (see
    {!Pair.id}) whose queried score vector is [scores].  No
    allocation. *)

val conditions : program -> t * t * t * t
(** [(b1, b2, b3, b4)]. *)

val program_of_array : t array -> program
(** Raises [Invalid_argument] unless the array has exactly 4 elements. *)

val program_to_array : program -> t array

val equal : t -> t -> bool
val equal_program : program -> program -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val program_to_string : program -> string
(** Renders in the concrete syntax parsed by {!Dsl.parse_program}. *)
