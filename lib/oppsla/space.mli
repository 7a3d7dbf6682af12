(** First-class perturbation spaces.

    The paper's attack space is the 8-corner one-pixel space ({!Pixel}:
    one location, one saturated RGB corner).  The harness additionally
    supports the natural sparse generalizations from the Sparse-RS
    literature: {!Kpixel} perturbs [k] distinct pixels (each with its
    own corner color) and {!Patch} fills an anchored [h x w] rectangle
    with one corner color.  A space only widens {e what} a candidate
    perturbation is — metering, caching and batching are space-blind, so
    query accounting stays bit-identical across domain widths, cache
    on/off and batch widths for every space.

    {b Cache-key discipline.}  Every space keys perturbations in a
    namespace that cannot collide with the others: singleton pixel sets
    share the sketch's [Corner] key space (cross-attacker hits on the
    same image), k-pixel sets use [Custom "pairs:<sorted ids>"] — a pure
    function of the set, insensitive to element order — and patches use
    [Custom "patch:<row>,<col>,<h>x<w>,<corner>"]. *)

type t =
  | Pixel  (** the paper's one-pixel, 8-corner space *)
  | Kpixel of int  (** [k] distinct pixels, each with a corner color *)
  | Patch of { h : int; w : int }
      (** an [h x w] rectangle, anchored top-left, filled with one
          corner color *)

val to_string : t -> string
(** ["pixel"], ["kpixel:<k>"], ["patch:<h>x<w>"]. *)

val of_string : string -> t option
(** Inverse of {!to_string}.  Bare ["kpixel"] defaults to [k = 2]; bare
    ["patch"] to [2x2]. *)

val pixels : t -> int
(** Number of pixels a candidate perturbs: [1], [k], or [h * w]. *)

val validate : d1:int -> d2:int -> t -> unit
(** Raises [Invalid_argument] when the space does not fit a [d1 x d2]
    image ([k] outside [[1, d1 * d2]], patch larger than the image). *)

val pair_key : Pair.t -> Score_cache.key
(** The sketch's corner key for a single pixel perturbation (same key as
    {!Sketch.cache_key}). *)

val set_key : d2:int -> Pair.t list -> Score_cache.key
(** Cache key for a pixel-set perturbation.  Singletons map to
    {!pair_key}; larger sets to [Custom "pairs:<ids>"] with the pair ids
    sorted ascending, so the key is order-insensitive. *)

val patch_key : anchor:Location.t -> h:int -> w:int -> corner:int -> Score_cache.key
(** [Custom "patch:<row>,<col>,<h>x<w>,<corner>"]. *)

val perturb_patch :
  Tensor.t -> anchor:Location.t -> h:int -> w:int -> corner:int -> Tensor.t
(** Copy of the image with the anchored rectangle filled with
    [Rgb.corner corner].  Raises [Invalid_argument] if the patch leaves
    the image. *)
