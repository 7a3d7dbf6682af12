(** RGB pixel values and the corner perturbation space.

    Following Sparse-RS (Croce et al. 2022), the paper restricts
    perturbations to the eight corners of the RGB color cube: every
    channel is 0 or 1.  Pixel distance is the L1 metric of Section 3.1. *)

type t = { r : float; g : float; b : float }

val corners : t array
(** The eight cube corners.  Index [k] has bit 2 = red, bit 1 = green,
    bit 0 = blue (so corner 0 is black, corner 7 is white).  The array is
    the canonical corner numbering used by pair ids everywhere. *)

val corner : int -> t
(** [corner k] for [k] in [0, 8).  Raises [Invalid_argument] otherwise. *)

val corner_index : t -> int option
(** Inverse of {!corner} for exact corner values. *)

val l1_distance : t -> t -> float
(** [|r1-r2| + |g1-g2| + |b1-b2|] — the paper's pixel distance. *)

val of_image : Tensor.t -> row:int -> col:int -> t
(** Read the pixel at (row, col) of a CHW image.  Raises
    [Invalid_argument] unless the image has rank 3, at least 3 channels
    and (row, col) inside its plane. *)

val write_to_image : Tensor.t -> row:int -> col:int -> t -> unit
(** Overwrite the pixel at (row, col) of a CHW image in place; no
    allocation.  Raises [Invalid_argument] like {!of_image}. *)

val rank_corners : Tensor.t -> row:int -> col:int -> int array -> unit
(** [rank_corners img ~row ~col dst] writes {!corners_by_distance} of
    the pixel at (row, col) into [dst.(0) .. dst.(7)] without
    allocating.  Raises [Invalid_argument] like {!of_image}, or when
    [dst] is shorter than 8. *)

val corners_by_distance : t -> int array
(** Corner indices sorted by L1 distance from the given pixel, farthest
    first; ties broken by corner index so the order is deterministic.
    [corners_by_distance p].(0) is the paper's "farthest pixel",
    [.(1)] the "second farthest", and so on. *)

val max_val : t -> float
val min_val : t -> float
val avg_val : t -> float
(** Channel max / min / mean — the DSL's [max(p)], [min(p)], [avg(p)]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool
