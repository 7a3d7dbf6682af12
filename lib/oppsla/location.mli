(** Pixel locations and the paper's location metric.

    Locations index a [d1 x d2] image grid ([row] in [0, d1), [col] in
    [0, d2)).  The distance between locations is the L-infinity metric
    (Section 3.1); [center_distance] is the DSL's [center(l)]. *)

type t = { row : int; col : int }

val make : row:int -> col:int -> t

val linf_distance : t -> t -> int
(** [max |r1 - r2| |c1 - c2|]. *)

val center_distance : d1:int -> d2:int -> t -> float
(** L-infinity distance to the continuous image center
    [((d1-1)/2, (d2-1)/2)]; half-integral for even dimensions. *)

val neighbors : d1:int -> d2:int -> t -> t list
(** The (up to 8) locations at L-infinity distance exactly 1, in row-major
    scan order — the location component of the paper's "closest pairs with
    respect to the location". *)

val all : d1:int -> d2:int -> t list
(** All locations in row-major order. *)

val per_geometry : (d1:int -> d2:int -> 'a) -> d1:int -> d2:int -> 'a
(** [per_geometry build] memoizes [build] per image geometry: the first
    call for a [(d1, d2)] builds the value, every later call returns that
    same value.  Domain-safe (one lock per memo table); the value is
    shared by every caller and domain, so it must never be mutated. *)

val center_order : d1:int -> d2:int -> int array
(** The row-major {!index} of every location, in {!by_center_distance}
    order.  A counting sort, built once per geometry ({!per_geometry}):
    the array is shared, so do not mutate it. *)

val by_center_distance : d1:int -> d2:int -> t array
(** All locations sorted by {!center_distance} ascending (center of the
    image first), ties broken row-major — the sketch's secondary
    initialization order. *)

val patch_cells : anchor:t -> h:int -> w:int -> t list
(** The [h * w] locations of the rectangle whose top-left corner is
    [anchor], in row-major order.  Purely arithmetic — bounds are the
    caller's concern (see {!patch_anchors}). *)

val patch_anchors : d1:int -> d2:int -> h:int -> w:int -> t list
(** All anchors for which an [h x w] patch lies entirely inside a
    [d1 x d2] image, in row-major order; empty when the patch does not
    fit. *)

val index : d2:int -> t -> int
(** Row-major flat index. *)

val of_index : d2:int -> int -> t

val in_bounds : d1:int -> d2:int -> t -> bool
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
