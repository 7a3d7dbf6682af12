(** The in-place candidate slot: where every attacker builds the inputs
    it hands to {!Batcher.query}.

    An arena holds one slot over one base image.  The slot is a copy of
    the base, made the first time it is used.  It records the locations
    it last wrote, and when it is taken again it restores exactly those
    locations from the base before the new candidate is written, so the
    slot always equals the fresh copy of the candidate built in it
    ({!Sketch.perturb}, {!Space.perturb_patch}, ...).  A candidate that
    misses the cache therefore costs a few pixel writes, not an image
    copy.

    The contract with the batcher: an attack owns one arena, and a query
    forwards at most its own candidate, which the oracle borrows and
    consumes before the query returns, so no live input is ever
    overwritten.

    A tensor returned here is overwritten by the next candidate: an
    attack's adversarial image, which its caller keeps, is a fresh copy
    built outside the arena. *)

type t

val create : Tensor.t -> t
(** [create image]: an arena over [image], which must be a
    [3 x d1 x d2] tensor and must not change while the arena is used.
    The slot is not allocated yet. *)

val corner : t -> int -> Tensor.t
(** [corner a id]: the slot, holding the base image with the pixel
    of pair [id] ({!Pair.id}) set to its corner colour. *)

val pixel : t -> row:int -> col:int -> Rgb.t -> Tensor.t
(** The slot with one pixel set to the given colour. *)

val pixels : t -> Pair.t list -> Tensor.t
(** The slot with each pair's pixel set to its corner, written in
    list order (a later pair at the same location wins). *)

val patch :
  t -> anchor:Location.t -> h:int -> w:int -> corner:int -> Tensor.t
(** The slot with the anchored [h x w] rectangle filled with
    [Rgb.corner corner].  Raises [Invalid_argument] if the patch leaves
    the image. *)
