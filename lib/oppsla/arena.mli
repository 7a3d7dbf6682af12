(** In-place candidate slots: where every attacker builds the inputs it
    hands to {!Batcher.query}.

    An arena holds up to [width] slots over one base image.  A slot is a
    copy of the base, made the first time it is used.  It records the
    locations it last wrote, and when it is taken again it restores
    exactly those locations from the base before the new candidate is
    written, so a slot always equals the fresh copy of the candidate
    built in it ({!Sketch.perturb}, {!Space.perturb_patch}, ...).  A
    candidate that misses the cache therefore costs a few pixel writes,
    not an image copy.

    Slots are taken round-robin and {!rewind} restarts the cycle at slot
    0.  The contract with the batcher: an attack of batch width [w] owns
    an arena of width [w] and rewinds it before each [Batcher.query].  A
    query builds at most one chunk of at most [w] inputs, and the oracle
    borrows its inputs and consumes them before the query returns, so no
    live input is ever overwritten.  The arena grows only to the widest
    chunk it serves.

    A tensor returned here is overwritten by a later candidate: an
    attack's adversarial image, which its caller keeps, is a fresh copy
    built outside the arena. *)

type t

val create : width:int -> Tensor.t -> t
(** [create ~width image]: an arena of at most [width] slots over
    [image], which must be a [3 x d1 x d2] tensor and must not change
    while the arena is used.  No slot is allocated yet.  Raises
    [Invalid_argument] if [width < 1]. *)

val rewind : t -> unit
(** The next candidate is built in slot 0. *)

val corner : t -> int -> Tensor.t
(** [corner a id]: the next slot, holding the base image with the pixel
    of pair [id] ({!Pair.id}) set to its corner colour. *)

val pixel : t -> row:int -> col:int -> Rgb.t -> Tensor.t
(** The next slot with one pixel set to the given colour. *)

val pixels : t -> Pair.t list -> Tensor.t
(** The next slot with each pair's pixel set to its corner, written in
    list order (a later pair at the same location wins). *)

val patch :
  t -> anchor:Location.t -> h:int -> w:int -> corner:int -> Tensor.t
(** The next slot with the anchored [h x w] rectangle filled with
    [Rgb.corner corner].  Raises [Invalid_argument] if the patch leaves
    the image. *)
