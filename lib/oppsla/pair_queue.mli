(** The sketch's priority queue [L] of location-perturbation pairs.

    Operations used by Algorithm 1: initialize with a fixed order, pop the
    front, push *member* pairs to the back, remove arbitrary members, and
    find the first member with a given location ([closest_pert]).  All are
    O(1) except [first_with_location], which is O(8).

    Implementation: an intrusive doubly-linked list over dense pair ids,
    plus a per-location bitmask of the corners still enqueued and a
    monotone insertion sequence number per node.  Because the queue is only
    ever mutated by pop-front, remove, and move-to-back (which assigns a
    fresh maximal sequence number), the list order always coincides with
    ascending sequence order; "first member at location l" is therefore
    the member corner with minimal sequence number. *)

type t

val init : d1:int -> d2:int -> Pair.t list -> t
(** [init ~d1 ~d2 order] builds the queue containing exactly the pairs of
    [order], front first.  Raises [Invalid_argument] on duplicates or
    out-of-bounds locations. *)

val full_space : d1:int -> d2:int -> image:Tensor.t -> t
(** The paper's initial prioritization (Appendix A): all [8*d1*d2] pairs;
    primary order by L1 pixel distance between the corner and the image's
    pixel at that location, farthest first (block k holds every location's
    k-th farthest corner); secondary order by distance to the image
    center, ascending, then row-major.  Built in one pass of flat array
    writes (no per-pair allocation).  Raises [Invalid_argument] unless
    [image] has shape [[|3; d1; d2|]]. *)

val pop : t -> Pair.t option
(** Remove and return the front pair. *)

val push_back : t -> Pair.t -> unit
(** Move a member pair to the back.  Raises [Invalid_argument] if the pair
    is not currently in the queue. *)

val remove : t -> Pair.t -> unit
(** Remove a member pair.  Raises [Invalid_argument] if absent. *)

val mem : t -> Pair.t -> bool

val first_with_location : t -> Location.t -> Pair.t option
(** The member pair with this location that is closest to the front —
    the paper's "closest pair with respect to the perturbation". *)

val front_nth : t -> int -> Pair.t option
(** [front_nth q n] is the [n]-th pair from the front without removing
    it ([front_nth q 0] is what {!pop} would return).  O(n) walk; used
    by the sketch to speculate its next candidates for batched
    evaluation. *)

val length : t -> int
val is_empty : t -> bool

val to_list : t -> Pair.t list
(** Front-to-back contents (O(n); for tests and debugging). *)
