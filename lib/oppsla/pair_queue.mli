(** The sketch's priority queue [L] of location-perturbation pairs.

    Operations used by Algorithm 1: initialize with a fixed order, pop the
    front, push *member* pairs to the back, remove arbitrary members,
    visit a pair's in-queue neighbours ([closest_loc]) and find the first
    member with a given location ([closest_pert]).  All are O(1) except
    [iter_neighbors] and [first_with_location], which are O(8).

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

(** {1 Operations on pair ids}

    Every operation below names a pair by its {!Pair.id}
    ([(row * d2 + col) * 8 + corner]) and a location by its
    {!Location.index}, and answers [-1] for "none", so the sketch's
    query loop edits the queue without building a {!Pair.t}, an option
    or a list. *)

val pop : t -> int
(** Remove and return the front pair's id; [-1] when empty. *)

val push_back : t -> int -> unit
(** Move a member pair to the back.  Raises [Invalid_argument] if the pair
    is not currently in the queue. *)

val remove : t -> int -> unit
(** Remove a member pair.  Raises [Invalid_argument] if absent. *)

val mem : t -> int -> bool
(** Whether the id is a member ([false] for ids outside the space). *)

val first_with_location : t -> int -> int
(** [first_with_location q li]: the member pair at location index [li]
    that is closest to the front — the paper's "closest pair with
    respect to the perturbation" — or [-1] when there is none or [li]
    lies outside the image. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** [iter_neighbors q id f] calls [f] on each member pair with [id]'s
    corner at a location at L-infinity distance 1 from [id]'s — the
    paper's "closest pairs with respect to the location" — in
    {!Location.neighbors} order, found by index arithmetic.  Membership
    is tested just before each call, so [f] may push back or remove the
    pair it is given. *)

val length : t -> int
val is_empty : t -> bool

val to_list : t -> Pair.t list
(** Front-to-back contents (O(n); for tests and debugging). *)
