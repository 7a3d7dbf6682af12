(** Reference implementation of the pair queue, backed by a plain list.

    Same contract as {!Pair_queue} with O(n) operations, stated on
    {!Pair.t} values and options where {!Pair_queue} takes and answers
    pair ids and [-1].  It exists for
    two reasons: the property-based tests check the indexed queue against
    it, and the microbenchmark ablates the indexed design against it
    (DESIGN.md §5.1). *)

type t

val init : d1:int -> d2:int -> Pair.t list -> t
val full_space : d1:int -> d2:int -> image:Tensor.t -> t
val pop : t -> Pair.t option
val push_back : t -> Pair.t -> unit
val remove : t -> Pair.t -> unit
val mem : t -> Pair.t -> bool
val first_with_location : t -> Location.t -> Pair.t option
val length : t -> int
val is_empty : t -> bool
val to_list : t -> Pair.t list
