(** Deterministic pseudo-random number generation.

    Every source of randomness in this repository flows through this module
    so that experiments are reproducible bit-for-bit.  The generator is
    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a 64-bit counter-based
    generator with a strong output mixer.  It is splittable, which lets us
    derive independent named streams (e.g. one for dataset generation, one
    for network initialization, one for the synthesizer) from a single root
    seed without any cross-stream correlation in practice. *)

type t
(** A mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator seeded with [seed]. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    independent of the rest of [g]'s stream. *)

val named_stream : t -> string -> t
(** [named_stream g name] derives a generator from [g]'s root whose stream
    depends only on [g]'s original seed and [name] (not on how many numbers
    were drawn from [g]).  Use it to give subsystems stable, order-independent
    randomness. *)

val copy : t -> t
(** [copy g] duplicates the current state; both generators then produce the
    same future stream. *)

val save : t -> string
(** [save g] serializes the complete generator identity (current position
    and root seed) to a single printable token, for embedding in
    checkpoint files.  [restore (save g)] produces a generator whose
    future stream — including streams later derived via {!named_stream} —
    is bit-identical to [g]'s. *)

val restore : string -> t
(** Inverse of {!save}.  Raises [Invalid_argument] on a token that [save]
    did not produce. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g n] is uniform in [\[0, n)].  Raises [Invalid_argument] if
    [n <= 0].  Uses rejection sampling, so it is exactly uniform. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [\[lo, hi\]] inclusive.  Raises
    [Invalid_argument] if [hi < lo]. *)

val float : t -> float -> float
(** [float g x] is uniform in [\[0, x)].  [x] must be positive. *)

val uniform : t -> float
(** [uniform g] is uniform in [\[0, 1)]. *)

val float_in : t -> float -> float -> float
(** [float_in g lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val normal : t -> ?mu:float -> ?sigma:float -> unit -> float
(** [normal g ~mu ~sigma ()] samples a Gaussian via the Box-Muller
    transform.  Defaults: [mu = 0.], [sigma = 1.]. *)

val choice : t -> 'a array -> 'a
(** [choice g a] picks a uniform element.  Raises [Invalid_argument] on an
    empty array. *)

val choice_list : t -> 'a list -> 'a
(** [choice_list g l] picks a uniform element.  Raises [Invalid_argument] on
    an empty list. *)

val shuffle : t -> 'a array -> 'a array
(** Fisher-Yates shuffle of a copy: the input array is not modified. *)

val sample_without_replacement : t -> int -> 'a array -> 'a array
(** [sample_without_replacement g k a] draws [k] distinct elements.  Raises
    [Invalid_argument] if [k < 0] or [k > Array.length a]. *)

val permutation : t -> int -> int array
(** [permutation g n] is a uniform permutation of [0 .. n-1]. *)
