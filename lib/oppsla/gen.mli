(** Random generation and mutation of well-typed programs.

    A program is represented by its abstract syntax tree (Figure 2): a
    root with four condition children, each condition owning a function
    node and a constant node.  Mutation follows Section 4: pick a node
    uniformly at random among the 13 (1 root + 4 conditions + 4 functions
    + 4 constants) and regenerate its entire subtree from the grammar, so
    the result is always well-typed.

    Thresholds are drawn from each function's natural range: [[0, 1]] for
    pixel functions, [[-1, 1]] for [score_diff], and [[0, max(d1,d2)/2]]
    for [center]. *)

type config = { d1 : int; d2 : int }
(** Image dimensions; they bound the [center] threshold range. *)

val config_for_image : Tensor.t -> config
(** Read [d1]/[d2] off a CHW image tensor. *)

val random_program : config -> Prng.t -> Condition.program

(** {1 Perturbation-space samplers}

    Canonical uniform samplers over the {!Space} candidate sets, with a
    fixed draw order (location row-then-col, then corner) so every
    consumer of a named PRNG stream advances it identically. *)

val random_loc_excluding :
  config -> Prng.t -> excluded:Location.t list -> Location.t
(** Rejection-samples until the location is outside [excluded]. *)

val random_pair : config -> Prng.t -> Pair.t
(** A uniform one-pixel candidate: location, then one of the 8 corners. *)

val random_pixel_set : config -> Prng.t -> k:int -> Pair.t list
(** [k] pairs with distinct locations (corners drawn independently).
    Raises [Invalid_argument] when [k] is outside [[1, d1 * d2]]. *)

val random_patch : config -> Prng.t -> h:int -> w:int -> Location.t * int
(** A uniform in-bounds patch candidate: anchor (row, then col, over the
    valid anchor grid), then the fill corner.  Raises
    [Invalid_argument] when the patch does not fit. *)

val mutate : config -> Prng.t -> Condition.program -> Condition.program
(** One uniform node mutation.  Mutating a function node keeps the
    condition's comparison and threshold; mutating a constant node
    resamples the threshold from the function's range; mutating a
    condition or the root regenerates the whole subtree.  A [Const]
    baseline condition has no function/constant children, so selecting
    either slot regenerates the whole condition.

    Equivalent to drawing [slot] uniformly from [0, 12] and calling
    {!mutate_slot} — the RNG draw order is identical, so callers that
    need the chosen slot (e.g. to label the proposal kind in telemetry)
    can perform the draw themselves without perturbing the stream. *)

val mutate_slot :
  config -> Prng.t -> Condition.program -> slot:int -> Condition.program
(** {!mutate} with the node choice made by the caller.  [slot] must lie
    in [0, 12] (see the addressing comment on {!mutate}); raises
    [Invalid_argument] otherwise. *)

val slot_kind : int -> string
(** The node class a mutation slot addresses: ["root"], ["condition"],
    ["function"] or ["constant"].  Raises [Invalid_argument] outside
    [0, 12]. *)
