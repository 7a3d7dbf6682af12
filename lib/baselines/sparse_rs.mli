(** Sparse-RS (Croce et al., AAAI 2022), specialized to one-pixel attacks.

    Sparse-RS is a random-search framework for sparse black-box attacks:
    it keeps a current set of k perturbed pixels with corner-valued
    colors, proposes random modifications, and accepts a proposal iff it
    does not increase the margin loss

    [margin(x') = f_cx(x') - max_{c<>cx} f_c(x')],

    declaring success as soon as the margin is negative.  For k = 1 the
    framework degenerates to a stochastic hill-climb over
    (location, corner) pairs; following the published schedule, early
    iterations resample the location globally and later iterations
    mostly keep the location and resample the color, with an
    exploration probability that decays with the query count.

    {b Goals.}  Every attack takes an optional [goal]
    ({!Oppsla.Sketch.goal}, default [Untargeted]): targeted goals
    minimize the negated margin at the target class and succeed when the
    predicted label becomes the target.

    {b Decision-based variant.}  Run the attack against an oracle in
    {!Oracle.Decision} mode: observed vectors collapse to one-hot labels,
    the margin loss degenerates to the label-flip indicator (constant on
    failures), acceptance never prunes, and the search honestly degrades
    to label-only random sampling over the space — the decision-based
    member of the Sparse-RS framework.  Query accounting is identical in
    both modes. *)

type config = {
  max_queries : int;
  (* Probability floor for global location resampling; the published
     piecewise schedule decays toward this. *)
  min_explore : float;
}

val default_config : max_queries:int -> config

val attack :
  ?config:config ->
  ?goal:Oppsla.Sketch.goal ->
  Prng.t ->
  Oracle.t ->
  image:Tensor.t ->
  true_class:int ->
  Oppsla.Sketch.result
(** The one-pixel attack (k = 1), as evaluated in the paper.  [config]
    defaults to [default_config ~max_queries:(8 * d1 * d2)].  The clean
    margin is computed from an unmetered query (same convention as
    {!Oppsla.Sketch.attack}).  The attack stops at [config.max_queries]
    queries, a cap its {!Batcher} enforces.

    When the oracle carries an attached cache ({!Oracle.set_cache}),
    perturbation scores are memoized: k = 1 proposals share the sketch's
    corner key space ({!Oppsla.Sketch.cache_key}), so hits carry across
    attackers on the same image; k > 1 sets key on the sorted pair-id
    list.  Metering stays above the cache — queries and outcomes are
    bit-identical either way.

    Forwarded candidates are built in place in the attack's one
    {!Oppsla.Arena} slot; the adversarial image in the result is a fresh
    copy. *)

(** {1 Few-pixel attacks}

    The published Sparse-RS framework is parameterized by the number of
    perturbed pixels [k]; the paper's evaluation uses k = 1, but the
    general form is provided for completeness.  Each step resamples a
    schedule-decaying fraction of the pixel set (locations and corner
    colors) and keeps the proposal iff the margin loss does not
    increase. *)

type multi_result = {
  adversarial : (Oppsla.Pair.t list * Tensor.t) option;
      (** the perturbed pixel set and the adversarial image *)
  queries : int;
}

val attack_multi :
  ?config:config ->
  ?goal:Oppsla.Sketch.goal ->
  k:int ->
  Prng.t ->
  Oracle.t ->
  image:Tensor.t ->
  true_class:int ->
  multi_result
(** [attack_multi ~k] perturbs exactly [k] distinct pixels.  Raises
    [Invalid_argument] if [k < 1] or [k > d1 * d2]. *)

val to_result : multi_result -> Oppsla.Sketch.result
(** The single-pair view of a set result, as the runner, the CLI and
    {!attack} report it: the success flag and query count unchanged, and
    the set's first pair as the reported pair (the whole set is in the
    adversarial image). *)

val attack_space :
  ?config:config ->
  ?goal:Oppsla.Sketch.goal ->
  space:Oppsla.Space.t ->
  Prng.t ->
  Oracle.t ->
  image:Tensor.t ->
  true_class:int ->
  multi_result
(** Dispatch on the perturbation space: [Pixel] is {!attack_multi}
    [~k:1], [Kpixel k] is {!attack_multi} [~k].  [Patch] is random
    search over anchored [h x w] rectangles filled with one corner
    color: the state is (anchor, fill corner), exploration re-anchors
    the patch globally, exploitation keeps the anchor and resamples the
    corner, under the same decaying schedule.  [config] then defaults to
    [max_queries = 8 * #anchors]; the result's pair list is the patch
    expanded cell-by-cell (every cell carries the fill corner), and
    cache keys live in the ["patch:"] namespace
    ({!Oppsla.Space.patch_key}).  Raises [Invalid_argument] when a patch
    does not fit the image. *)
