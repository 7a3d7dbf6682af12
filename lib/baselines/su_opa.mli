(** SuOPA: the original One Pixel Attack (Su et al., 2017), based on
    differential evolution.

    A candidate is an (row, col, r, g, b) vector; colors range over the
    whole cube [[0,1]^3] (not only its corners).  DE/rand/1 evolution: for
    each population member, a mutant [v = x_r1 + F (x_r2 - x_r3)] is
    built from three distinct random members, clipped to bounds, and
    replaces the member iff its fitness — the true class's softmax score,
    to be minimized — is not worse.

    Candidates are evaluated in batches (the initial population, then one
    generation at a time) and success is declared only when a batch
    completes, as in the published implementation; the minimum query
    count therefore equals [population] (the paper notes SuOPA's minimum
    of 400 queries: its population size).  The attack stops when
    [max_queries] queries are spent, a cap its {!Batcher} enforces (the
    oracle itself never refuses a query); it then reports a success
    found in the unfinished generation. *)

type config = {
  population : int;  (** default 400, as in the original attack *)
  f : float;  (** DE differential weight, default 0.5 *)
  max_queries : int;
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
(** [goal] (default [Untargeted]) selects the fitness: the true class's
    score minimized, or the target class's score maximized (negated
    minimization), with success via {!Oppsla.Sketch.goal_reached}.

    The adversarial pair reported on success is the best-effort corner
    description of the continuous perturbation (for reporting only; the
    adversarial image itself carries the exact continuous pixel).

    When the oracle carries an attached cache ({!Oracle.set_cache}),
    perturbation scores are memoized under exact-float-bits
    ["rgb:row,col,..."] keys — DE revisits candidates often enough (elites
    survive generations unchanged) for this to pay off, and metering stays
    above the cache so queries and the outcome are bit-identical either
    way.

    Forwarded candidates are built in place in the attack's one
    {!Oppsla.Arena} slot; the adversarial image in the result is a fresh
    copy. *)
