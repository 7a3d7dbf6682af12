(** A uniform interface over all attacks, for the experiment runners.

    An attacker takes a fresh per-image RNG and oracle and produces a
    {!Oppsla.Sketch.result}.  Deterministic attacks (the sketch family)
    ignore the RNG.  [batch] is the candidate width: every attack poses
    one candidate per query, so [run] accepts only
    {!Oppsla.Sketch.default_batch} and raises [Invalid_argument]
    otherwise; the label stays for the repository benchmark, which
    passes it.  [goal] is the attack goal every attack
    threads through to its success predicate
    ({!Oppsla.Sketch.goal_reached}); untargeted unless the experiment
    says otherwise. *)

type t = {
  name : string;
  run :
    Prng.t ->
    Oracle.t ->
    goal:Oppsla.Sketch.goal ->
    max_queries:int ->
    batch:int ->
    image:Tensor.t ->
    true_class:int ->
    Oppsla.Sketch.result;
}

val oppsla : programs:Oppsla.Condition.program array -> t
(** The paper's protocol: one program per class; the attack on an image
    of class [c] runs program [programs.(c)]. *)

val oppsla_single : Oppsla.Condition.program -> t
(** One program for every class (transferability-style runs). *)

val sketch_false : t
(** Sketch+False: the constant-prioritization baseline. *)

val sparse_rs : t

val sparse_rs_space : Oppsla.Space.t -> t
(** Sparse-RS over an arbitrary perturbation space
    ({!Baselines.Sparse_rs.attack_space}).  Named
    ["Sparse-RS(<space>)"].  On success the reported pair is the first
    element of the perturbed set ({!Baselines.Sparse_rs.to_result}; the
    runner only consumes the success flag and query count). *)

val su_opa : ?population:int -> unit -> t

val decision : t -> t
(** [decision t] is [t] attacking under the label-only threat model: the
    per-image oracle is flipped to {!Oracle.Decision} mode before the
    attack, so every observed score vector collapses to the one-hot of
    its label.  Named ["<name>/decision"].  Query accounting is
    unchanged by construction — only what the attack can see. *)
