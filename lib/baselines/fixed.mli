(** Sketch+False (Appendix C): the constant program.

    All four conditions are [false], so no reordering ever happens and the
    attack follows the sketch's initial prioritization exactly — farthest
    corner colors first, center-out.  It poses zero synthesis queries.
    Its gap to OPPSLA measures the value of the synthesized conditions. *)

val program : Oppsla.Condition.program
(** [Oppsla.Condition.const_false_program]. *)

val attack :
  ?max_queries:int ->
  ?goal:Oppsla.Sketch.goal ->
  ?batch:int ->
  Oracle.t ->
  image:Tensor.t ->
  true_class:int ->
  Oppsla.Sketch.result
(** The sketch run with {!program}.  [batch] is forwarded to
    {!Oppsla.Sketch.attack} (default {!Oppsla.Sketch.default_batch}); the
    cache is the oracle's attached one ({!Oracle.set_cache}). *)
