(** Sketch+Random (Appendix C): random program sampling.

    Samples [samples] independent random instantiations of the sketch
    (210 by default — the number of stochastic-search iterations OPPSLA
    runs in the ablation), evaluates each on the training set, and
    returns the one with the lowest average query count.  Its gap to
    OPPSLA measures the value of the Metropolis-Hastings search over
    blind sampling. *)

type outcome = {
  best : Oppsla.Condition.program;
  best_avg_queries : float;
  synth_queries : int;  (** oracle queries spent selecting the program *)
}

val synthesize :
  ?samples:int ->
  ?max_queries_per_image:int ->
  ?caches:Score_cache.store ->
  ?batch:int ->
  ?evaluator:
    (Oppsla.Condition.program ->
    (Tensor.t * int) array ->
    Oppsla.Score.evaluation) ->
  Prng.t ->
  Oracle.t ->
  training:(Tensor.t * int) array ->
  outcome
(** [evaluator] substitutes {!Oppsla.Score.evaluate} (e.g. with a parallel
    runner).  [caches] (one slot per training image, shared across all
    sampled programs) is forwarded to the default evaluator and ignored
    when [evaluator] is given — a custom evaluator owns its own caching.
    [batch] (default {!Oppsla.Sketch.default_batch}) is the speculative
    chunk width forwarded the same way; outcomes are bit-identical at
    every width. *)
