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
  ?pool:Domain_pool.Pool.t ->
  Prng.t ->
  Oracle.t ->
  training:(Tensor.t * int) array ->
  outcome
(** Each sampled program is scored by {!Oppsla.Score.evaluate}, which
    receives [max_queries_per_image] (as [max_queries]), [caches] (one
    slot per training image, shared across all sampled programs),
    [batch] (default {!Oppsla.Sketch.default_batch}) and [pool] (the
    per-image attacks fan out over it).  Outcomes are bit-identical with
    and without a cache or a pool, and at every batch width. *)
