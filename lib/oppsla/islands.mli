(** OPPSLA's program synthesizer: Metropolis-Hastings over the sketch's
    holes (Algorithm 2), run as an island model.

    Each chain starts from a random instantiation of the sketch; every
    round it mutates its current program's AST ({!Gen.mutate}), scores
    the proposal's average query count on the training set, and accepts
    it with probability [min 1 (S(P') / S(P))].  With [islands = 1] (and
    so no migration) this is exactly Algorithm 2: the island's [final]
    program is the paper's output, and [trace] holds every proposal
    (the Figure 4 experiment evaluates its accepted programs).

    With [K > 1] the chains run in lockstep rounds at a ladder of
    temperatures
    [beta_k = beta * temperature_ratio^k] — island 0 is the coldest
    (most selective), hotter islands explore — and migrates elite
    programs around a ring on a fixed schedule: every
    [migration_period] rounds, island [k] adopts island [(k+1) mod K]'s
    best program as its chain position iff it beats its incumbent.
    Migration is a deterministic comparison; it draws no randomness.

    {b Determinism contract.}  Island [k] draws only from the named
    streams ["islands/<k>"] (chain) and ["islands/<k>/early-stop"]
    (PAC visiting permutations) of the caller's generator root, so for a
    fixed seed and (K, migration-period, early-stop) configuration the
    elite trace and every query count replay bit-identically: across
    domain-pool widths (the pool only fans one evaluation's per-image
    attacks, merged in image order), with or without a shared score
    cache, and across kill/resume.

    {b Checkpointing.}  With [checkpoint = Some file], the complete
    synthesis state — both PRNG streams, chain position, best program,
    counters and the trace so far, for every island — is written every
    [checkpoint_every] rounds (and at the final round) to a versioned,
    self-describing, FNV-1a-checksummed text file, atomically
    (tmp+rename).  [synthesize ~resume:true] restores it and replays the
    remaining rounds to exactly the trace an uninterrupted run produces.
    Corrupted, truncated or version-mismatched files, and checkpoints
    written under a different seed or configuration, raise
    {!Checkpoint_error} with a descriptive message.  Checkpoints are
    only written at round boundaries, never with partial-round state. *)

exception Checkpoint_error of string

type entry = {
  round : int;  (** 0 is the island's seed program *)
  island : int;
  program : Condition.program;
  avg_queries : float;
      (** training average; for pruned proposals, the early-stop lower
          bound that killed the candidate *)
  accepted : bool;
  pruned : bool;
  queries_total : int;
      (** cumulative synthesis queries across {e all} islands when this
          entry was recorded *)
}

type island_report = {
  island : int;
  beta : float;  (** this island's effective temperature *)
  final : Condition.program;  (** chain position after the last round *)
  final_avg_queries : float;
  best : Condition.program;
  best_avg_queries : float;
  proposals : int;
  accepted : int;
  pruned : int;
  migrations_in : int;  (** times it adopted a neighbour's elite *)
  queries : int;  (** queries spent by this island's evaluations *)
}

type outcome = {
  best : Condition.program;  (** best program across all islands *)
  best_avg_queries : float;
  islands : island_report array;  (** indexed by island *)
  trace : entry list;
      (** chronological; within a round, islands in index order *)
  synth_queries : int;
  rounds_completed : int;
  migrations : int;  (** elite adoptions that actually happened *)
  resumed_at : int option;
      (** the checkpoint's round, when this run was resumed *)
}

type config = {
  islands : int;  (** K; default 4 *)
  beta : float;  (** island 0's temperature; default 0.02 *)
  temperature_ratio : float;
      (** [beta_k = beta * ratio^k]; default 0.5 — each hotter island
          halves the selectivity *)
  rounds : int;  (** MH iterations per chain; default 210 *)
  migration_period : int;
      (** rounds between ring migrations; [<= 0] disables; default 10 *)
  goal : Sketch.goal;
  max_queries_per_image : int option;
  max_synth_queries : int option;
      (** stop (mid-round, without checkpointing partial state) once the
          cross-island query total reaches this *)
  batch : int;
      (** candidate width of every attack; only {!Sketch.default_batch}
          is accepted ({!synthesize} raises [Invalid_argument]
          otherwise).  Kept for the repository benchmark, which sets
          it. *)
  early_stop : Score.pac option;
      (** PAC candidate pruning per island, against that island's own
          incumbent average.  Each proposal is scored with
          {!Score.evaluate_pac} in a per-proposal permuted order drawn
          from the island's ["islands/<k>/early-stop"] stream, and
          abandoned once its early-stop lower bound exceeds the
          incumbent's average.  A pruned proposal is rejected without an
          acceptance draw, so the chain stream sees one fewer draw on
          that round: early stopping trades exact MH semantics for
          queries, and [None] (the default) scores every proposal on the
          full training set.  Early-stopped synthesis is itself
          deterministic for a given seed. *)
  checkpoint : string option;  (** checkpoint file path *)
  checkpoint_every : int;  (** rounds between writes; default 10 *)
  on_round : int -> unit;
      (** called after each completed round (post-migration, after the
          checkpoint write, with the 1-based round index) *)
}

val default_config : config

val synthesize :
  ?config:config ->
  ?pool:Domain_pool.Pool.t ->
  ?caches:Score_cache.store ->
  ?resume:bool ->
  Prng.t ->
  Oracle.t ->
  training:(Tensor.t * int) array ->
  outcome
(** [synthesize g oracle ~training] runs the island model.  [g] is never
    drawn from directly — only its root identity is used to derive the
    per-island streams — so the caller's generator position does not
    affect the run.

    Islands are stepped sequentially within a round; [pool] parallelizes
    each evaluation's per-image attacks (bit-identical at any width, see
    {!Score.evaluate}).  [caches] is one shared per-image score
    cache store for the whole archipelago: islands evaluate one at a
    time, so each image's slot is only ever touched by one attack at any
    instant, and cross-island cache hits are free wall-clock wins.

    [resume:true] (default false) restores [config.checkpoint] and
    continues; raises {!Checkpoint_error} if the file is missing,
    damaged, from another format version, or from a run with a different
    seed/configuration, and [Invalid_argument] if [config.checkpoint] is
    [None]. *)

(** {2 Checkpoint inspection} *)

type info = {
  info_islands : int;
  info_training : int;
  info_rounds_done : int;
  info_synth_queries : int;
  info_trace_length : int;
}

val checkpoint_info : string -> info
(** Parse and fully verify (version, checksum, structure) a checkpoint
    file without resuming it.  Raises {!Checkpoint_error} as
    {!synthesize} does. *)
