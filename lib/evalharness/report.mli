(** Plain-text rendering of experiment results, shaped like the paper's
    tables and figures. *)

val table : headers:string list -> rows:string list list -> string
(** Box-drawn, column-aligned table. *)

val float_opt : float option -> string
(** ["-"] for [None], two decimals otherwise. *)

val percent : float -> string
(** [0.59 -> "59.0%"]. *)

val render_fig3 : Experiments.fig3_row list -> string
val render_table1 : Experiments.table1 -> string
val render_fig4 : Experiments.fig4 -> string
val render_table2 : Experiments.table2_row list -> string

val render_targeted : Experiments.targeted_row list -> string
(** The targeted-attack table: one row per (attacker, target class),
    success-by-budget cells like Figure 3 plus avg/median queries.  The
    byte-exact format is pinned by the golden file
    [test/report_targeted_golden_v1.txt]. *)

val render_islands : Oppsla.Islands.outcome -> string
(** Per-island table of an archipelago run — temperature, final and best
    averages, proposal/acceptance/pruning counters, elite adoptions and
    query spend per island — headed by the run totals and followed by
    the overall best program.  Notes the resume round when the run was
    restored from a checkpoint. *)

val render_beta_sweep : Experiments.beta_sweep -> string
(** The MH temperature sweep: one row per β with the chain's final and
    best average queries and its accepted programs out of [rounds + 1]
    (the seed program counts as accepted). *)

val render_telemetry :
  ?pool:Domain_pool.Pool.stats ->
  ?cache:Score_cache.stats ->
  ?batch:Batcher.stats ->
  unit ->
  string
(** One consolidated "Telemetry" section stacking whichever sub-tables
    were passed plus registry-derived summaries, always in pool → cache
    → batch → backend → attack quantiles → watchdog → sampler order so reports
    diff cleanly across runs.  The backend table ("Tensor backends")
    has one row per backend that ran a GEMM this process: nominal GEMM
    MFLOP/s, im2col panel fills, fused conv epilogues executed and
    kernel wall seconds.  The attack-quantile line
    (bucket-interpolated p50/p90/p99 queries-to-success) appears once
    an attack has succeeded, the watchdog table once an instrumented
    loop has beaten, and the sampler table once a background sampler
    has ticked.  Returns [""] when there is nothing to report, so runs
    without instrumentation print no dangling header.  All floats
    render through {!Telemetry.Fmt}. *)
