let table ~headers ~rows =
  let all = headers :: rows in
  let columns = List.length headers in
  List.iter
    (fun row ->
      if List.length row <> columns then
        invalid_arg "Report.table: ragged rows")
    rows;
  let width i =
    List.fold_left
      (fun acc row -> max acc (String.length (List.nth row i)))
      0 all
  in
  let widths = List.init columns width in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let render_row row =
    "| "
    ^ String.concat " | " (List.map2 pad row widths)
    ^ " |"
  in
  let rule =
    "+"
    ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths)
    ^ "+"
  in
  String.concat "\n"
    ([ rule; render_row headers; rule ]
    @ List.map render_row rows
    @ [ rule ])

(* All float rendering goes through [Telemetry.Fmt] — the one shared
   formatter set — so the report, workbench logs and bench output cannot
   drift apart in precision. *)
let float_opt = function None -> "-" | Some v -> Telemetry.Fmt.f2 v
let percent = Telemetry.Fmt.percent

let render_fig3 (rows : Experiments.fig3_row list) =
  match rows with
  | [] -> "(no data)"
  | first :: _ ->
      let budget_headers =
        List.map
          (fun (c : Experiments.fig3_cell) -> Printf.sprintf "<=%d" c.budget)
          first.Experiments.cells
      in
      let headers =
        [ "dataset"; "classifier"; "attack"; "#images" ]
        @ budget_headers @ [ "avg #queries" ]
      in
      let body =
        List.map
          (fun (r : Experiments.fig3_row) ->
            [ r.dataset; r.classifier; r.attacker;
              string_of_int r.attacked_images ]
            @ List.map
                (fun (c : Experiments.fig3_cell) -> percent c.success_rate)
                r.cells
            @ [ float_opt r.avg_queries ])
          rows
      in
      "Figure 3 - success rate by query budget\n" ^ table ~headers ~rows:body

let render_table1 (t : Experiments.table1) =
  let headers = "target \\ synthesized for" :: t.classifiers in
  let rows =
    List.mapi
      (fun target name ->
        name
        :: List.mapi
             (fun source _ -> float_opt t.avg_queries.(target).(source))
             t.classifiers)
      t.classifiers
  in
  "Table 1 - transferability (avg #queries)\n" ^ table ~headers ~rows

let render_fig4 (f : Experiments.fig4) =
  let headers =
    [ "iteration"; "synth queries"; "avg #queries (held-out)" ]
  in
  let rows =
    List.map
      (fun (p : Experiments.fig4_point) ->
        [
          string_of_int p.iteration;
          string_of_int p.synth_queries;
          Printf.sprintf "%.2f" p.test_avg_queries;
        ])
      f.series
  in
  Printf.sprintf
    "Figure 4 - program quality vs synthesis queries\n%s\nSketch+False \
     reference (0 synthesis queries): %.2f avg #queries"
    (table ~headers ~rows) f.baseline_avg_queries

let render_pool_stats (s : Domain_pool.Pool.stats) =
  let throughput =
    if s.Domain_pool.Pool.busy_seconds > 0. then
      Telemetry.Fmt.f1
        (float_of_int s.Domain_pool.Pool.tasks
        /. s.Domain_pool.Pool.busy_seconds)
    else "-"
  in
  "Domain pool\n"
  ^ table
      ~headers:
        [ "domains"; "jobs"; "tasks"; "stolen"; "busy (s)"; "tasks/s" ]
      ~rows:
        [
          [
            string_of_int s.Domain_pool.Pool.domains;
            string_of_int s.Domain_pool.Pool.jobs;
            string_of_int s.Domain_pool.Pool.tasks;
            string_of_int s.Domain_pool.Pool.steals;
            Telemetry.Fmt.f2 s.Domain_pool.Pool.busy_seconds;
            throughput;
          ];
        ]

let render_cache_stats (s : Score_cache.stats) =
  let lookups = s.Score_cache.hits + s.Score_cache.misses in
  let hit_rate =
    match Score_cache.hit_rate s with
    | None -> "-"
    | Some r -> percent r
  in
  "Score cache\n"
  ^ table
      ~headers:
        [ "lookups"; "hits"; "misses"; "hit rate"; "entries"; "MB" ]
      ~rows:
        [
          [
            string_of_int lookups;
            string_of_int s.Score_cache.hits;
            string_of_int s.Score_cache.misses;
            hit_rate;
            string_of_int s.Score_cache.entries;
            Telemetry.Fmt.mb s.Score_cache.bytes;
          ];
        ]

let render_batch_stats (s : Batcher.stats) =
  let specs = s.Batcher.buffer_hits + s.Batcher.discarded in
  let accuracy =
    if specs = 0 then "-"
    else percent (float_of_int s.Batcher.buffer_hits /. float_of_int specs)
  in
  let avg_chunk =
    if s.Batcher.batches = 0 then "-"
    else
      Telemetry.Fmt.f1
        (float_of_int s.Batcher.prepared /. float_of_int s.Batcher.batches)
  in
  "Speculative batching\n"
  ^ table
      ~headers:
        [
          "queries";
          "chunks";
          "prepared";
          "avg chunk";
          "buffer hits";
          "discarded";
          "speculation accuracy";
        ]
      ~rows:
        [
          [
            string_of_int s.Batcher.queries;
            string_of_int s.Batcher.batches;
            string_of_int s.Batcher.prepared;
            avg_chunk;
            string_of_int s.Batcher.buffer_hits;
            string_of_int s.Batcher.discarded;
            accuracy;
          ];
        ]

(* Per-backend tensor-engine summary, from the registry counters every
   backend maintains ({!Tensor_sig.Stats}): one row per backend that
   actually ran a GEMM this process.  MFLOP/s is nominal multiply-add
   work over kernel wall seconds. *)
let render_backend () =
  let row name =
    let c leaf =
      Telemetry.Counter.get
        (Telemetry.Metrics.counter ("backend." ^ name ^ "." ^ leaf))
    in
    let flops = c "gemm_flops" in
    if flops = 0 then None
    else
      let s =
        Telemetry.Histogram.snapshot
          (Telemetry.Metrics.histogram ("backend." ^ name ^ ".gemm_seconds"))
      in
      let seconds = s.Telemetry.Histogram.sum in
      let mflops =
        if seconds > 0. then
          Telemetry.Fmt.f1 (float_of_int flops /. seconds /. 1e6)
        else "-"
      in
      Some
        [
          name;
          mflops;
          string_of_int (c "panels");
          string_of_int (c "fusion_hits");
          Telemetry.Fmt.f2 seconds;
        ]
  in
  let rows =
    List.filter_map row (List.map Nn.Backend.kind_name Nn.Backend.all_kinds)
  in
  if rows = [] then None
  else
    Some
      ("Tensor backends\n"
      ^ table
          ~headers:
            [ "backend"; "GEMM MFLOP/s"; "im2col panels"; "fusion hits";
              "kernel (s)" ]
          ~rows)

(* Attack-outcome quantiles, straight from the registry histograms the
   sketch maintains.  Rendered only when at least one attack succeeded,
   so runs that never attacked print nothing. *)
let render_attack_quantiles () =
  let h = Telemetry.Metrics.histogram "attack.queries_to_success" in
  let s = Telemetry.Histogram.snapshot h in
  if s.Telemetry.Histogram.count = 0 then None
  else
    let q p = Telemetry.Histogram.quantile_of_snapshot s p in
    Some
      (Printf.sprintf
         "Attack outcomes\nqueries to success: p50 %s, p90 %s, p99 %s \
          (bucket-interpolated, %d successes, %d failures)"
         (Telemetry.Fmt.f1 (q 0.5))
         (Telemetry.Fmt.f1 (q 0.9))
         (Telemetry.Fmt.f1 (q 0.99))
         s.Telemetry.Histogram.count
         (Telemetry.Counter.get (Telemetry.Metrics.counter "attack.failures")))

(* Watchdog summary: which instrumented loops ran and where they last
   reported progress.  Rendered only when some loop actually beat. *)
let render_watchdog () =
  let statuses =
    List.filter
      (fun (s : Telemetry.Watchdog.status) -> s.Telemetry.Watchdog.beats > 0)
      (Telemetry.Watchdog.snapshot ())
  in
  if statuses = [] then None
  else
    let opt = function None -> "-" | Some v -> string_of_int v in
    Some
      ("Stall watchdog\n"
      ^ table
          ~headers:
            [ "loop"; "active"; "beats"; "image"; "iteration"; "queries" ]
          ~rows:
            (List.map
               (fun (s : Telemetry.Watchdog.status) ->
                 [
                   s.Telemetry.Watchdog.name;
                   string_of_int s.Telemetry.Watchdog.active;
                   string_of_int s.Telemetry.Watchdog.beats;
                   opt s.Telemetry.Watchdog.image;
                   opt s.Telemetry.Watchdog.iteration;
                   opt s.Telemetry.Watchdog.queries;
                 ])
               statuses))

(* Background-sampler summary: only meaningful when a sampler ran
   (sampler.samples > 0); the gauges hold its last tick. *)
let render_sampler () =
  let samples =
    Telemetry.Counter.get (Telemetry.Metrics.counter "sampler.samples")
  in
  if samples = 0 then None
  else
    let gauge name =
      Telemetry.Gauge.get (Telemetry.Metrics.gauge name)
    in
    Some
      ("Runtime sampler (last tick)\n"
      ^ table
          ~headers:
            [
              "samples";
              "uptime (s)";
              "cpu user (s)";
              "heap (MB)";
              "minor gcs";
              "major gcs";
              "queries/s";
              "stalls";
            ]
          ~rows:
            [
              [
                string_of_int samples;
                Telemetry.Fmt.f1 (gauge "process.uptime_seconds");
                Telemetry.Fmt.f1 (gauge "process.cpu_user_seconds");
                Telemetry.Fmt.f1 (gauge "process.heap_mb");
                Printf.sprintf "%.0f" (gauge "process.minor_collections");
                Printf.sprintf "%.0f" (gauge "process.major_collections");
                Telemetry.Fmt.f1 (gauge "oracle.query_rate_per_s");
                string_of_int
                  (Telemetry.Counter.get
                     (Telemetry.Metrics.counter "watchdog.stalls"));
              ];
            ])

(* GC pause attribution from the runtime profiler (--profile): one row
   per (domain, minor/major) family plus %-of-wall-clock in GC, the
   denominator being the profiler's attached time. *)
let render_profiler () =
  match Telemetry.Profiler.summary () with
  | [] -> None
  | stats ->
      let active = Telemetry.Profiler.active_seconds () in
      let rows =
        List.map
          (fun (s : Telemetry.Profiler.gc_stat) ->
            [
              string_of_int s.Telemetry.Profiler.domain;
              s.Telemetry.Profiler.kind;
              string_of_int s.Telemetry.Profiler.pauses;
              Telemetry.Fmt.f2 (s.Telemetry.Profiler.total_s *. 1e3);
              Telemetry.Fmt.f2 (s.Telemetry.Profiler.p50_s *. 1e6);
              Telemetry.Fmt.f2 (s.Telemetry.Profiler.p99_s *. 1e6);
              (if active > 0. then
                 Telemetry.Fmt.percent (s.Telemetry.Profiler.total_s /. active)
               else "-");
            ])
          stats
      in
      let in_gc =
        List.fold_left
          (fun acc (s : Telemetry.Profiler.gc_stat) ->
            acc +. s.Telemetry.Profiler.total_s)
          0. stats
      in
      Some
        (Printf.sprintf
           "GC pauses (runtime profiler, %.1fs attached, %s of wall in GC)\n"
           active
           (if active > 0. then Telemetry.Fmt.percent (in_gc /. active)
            else "-")
        ^ table
            ~headers:
              [
                "domain"; "gc"; "pauses"; "total (ms)"; "p50 (us)";
                "p99 (us)"; "% wall";
              ]
            ~rows)

(* Consolidated run-telemetry section.  Sub-tables always appear in the
   same order (pool, cache, batch, quantiles, watchdog, sampler,
   profiler) regardless of argument order at the call site, so reports
   from different runs line up when diffed.  Returns "" when there is
   nothing to report — callers print nothing rather than a dangling
   header for runs with no instrumentation active. *)
let render_telemetry ?pool ?cache ?batch () =
  let sections =
    List.filter_map Fun.id
      [
        Option.map render_pool_stats pool;
        Option.map render_cache_stats cache;
        Option.map render_batch_stats batch;
        render_backend ();
        render_attack_quantiles ();
        render_watchdog ();
        render_sampler ();
        render_profiler ();
      ]
  in
  match sections with
  | [] -> ""
  | _ -> "Telemetry\n=========\n" ^ String.concat "\n\n" sections

let render_islands (o : Oppsla.Islands.outcome) =
  let headers =
    [
      "island";
      "beta";
      "final avg";
      "best avg";
      "proposals";
      "accepted";
      "pruned";
      "migrations in";
      "queries";
    ]
  in
  let rows =
    Array.to_list
      (Array.map
         (fun (r : Oppsla.Islands.island_report) ->
           [
             string_of_int r.Oppsla.Islands.island;
             Printf.sprintf "%.4g" r.Oppsla.Islands.beta;
             Telemetry.Fmt.f2 r.Oppsla.Islands.final_avg_queries;
             Telemetry.Fmt.f2 r.Oppsla.Islands.best_avg_queries;
             string_of_int r.Oppsla.Islands.proposals;
             string_of_int r.Oppsla.Islands.accepted;
             string_of_int r.Oppsla.Islands.pruned;
             string_of_int r.Oppsla.Islands.migrations_in;
             string_of_int r.Oppsla.Islands.queries;
           ])
         o.Oppsla.Islands.islands)
  in
  let resumed =
    match o.Oppsla.Islands.resumed_at with
    | None -> ""
    | Some r -> Printf.sprintf ", resumed from round %d" r
  in
  Printf.sprintf
    "Island synthesis (%d rounds, %d migrations, %d queries%s)\n%s\nbest: \
     %s (%s avg #queries)"
    o.Oppsla.Islands.rounds_completed o.Oppsla.Islands.migrations
    o.Oppsla.Islands.synth_queries resumed
    (table ~headers ~rows)
    (Oppsla.Dsl.print_program o.Oppsla.Islands.best)
    (Telemetry.Fmt.f2 o.Oppsla.Islands.best_avg_queries)

let render_targeted (rows : Experiments.targeted_row list) =
  match rows with
  | [] -> "(no data)"
  | first :: _ ->
      let budget_headers =
        List.map
          (fun (c : Experiments.fig3_cell) -> Printf.sprintf "<=%d" c.budget)
          first.Experiments.cells
      in
      let headers =
        [ "classifier"; "attack"; "target"; "#images" ]
        @ budget_headers
        @ [ "avg #queries"; "median #queries" ]
      in
      let body =
        List.map
          (fun (r : Experiments.targeted_row) ->
            [
              r.Experiments.classifier;
              r.Experiments.attacker;
              Printf.sprintf "%d (%s)" r.Experiments.target
                r.Experiments.target_name;
              string_of_int r.Experiments.attacked_images;
            ]
            @ List.map
                (fun (c : Experiments.fig3_cell) -> percent c.success_rate)
                r.Experiments.cells
            @ [
                float_opt r.Experiments.avg_queries;
                float_opt r.Experiments.median_queries;
              ])
          rows
      in
      "Targeted attacks - success rate by query budget, per target class\n"
      ^ table ~headers ~rows:body

let render_table2 (rows : Experiments.table2_row list) =
  let headers =
    [ "classifier"; "approach"; "success"; "avg #queries"; "median #queries" ]
  in
  let body =
    List.map
      (fun (r : Experiments.table2_row) ->
        [
          r.classifier;
          r.approach;
          percent r.success_rate;
          float_opt r.avg_queries;
          float_opt r.median_queries;
        ])
      rows
  in
  "Table 2 - ablation (synthesized conditions & stochastic search)\n"
  ^ table ~headers ~rows:body

let render_beta_sweep (s : Experiments.beta_sweep) =
  let rows =
    List.map
      (fun (r : Experiments.beta_row) ->
        [
          Printf.sprintf "%g" r.beta;
          Printf.sprintf "%.1f" r.final_avg_queries;
          Printf.sprintf "%.1f" r.best_avg_queries;
          Printf.sprintf "%d/%d" r.accepted (s.rounds + 1);
        ])
      s.rows
  in
  Printf.sprintf "Beta sweep - MH temperature (%s, class %d, %d iterations)\n%s"
    s.arch s.class_id s.rounds
    (table ~headers:[ "beta"; "final avg #q"; "best avg #q"; "accepted" ] ~rows)
