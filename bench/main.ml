(* The benchmark harness: bechamel microbenchmarks of the core
   operations and the BENCH_*.json benches.  The paper's experiments run
   through `oppsla eval` (bin/main.ml).

   Usage:
     dune exec bench/main.exe -- MODE [MODE ...] [--smoke]

   Modes:
     micro        bechamel microbenchmarks
     overhead synth
                  benches that write (or, with --smoke, only check)
                  BENCH_<mode>.json
     regress      rerun those two and gate them against the committed
                  baselines
   --smoke runs the seconds-scale tripwire of overhead and synth.  With
   no mode, or with any other argument, the bench lists the valid modes
   and exits 2 before any mode runs. *)

let timed name f =
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "[%s finished in %.1fs]\n\n%!" name (Unix.gettimeofday () -. t0)

(* Observer-overhead benchmark (the `overhead` mode).

   The paper's cost model is queries per image, so every observer must
   stay off the query-accounting path and its cost must be measured.
   One workload — batched Sketch+False attacks on vgg_tiny, each image
   labeled with the net's own prediction and attacked toward its least
   likely class, so every attack streams queries to the cap — runs bare
   and under each observer: the trace sink, the 20 Hz sampler with
   JSONL snapshots, the query-provenance journal and the Runtime_events
   profiler.

   The arms alternate rep by rep, so scheduler and load drift hit all of
   them alike; each timed region starts from a settled heap, since at
   thousands of minor collections per second the timing otherwise
   tracks where the incremental major cycle happens to be; one untimed
   warm-up per arm pays compilation, page-cache and first-attach costs.
   Overhead is an arm's summed process CPU over the bare arm's: an
   observer's cost (trace and journal writes, sampler and profiler
   systhreads) is all in-process CPU, which the host's other tenants
   cannot perturb the way they swing wall time.  It is signed: an
   observer measured cheaper than bare records a negative fraction.

   Each arm keeps its observer's natural attach placement: the journal
   opens and finalizes inside the timed region (a journaled run pays
   both per sweep); the trace sink, the profiler and the sampler
   attach and detach outside it (fixed per-run costs, not per-sweep
   ones).  Every rep of every arm must return per-image (queries,
   success) bit-identical to the bare arm, and each arm then checks the
   artifact its observer produced.

   --smoke (under `dune runtest`) runs a milliseconds-scale workload
   with runaway tripwires, not overhead claims: fixed per-rep costs
   dominate a 10 ms sweep.  The full run holds every arm to the 3%
   target and writes BENCH_overhead.json. *)

type overhead_sample = {
  results : (int * bool) array;  (** per-image (queries, success) *)
  wall : float;
  cpu : float;
}

type overhead_arm = {
  name : string;
  rep : unit -> overhead_sample;
      (** one timed sweep with the observer attached *)
  check : unit -> (string * string) list;
      (** post-run check of the observer's artifact; returns the arm's
          extra BENCH fields *)
  tripwire : float;  (** smoke-mode overhead bound *)
}

let contains_sub ~sub s =
  let m = String.length sub and n = String.length s in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  scan 0

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let bench_overhead ~smoke =
  let fail fmt =
    Printf.ksprintf (fun m -> failwith ("bench_overhead: " ^ m)) fmt
  in
  let g = Prng.of_int 17 in
  let image_size, n_images, num_classes, max_queries, reps =
    if smoke then (8, 2, 4, 48, 2) else (16, 4, 10, 640, 15)
  in
  let net = Nn.Zoo.vgg_tiny (Prng.split g) ~image_size ~num_classes in
  let samples =
    Array.init n_images (fun _ ->
        let image =
          Tensor.rand_uniform (Prng.split g) [| 3; image_size; image_size |]
        in
        let scores = Nn.Network.scores net image in
        let target = ref 0 in
        for c = 1 to num_classes - 1 do
          if Tensor.get_flat scores c < Tensor.get_flat scores !target then
            target := c
        done;
        (image, Nn.Network.classify net image, !target))
  in
  let sweep () =
    Array.mapi
      (fun i (image, true_class, target) ->
        Telemetry.Journal.with_image i @@ fun () ->
        let oracle = Oracle.of_network net in
        Oracle.set_cache oracle (Some (Score_cache.create ()));
        let r =
          Oppsla.Sketch.attack ~max_queries
            ~goal:(Oppsla.Sketch.Targeted target) ~batch:16 oracle
            Oppsla.Condition.const_false_program ~image ~true_class
        in
        (r.Oppsla.Sketch.queries, Option.is_some r.Oppsla.Sketch.adversarial))
      samples
  in
  (* [Sys.time] is getrusage user+system over every thread of the
     process, at microsecond resolution. *)
  let time f =
    Gc.full_major ();
    let c0 = Sys.time () and t0 = Unix.gettimeofday () in
    let results = f () in
    { results; wall = Unix.gettimeofday () -. t0; cpu = Sys.time () -. c0 }
  in
  (* The bare arm's untimed warm-up; every rep of every arm must match. *)
  let reference = sweep () in
  let total_queries = Array.fold_left (fun acc (q, _) -> acc + q) 0 reference in
  let bare =
    { name = "bare"; rep = (fun () -> time sweep); check = (fun () -> []);
      tripwire = 0. }
  in
  let trace =
    let path = Filename.temp_file "oppsla_bench_trace" ".json" in
    let m_queries = Telemetry.Metrics.counter "oracle.queries.total" in
    let metered = ref 0 in
    let spans =
      [ "sketch.attack"; "batcher.prepare"; "backend.forward_batch" ]
    in
    {
      name = "trace";
      rep =
        (fun () ->
          let before = Telemetry.Counter.get m_queries in
          Telemetry.Trace.to_file path;
          let s =
            Fun.protect ~finally:Telemetry.Trace.close (fun () -> time sweep)
          in
          metered := Telemetry.Counter.get m_queries - before;
          s);
      check =
        (fun () ->
          if !metered <= 0 then
            fail "the metrics registry saw no oracle queries";
          (* Each rep rewrites the file, so it holds the last rep's trace. *)
          let events =
            List.filter
              (fun l -> String.length l > 2 && l.[0] = '{' && l <> "{}]")
              (read_lines path)
          in
          List.iter
            (fun name ->
              let pat = Printf.sprintf "\"name\": \"%s\"" name in
              if not (List.exists (contains_sub ~sub:pat) events) then
                fail "the trace is missing %s spans (kept at %s)" name path)
            spans;
          Sys.remove path;
          [
            ("trace_events", string_of_int (List.length events));
            ("queries_metered", string_of_int !metered);
          ]);
      tripwire = 1.5;
    }
  in
  let observe =
    let snapshot = Filename.temp_file "oppsla_bench_snapshot" ".jsonl" in
    let ticks_before = Telemetry.Sampler.timed_ticks () in
    {
      name = "observe";
      rep =
        (fun () ->
          let sampler =
            Telemetry.Sampler.start
              {
                Telemetry.Sampler.interval_s = 0.05;
                snapshot_path = Some snapshot;
                stall_after_s = 60.;
                abort_on_stall = false;
              }
          in
          let before = Telemetry.Sampler.timed_ticks () in
          Fun.protect
            ~finally:(fun () ->
              (* A smoke rep can end inside one interval: give the loop
                 up to 2 s, untimed, to reach a deadline before [stop]. *)
              ignore
                (Telemetry.Sampler.await_timed_tick ~after:before
                   ~timeout_s:2.);
              Telemetry.Sampler.stop sampler)
            (fun () -> time sweep));
      check =
        (fun () ->
          let ticks = Telemetry.Sampler.timed_ticks () - ticks_before in
          if ticks <= 0 then fail "the sampler loop never reached a deadline";
          let lines = read_lines snapshot in
          Sys.remove snapshot;
          (* The sampler's final tick closes each rep's snapshot run: the
             file's last line is the registry at the end of the last rep. *)
          (match List.rev lines with
          | [] -> fail "the snapshot file got no JSONL lines"
          | last :: _ ->
              List.iter
                (fun name ->
                  if not (contains_sub ~sub:(Printf.sprintf "%S" name) last)
                  then fail "the last snapshot line is missing %s" name)
                [ "oracle.queries.total"; "attack.queries_to_success" ]);
          (match Telemetry.Watchdog.stalled ~stall_after_s:60. () with
          | [] -> ()
          | stalled ->
              fail "the watchdog reports stalled loops: %s"
                (String.concat ", "
                   (List.map (fun s -> s.Telemetry.Watchdog.name) stalled)));
          [
            (* Timed ticks, under the field name the committed
               BENCH_overhead.json already uses. *)
            ("sampler_samples", string_of_int ticks);
            ("snapshot_lines", string_of_int (List.length lines));
          ]);
      tripwire = 4.0;
    }
  in
  let journal =
    let path = Filename.temp_file "oppsla_bench_journal" ".jsonl" in
    {
      name = "journal";
      rep =
        (fun () ->
          time (fun () ->
              Telemetry.Journal.set_run_id "bench-overhead";
              Telemetry.Journal.to_file path;
              Fun.protect ~finally:Telemetry.Journal.close sweep));
      check =
        (fun () ->
          (* Each rep finalizes a fresh journal at [path]: the last one
             is audited. *)
          let records =
            match Evalharness.Audit.load_strict path with
            | j -> j.Evalharness.Audit.records
            | exception Evalharness.Audit.Invalid m ->
                fail "finalized journal failed audit: %s" m
          in
          if List.length records <> total_queries then
            fail
              "journal has %d records for %d charged queries (every charge \
               must be journaled exactly once)"
              (List.length records) total_queries;
          List.iter
            (fun (r : Evalharness.Audit.record) ->
              if r.site <> "sketch" then
                fail "record charged to site %S, not sketch" r.site;
              if r.image < 0 || r.image >= n_images then
                fail "record has image %d outside [0, %d)" r.image n_images)
            records;
          let covered =
            List.sort_uniq compare
              (List.map (fun (r : Evalharness.Audit.record) -> r.image) records)
          in
          if List.length covered <> n_images then
            fail "the journal does not cover every image index";
          Sys.remove path;
          [
            ("journal_records", string_of_int (List.length records));
            ("records_match_charges", "true");
          ]);
      tripwire = 4.0;
    }
  in
  let profile =
    {
      name = "profile";
      rep =
        (fun () ->
          let p = Telemetry.Profiler.start () in
          Fun.protect
            ~finally:(fun () -> Telemetry.Profiler.stop p)
            (fun () -> time sweep));
      check =
        (fun () ->
          let minor_pauses =
            List.fold_left
              (fun acc (s : Telemetry.Profiler.gc_stat) ->
                if s.kind = "minor" then acc + s.pauses else acc)
              0
              (Telemetry.Profiler.summary ())
          in
          if (not smoke) && minor_pauses = 0 then
            fail
              "the profiled arm observed no minor GC pauses (the attack \
               workload allocates heavily; zero pauses means the profiler \
               lost its event stream)";
          (* The same sweep traced AND profiled under a root span must let
             the offline analyzer account for >= 95% of the trace's
             wall-clock.  The profiler attaches inside the span so every
             calibrated GC event nests under it. *)
          let path = Filename.temp_file "oppsla_bench_profile" ".trace" in
          Telemetry.Trace.to_file path;
          let coverage =
            Fun.protect ~finally:Telemetry.Trace.close (fun () ->
                Telemetry.Trace.span "bench.profile_sweep" (fun () ->
                    let p = Telemetry.Profiler.start () in
                    Fun.protect
                      ~finally:(fun () -> Telemetry.Profiler.stop p)
                      (fun () -> ignore (sweep ())));
                Telemetry.Trace.flush ();
                (Evalharness.Traceprof.analyze
                   (Evalharness.Traceprof.parse_file path))
                  .Evalharness.Traceprof.coverage)
          in
          if coverage < 0.95 then
            fail
              "traceprof attributed only %.1f%% of wall-clock (>= 95%% \
               required); trace kept at %s"
              (100. *. coverage) path;
          Sys.remove path;
          [
            ("minor_pauses_observed", string_of_int minor_pauses);
            ("wall_clock_attributed", Printf.sprintf "%.4f" coverage);
          ]);
      tripwire = 4.0;
    }
  in
  let observers = [ trace; observe; journal; profile ] in
  let expect arm s =
    if s.results <> reference then
      fail
        "the %s arm changed the per-image (queries, success) results \
         (observers must be observation-only)"
        arm.name
  in
  List.iter (fun arm -> expect arm (arm.rep ())) observers;
  let arms = Array.of_list (bare :: observers) in
  let cpu = Array.make (Array.length arms) 0.
  and wall = Array.make (Array.length arms) infinity in
  for _ = 1 to reps do
    Array.iteri
      (fun i arm ->
        let s = arm.rep () in
        expect arm s;
        cpu.(i) <- cpu.(i) +. s.cpu;
        wall.(i) <- Float.min wall.(i) s.wall)
      arms
  done;
  let rows =
    List.mapi
      (fun i arm ->
        let overhead = (cpu.(i) -. cpu.(0)) /. cpu.(0) in
        let fields =
          (if i = 0 then []
           else [ ("overhead_fraction", Printf.sprintf "%.4f" overhead) ])
          @ arm.check ()
        in
        Printf.printf
          "[overhead] %-7s %.3fs CPU over %d reps, best wall %.3fs%s\n%!"
          arm.name cpu.(i) reps wall.(i)
          (String.concat ""
             (List.map (fun (k, v) -> Printf.sprintf ", %s %s" k v) fields));
        let bound = if smoke then arm.tripwire else 0.03 in
        if i > 0 && overhead > bound then
          fail "%s overhead %.2f%% exceeds the %.0f%% %s" arm.name
            (100. *. overhead) (100. *. bound)
            (if smoke then "smoke tripwire" else "target");
        (arm, cpu.(i), wall.(i), fields))
      (Array.to_list arms)
  in
  print_endline
    "[overhead] per-image (queries, success) bit-identical under every \
     observer";
  if not smoke then begin
    let oc = open_out "BENCH_overhead.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc
          "{\n\
          \  \"workload\": \"Sketch+False on vgg_tiny, %d %dx%d images, cap \
           %d, batch 16, cache on\",\n\
          \  \"nproc\": %d,\n\
          \  \"reps\": %d,\n\
          \  \"total_queries\": %d,\n\
          \  \"results_identical\": true,\n\
          \  \"overhead_target\": 0.03,\n\
          \  \"arms\": [\n"
          n_images image_size image_size max_queries
          (Domain.recommended_domain_count ())
          reps total_queries;
        List.iteri
          (fun i (arm, cpu, wall, fields) ->
            Printf.fprintf oc
              "    {\"name\": %S, \"cpu_seconds\": %.4f, \
               \"best_wall_seconds\": %.4f%s}%s\n"
              arm.name cpu wall
              (String.concat ""
                 (List.map
                    (fun (k, v) -> Printf.sprintf ", %S: %s" k v)
                    fields))
              (if i = List.length rows - 1 then "" else ","))
          rows;
        output_string oc
          "  ],\n\
          \  \"note\": \"arms interleaved rep by rep after one untimed \
           warm-up each, every timed sweep started from a settled heap.  \
           cpu_seconds sums process CPU (every thread) over the reps; \
           overhead_fraction is signed and compares it with the bare arm; \
           best_wall_seconds is context.  The journal opens and finalizes \
           inside the timed region; the trace sink, the 20 Hz sampler and \
           the profiler attach outside it.  Every rep of \
           every arm returns per-image (queries, success) bit-identical to \
           bare.  wall_clock_attributed is the share of a traced+profiled \
           sweep's wall-clock that Evalharness.Traceprof attributes to \
           spans (>= 0.95 asserted).  The observe arm's sampler_samples \
           counts the sampler loop's timed ticks (observations of \
           sampler.tick_jitter_seconds), not the sampler.samples counter\"\n\
           }\n");
    print_endline "[overhead] wrote BENCH_overhead.json"
  end

(* Island-synthesis benchmark (the `synth` mode).

   A/B of PAC early stopping on the island-model synthesizer: the same
   archipelago (same seed, same temperature ladder, same migration
   schedule) run once with exact full-training-set scoring and once with
   PAC candidate pruning.  The cache is OFF in both arms so every query
   is a real forward pass and wall-clock tracks the query counter.

   Determinism is asserted the way the test suite does: the early-stop
   arm is run sequentially and over a 4-domain pool and the two must
   produce bit-identical best programs and query spends.

   --smoke (under `dune runtest`) asserts determinism + that pruning
   fires and saves queries, in seconds.  The full run additionally
   requires the >= 2x wall-clock improvement and writes
   BENCH_synth.json. *)

let bench_synth ~smoke =
  let module Islands = Oppsla.Islands in
  let image_size, n_images, rounds, islands, reps =
    if smoke then (8, 6, 3, 2, 1) else (16, 16, 16, 4, 3)
  in
  (* Cap = the full pair space.  Any feasible image then succeeds under
     every candidate ordering (the pair queue reorders, never drops), so
     no evaluation spend hides in bound-invisible capped failures: a bad
     ordering pays its full, prunable query bill. *)
  let cap = image_size * image_size * 8 in
  (* The workload is the test suite's special-pixel geometry, scaled up:
     a mean-threshold oracle over flat images carrying one off-value
     pixel whose farthest corner is the only mean-flipping pair.  The
     per-image cost of a program is then exactly the position at which
     its queue edits surface that pair — a near-center location costs
     the Sketch+False baseline a handful of queries, while an ordering
     that demotes it pays up to the whole pair space.  That gives a low
     incumbent threshold with heavy-tailed bad proposals, the regime
     PAC early stopping is built for, with no bound-invisible spend. *)
  let oracle () =
    Oracle.of_fn ~name:"mean-threshold" ~num_classes:2 (fun x ->
        let m = Tensor.mean x in
        let z = 40. *. (m -. 0.5) in
        let p1 = 1. /. (1. +. exp (-.z)) in
        Tensor.of_array [| 2 |] [| 1. -. p1; p1 |])
  in
  (* One pixel carries f = 1/d^2 of the mean.  A base of
     (0.5 - 0.25 f) / (1 - f) puts the image mean 0.75 f above the
     threshold, so zeroing the all-ones special pixel (a swing of f) is
     the only single-pixel move that crosses it: ordinary pixels can
     swing the mean by at most ~0.5 f.  [flip] mirrors every value for
     the class-0 twin. *)
  let f = 1. /. float_of_int (image_size * image_size) in
  let b_high = (0.5 -. (0.25 *. f)) /. (1. -. f) in
  let special ~row ~col ~flip =
    let base = if flip then 1. -. b_high else b_high in
    let v = if flip then 0. else 1. in
    let img = Tensor.create [| 3; image_size; image_size |] base in
    for c = 0 to 2 do
      Tensor.set img [| c; row; col |] v
    done;
    (img, if flip then 0 else 1)
  in
  let locations =
    if smoke then [| (3, 4); (4, 2); (2, 3); (5, 4); (2, 2); (5, 5) |]
    else
      [|
        (7, 8); (8, 6); (6, 7); (9, 8); (6, 6); (9, 9); (5, 7); (10, 8);
        (5, 5); (10, 10); (7, 5); (8, 10); (4, 8); (11, 7); (4, 4); (11, 11);
      |]
  in
  let training =
    Array.init n_images (fun i ->
        let row, col = locations.(i mod Array.length locations) in
        special ~row ~col ~flip:(i mod 2 = 1))
  in
  (* Check the bound after every image: with a low threshold one
     demoted flip pair is already enough evidence, so a bad candidate
     dies after its first expensive image instead of the full set. *)
  let pac = { Oppsla.Score.default_pac with min_images = 1; stage = 1 } in
  let config early_stop =
    {
      Islands.default_config with
      Islands.islands;
      rounds;
      migration_period = 2;
      (* Colder-than-default chains: with the default beta the hot
         islands accept sharply worse programs, so their incumbents —
         the pruning thresholds — drift upward and the bound never
         fires.  Cold chains keep thresholds near the best score, which
         is the regime early stopping is built for. *)
      beta = 0.5;
      max_queries_per_image = Some cap;
      (* batch = 1 so wall-clock tracks metered queries: speculative
         batching prepares tensors whose cost depends on speculation
         accuracy, which differs between the two arms. *)
      batch = 1;
      early_stop;
    }
  in
  let run ?pool early_stop =
    Islands.synthesize ~config:(config early_stop) ?pool (Prng.of_int 31)
      (oracle ()) ~training
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let best_of f =
    let out = ref None and dt = ref infinity in
    for _ = 1 to reps do
      let r, d = time f in
      out := Some r;
      if d < !dt then dt := d
    done;
    (Option.get !out, !dt)
  in
  let exact, exact_dt = best_of (fun () -> run None) in
  let es, es_dt = best_of (fun () -> run (Some pac)) in
  (* Replay determinism across domain widths, on the bench workload. *)
  let es_par =
    Domain_pool.Pool.with_pool ~domains:4 (fun pool ->
        run ~pool (Some pac))
  in
  if
    es.Islands.synth_queries <> es_par.Islands.synth_queries
    || es.Islands.best_avg_queries <> es_par.Islands.best_avg_queries
    || (not (Oppsla.Condition.equal_program es.Islands.best es_par.Islands.best))
    || List.length es.Islands.trace <> List.length es_par.Islands.trace
  then
    failwith
      "bench_synth: early-stop synthesis diverged between 1 and 4 domains \
       (the trace must be width-independent)";
  let pruned =
    Array.fold_left
      (fun acc (r : Islands.island_report) -> acc + r.Islands.pruned)
      0 es.Islands.islands
  in
  if pruned = 0 then
    failwith "bench_synth: early stopping never pruned a candidate";
  if es.Islands.synth_queries >= exact.Islands.synth_queries then
    failwith
      (Printf.sprintf
         "bench_synth: early stopping saved no queries (%d >= %d)"
         es.Islands.synth_queries exact.Islands.synth_queries);
  let saved_fraction =
    1.
    -. float_of_int es.Islands.synth_queries
       /. float_of_int exact.Islands.synth_queries
  in
  let speedup = if es_dt > 0. then exact_dt /. es_dt else 1. in
  Printf.printf
    "[synth] %d islands x %d rounds, mean-threshold oracle (%d %dx%d \
     special-pixel images, cap %d, cache off): exact %d queries in %.3fs, \
     early-stop %d queries in %.3fs (%d pruned, %.1f%% queries saved, %.2fx \
     wall-clock)\n%!"
    islands rounds n_images image_size image_size cap
    exact.Islands.synth_queries exact_dt es.Islands.synth_queries es_dt
    pruned (100. *. saved_fraction) speedup;
  print_endline
    "[synth] early-stop trace bit-identical at domain widths 1 and 4";
  if smoke then begin
    (* Pruning and determinism are the smoke tripwires; wall-clock on a
       milliseconds-scale workload is too noisy to gate. *)
    ()
  end
  else begin
    if speedup < 2.0 then
      failwith
        (Printf.sprintf
           "bench_synth: early stopping gave %.2fx wall-clock (target >= 2x)"
           speedup);
    let oc = open_out "BENCH_synth.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc
          "{\n\
          \  \"workload\": \"island synthesis against the mean-threshold \
           oracle, %d islands x %d rounds, %d %dx%d special-pixel images, \
           cap %d, batch 1, cache off\",\n\
          \  \"replay_identical_across_domains\": true,\n\
          \  \"exact_seconds\": %.4f,\n\
          \  \"early_stop_seconds\": %.4f,\n\
          \  \"speedup\": %.4f,\n\
          \  \"speedup_target\": 2.0,\n\
          \  \"exact_queries\": %d,\n\
          \  \"early_stop_queries\": %d,\n\
          \  \"queries_saved_fraction\": %.4f,\n\
          \  \"proposals_pruned\": %d,\n\
          \  \"best_avg_queries_exact\": %.4f,\n\
          \  \"best_avg_queries_early_stop\": %.4f,\n\
          \  \"note\": \"best-of-%d runs per arm; both arms run the same \
           archipelago (seed, temperature ladder, ring migration) with the \
           score cache off and batch 1 so wall-clock tracks metered \
           queries.  Each image's cost is the position at which a program's \
           queue edits surface its unique flipping pair, so bad orderings \
           are heavy-tailed and every query feeds the bound.  The \
           early-stop arm prunes MH proposals via a certified \
           optimistic-completion / Hoeffding lower bound checked after \
           every image of a per-proposal random visiting order, and is \
           asserted bit-identical between sequential and 4-domain \
           evaluation\"\n\
           }\n"
          islands rounds n_images image_size image_size cap exact_dt es_dt
          speedup exact.Islands.synth_queries es.Islands.synth_queries
          saved_fraction pruned exact.Islands.best_avg_queries
          es.Islands.best_avg_queries reps);
    print_endline "[synth] wrote BENCH_synth.json"
  end

(* Bench regression gate (the `regress` mode).

   Snapshot the committed BENCH file contents as baselines, re-run the
   benches that wrote them, then compare what they wrote against the
   snapshots and fail on any regression past the gate's policy.  The
   gate's own self-test (every baseline passes against itself and fails
   against a degraded copy) is `tools/regress.exe --smoke`. *)

let bench_regress () =
  let module R = Evalharness.Regress in
  (* Resolve the registry, not a glob: every registered baseline must be
     committed, and a missing one is a named failure — a bench mode that
     writes a new BENCH file must register it in
     [Evalharness.Regress.registered_baselines] and commit the output. *)
  let committed =
    match R.locate_baselines () with
    | files -> files
    | exception R.Missing_baseline missing ->
        failwith
          ("bench_regress: registered baselines not committed: "
          ^ String.concat ", " missing)
  in
  (* Snapshot the committed baselines before the benches overwrite them
     in place. *)
  let read_all path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (* Key by basename: resolved paths may carry the "../" staging prefix,
     and a key mismatch here used to skip the comparison silently. *)
  let baselines =
    List.map (fun f -> (Filename.basename f, read_all f)) committed
  in
  let rerun =
    [
      ("BENCH_overhead.json", fun () -> bench_overhead ~smoke:false);
      ("BENCH_synth.json", fun () -> bench_synth ~smoke:false);
    ]
  in
  let failures = ref [] in
  List.iter
    (fun (file, run) ->
      match List.assoc_opt file baselines with
      | None ->
          (* Unreachable while [rerun] sticks to registered names —
             [locate_baselines] already failed on anything missing — but
             keep it loud rather than skipping. *)
          failwith
            (Printf.sprintf "bench_regress: %s has no committed baseline" file)
      | Some baseline_text ->
          run ();
          let report =
            R.compare_metrics
              ~baseline:(R.flatten (R.parse_json baseline_text))
              ~fresh:(R.flatten (R.parse_file file))
              ()
          in
          print_string (R.render ~label:(file ^ " vs committed") report);
          if not (R.passed report) then failures := file :: !failures)
    rerun;
  if !failures <> [] then
    failwith
      ("bench_regress: regression vs committed baselines in "
      ^ String.concat ", " (List.rev !failures))

(* Microbenchmarks *)

let micro () =
  let open Bechamel in
  let g = Prng.of_int 99 in
  let image = Tensor.rand_uniform (Prng.split g) [| 3; 16; 16 |] in
  let net = Nn.Zoo.vgg_tiny (Prng.split g) ~image_size:16 ~num_classes:10 in
  let nets =
    List.map
      (fun arch ->
        ( arch,
          (Option.get (Nn.Zoo.by_name arch))
            (Prng.split g) ~image_size:16 ~num_classes:10 ))
      Nn.Zoo.names
  in
  let gen_config = { Oppsla.Gen.d1 = 16; d2 = 16 } in
  let program = Oppsla.Gen.random_program gen_config (Prng.split g) in
  let program_text = Oppsla.Dsl.print_program program in
  let mutate_rng = Prng.split g in
  let ctx =
    {
      Oppsla.Condition.d1 = 16;
      d2 = 16;
      image;
      true_class = 0;
      clean_scores = Nn.Network.scores net image;
      pair =
        Oppsla.Pair.make ~loc:(Oppsla.Location.make ~row:7 ~col:7) ~corner:3;
      perturbed_scores = Nn.Network.scores net image;
    }
  in
  let input_candidate pixels =
    let y = Tensor.copy image in
    for i = 0 to pixels - 1 do
      Tensor.set y [| 0; 1 + (3 * (i / 5)); 1 + (3 * (i mod 5)) |] 0.
    done;
    y
  in
  (* The forward rows' inputs: sixteen one-pixel RGB-corner candidates
     of [image] at spread-out pixels.  Each row scores [image] once
     first, so its plan's input conv holds the clean image as its
     reference and recomputes only the columns a candidate's pixel
     reaches, as it does during an attack. *)
  let pixel_candidates =
    Array.init 16 (fun i ->
        let y = Tensor.copy image in
        for c = 0 to 2 do
          Tensor.set y [| c; i * 5 mod 16; i * 11 mod 16 |]
            (float_of_int ((i lsr c) land 1))
        done;
        y)
  in
  let input_conv_case =
    let weight =
      Tensor_f32.of_tensor
        (Tensor.randn (Prng.copy g) ~sigma:0.2 [| 8; 3; 3; 3 |])
    and bias = Tensor_f32.of_tensor (Tensor.create [| 8 |] 0.1)
    and gamma = Tensor_f32.of_tensor (Tensor.create [| 8 |] 1.)
    and beta = Tensor_f32.of_tensor (Tensor.create [| 8 |] 0.) in
    let conv ?memo x =
      Tensor_f32.conv2d_batch ?memo ~stride:1 ~pad:1 ~weight ~bias
        ~norm:(gamma, beta, 1e-5) ~relu:true x
    in
    let batch x = Tensor_f32.of_tensor (Tensor.reshape x [| 1; 3; 16; 16 |]) in
    (* Each call takes the next of [inputs].  With [~memo] the
       per-domain reference is set to the clean image right before the
       row runs, so the rows cannot disturb each other's reference. *)
    fun name ~memo inputs ->
      let xs = Array.of_list (List.map batch inputs) in
      let i = ref 0 in
      let next () =
        incr i;
        xs.(!i mod Array.length xs)
      in
      if memo then
        let memo = Tensor_f32.conv_memo () in
        Test.make_with_resource ~name Test.uniq
          ~allocate:(fun () -> ignore (conv ~memo (batch image)))
          ~free:ignore
          (Staged.stage (fun () -> ignore (conv ~memo (next ()))))
      else Test.make ~name (Staged.stage (fun () -> ignore (conv (next ()))))
  in
  (* A conv on the full path (no memo) with vgg_tiny's shapes: 3x3,
     pad 1, a fused relu, optionally the fused norm and optionally a
     fused 2x2 stride-2 max-pool. *)
  let layer_conv_case ?max_pool name ~in_c ~size ~out_c ~norm =
    let f32 t = Tensor_f32.of_tensor t in
    let weight =
      f32 (Tensor.randn (Prng.of_int 7) ~sigma:0.2 [| out_c; in_c; 3; 3 |])
    and bias = f32 (Tensor.create [| out_c |] 0.1)
    and x = f32 (Tensor.rand_uniform (Prng.of_int 8) [| 1; in_c; size; size |]) in
    let norm =
      if norm then
        Some
          ( f32 (Tensor.create [| out_c |] 1.),
            f32 (Tensor.create [| out_c |] 0.),
            1e-5 )
      else None
    in
    Test.make ~name
      (Staged.stage (fun () ->
           ignore
             (Tensor_f32.conv2d_batch ~stride:1 ~pad:1 ~weight ~bias ?norm
                ~relu:true ?max_pool x)))
  in
  (* An [m x k] by [k x n] product on fixed random operands: [prepare]
     runs once, when the row is built, and returns the timed call. *)
  let gemm_case name ~m ~k ~n prepare =
    let a = Tensor.randn (Prng.of_int 11) ~sigma:0.2 [| m; k |]
    and b = Tensor.rand_uniform (Prng.of_int 12) [| k; n |] in
    Test.make ~name (Staged.stage (prepare a b))
  in
  (* vgg_tiny's dense head at 16x16: 256 inputs, 10 classes, one image. *)
  let dense_case =
    let f32 t = Tensor_f32.of_tensor t in
    let weight = f32 (Tensor.randn (Prng.of_int 9) ~sigma:0.1 [| 10; 256 |])
    and bias = f32 (Tensor.create [| 10 |] 0.1)
    and x = f32 (Tensor.rand_uniform (Prng.of_int 10) [| 1; 256 |]) in
    Test.make ~name:"dense/f32-256x10"
      (Staged.stage (fun () ->
           ignore (Tensor_f32.dense_batch ~weight ~bias x)))
  in
  let tests =
    [
      Test.make ~name:"queue/full_space-init"
        (Staged.stage (fun () ->
             ignore (Oppsla.Pair_queue.full_space ~d1:16 ~d2:16 ~image)));
      Test.make ~name:"queue/full_space-init+drain"
        (Staged.stage (fun () ->
             let q = Oppsla.Pair_queue.full_space ~d1:16 ~d2:16 ~image in
             while Oppsla.Pair_queue.pop q >= 0 do
               ()
             done));
      (* Ablation (DESIGN.md 5.1): the indexed queue vs the naive list
         reference under the sketch's reordering workload. *)
      Test.make ~name:"queue/indexed-reorder-storm"
        (Staged.stage (fun () ->
             let q = Oppsla.Pair_queue.full_space ~d1:16 ~d2:16 ~image in
             for i = 0 to 499 do
               let li = ((i mod 16) * 16) + (i * 7 mod 16) in
               let id = Oppsla.Pair_queue.first_with_location q li in
               if id >= 0 then Oppsla.Pair_queue.push_back q id
             done));
      Test.make ~name:"queue/naive-reorder-storm"
        (Staged.stage (fun () ->
             let q = Oppsla.Pair_queue_naive.full_space ~d1:16 ~d2:16 ~image in
             for i = 0 to 499 do
               let loc =
                 Oppsla.Location.make ~row:(i mod 16) ~col:(i * 7 mod 16)
               in
               match Oppsla.Pair_queue_naive.first_with_location q loc with
               | Some p -> Oppsla.Pair_queue_naive.push_back q p
               | None -> ()
             done));
      Test.make ~name:"condition/eval-program"
        (Staged.stage (fun () ->
             let b1, b2, b3, b4 = Oppsla.Condition.conditions program in
             ignore (Oppsla.Condition.eval b1 ctx);
             ignore (Oppsla.Condition.eval b2 ctx);
             ignore (Oppsla.Condition.eval b3 ctx);
             ignore (Oppsla.Condition.eval b4 ctx)));
      Test.make ~name:"synthesizer/mutate"
        (Staged.stage (fun () ->
             ignore (Oppsla.Gen.mutate gen_config mutate_rng program)));
      Test.make ~name:"dsl/parse-program"
        (Staged.stage (fun () ->
             ignore (Oppsla.Dsl.parse_program_exn program_text)));
      Test.make ~name:"conv/gemm-3x16x16"
        (Staged.stage
           (let w =
              Tensor.randn (Prng.copy g) ~sigma:0.2 [| 8; 3; 3; 3 |]
            and batch = Tensor.reshape image [| 1; 3; 16; 16 |] in
            fun () ->
              ignore
                (Tensor.conv2d_gemm_batch ~pad:1 batch ~weight:w ~bias:None)));
      (* The GEMM kernel alone, at vgg_tiny's second and third conv
         shapes: 16 output channels over an 8x3x3-row panel of 8x8
         columns (float64, the boxed plan's and training's kernel) and
         over a 16x3x3-row panel of 4x4 columns (float32 weights and
         output, the f32 plan's).  Each call also allocates its output,
         and the f32 row widens its B operand into the float64 panel. *)
      gemm_case "gemm/f64-16x72x64" ~m:16 ~k:72 ~n:64 (fun a b () ->
          ignore (Tensor.matmul a b));
      gemm_case "gemm/f32-16x144x16" ~m:16 ~k:144 ~n:16 (fun a b ->
          let a = Tensor_f32.of_tensor a and b = Tensor_f32.of_tensor b in
          fun () -> ignore (Tensor_f32.matmul a b));
      (* The incremental input conv's cost bound: vgg_tiny's 3->8 input
         conv with fused norm/relu, in full and after the memo holds the
         clean image, for a one-pixel candidate (9 columns) and the
         widest spaced candidate under the bound of an eighth (3 spaced
         pixels, 27 of 256 columns).
         The -full-memo row alternates two unrelated images under the
         memo: each runs in full and becomes the new reference, so it
         times what the memo adds to the full path. *)
      input_conv_case "conv/f32-input-full" ~memo:false [ image ];
      input_conv_case "conv/f32-input-full-memo" ~memo:true
        [
          Tensor.rand_uniform (Prng.split g) [| 3; 16; 16 |];
          Tensor.rand_uniform (Prng.split g) [| 3; 16; 16 |];
        ];
      input_conv_case "conv/f32-input-1px" ~memo:true [ input_candidate 1 ];
      input_conv_case "conv/f32-input-27cols" ~memo:true [ input_candidate 3 ];
      (* vgg_tiny's second conv (8->16 channels at 8x8, fused norm and
         relu) and third (16->16 at 4x4, fused relu): the gather+GEMM
         layers every forward runs in full. *)
      layer_conv_case "conv/f32-8x8x8-16" ~in_c:8 ~size:8 ~out_c:16 ~norm:true;
      (* The same conv as vgg_tiny runs it: the 2x2/2 max-pool after it
         fused into the epilogue. *)
      layer_conv_case "conv/f32-8x8x8-16-pool" ~max_pool:(2, 2) ~in_c:8
        ~size:8 ~out_c:16 ~norm:true;
      layer_conv_case "conv/f32-16x4x4-16" ~in_c:16 ~size:4 ~out_c:16
        ~norm:false;
      dense_case;
      Test.make ~name:"attack/sketch-false-cap256"
        (Staged.stage (fun () ->
             let oracle = Oracle.of_network net in
             ignore
               (Oppsla.Sketch.attack ~max_queries:256 oracle
                  Oppsla.Condition.const_false_program ~image ~true_class:0)));
      (* One attack of [program] over the whole 16x16 space whose every
         key is already in its cache: the attack run when the row is
         built warms it, and the closed-form oracle (class 1 iff the
         image mean exceeds 1/2) cannot be flipped by one pixel of a
         dark image, so every run poses all 2048 queries through the
         interpreter, the batcher's cache path and the metering. *)
      Test.make ~name:"attack/sketch-warm"
        (Staged.stage
           (let oracle =
              Oracle.of_fn ~name:"mean-threshold" ~num_classes:2 (fun x ->
                  let m = Tensor.mean x in
                  Tensor.of_array [| 2 |] [| 1. -. m; m |])
            and dark =
              Tensor.rand_uniform (Prng.of_int 13) ~lo:0.2 ~hi:0.4
                [| 3; 16; 16 |]
            in
            Oracle.set_cache oracle (Some (Score_cache.create ()));
            let attack () =
              ignore
                (Oppsla.Sketch.attack oracle program ~image:dark
                   ~true_class:0)
            in
            attack ();
            attack));
    ]
    @ List.map
        (fun (arch, n) ->
          let plan = Nn.Backend.F32_engine.compile n in
          let forward x =
            ignore
              (Nn.Backend.F32_engine.scores_batch plan
                 (Tensor.reshape x [| 1; 3; 16; 16 |]))
          in
          let i = ref 0 in
          Test.make_with_resource
            ~name:(Printf.sprintf "forward/%s-16x16" arch)
            Test.uniq
            ~allocate:(fun () -> forward image)
            ~free:ignore
            (Staged.stage (fun () ->
                 incr i;
                 forward pixel_candidates.(!i mod 16))))
        nets
  in
  let grouped = Test.make_grouped ~name:"oppsla" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let ns =
          match Analyze.OLS.estimates result with
          | Some [ v ] -> Printf.sprintf "%.0f" v
          | Some _ | None -> "-"
        in
        [ name; ns ] :: acc)
      results []
    |> List.sort compare
  in
  print_endline "Microbenchmarks (monotonic clock)";
  print_endline
    (Evalharness.Report.table ~headers:[ "operation"; "ns/run" ] ~rows)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let dispatch =
    [
      ("micro", micro);
      ("overhead", fun () -> bench_overhead ~smoke);
      ("synth", fun () -> bench_synth ~smoke);
      ("regress", bench_regress);
    ]
  in
  let modes = List.filter (fun a -> a <> "--smoke") args in
  (* Validate every mode before running any: a typo after a
     minutes-long bench must not cost the bench. *)
  let unknown = List.filter (fun m -> not (List.mem_assoc m dispatch)) modes in
  if modes = [] || unknown <> [] then begin
    if unknown <> [] then
      Printf.eprintf "bench: unknown mode %s\n" (String.concat ", " unknown);
    Printf.eprintf "usage: bench MODE [MODE ...] [--smoke]; valid modes: %s\n"
      (String.concat " " (List.map fst dispatch));
    exit 2
  end;
  List.iter (fun mode -> timed mode (List.assoc mode dispatch)) modes
