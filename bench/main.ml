(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation on the synthetic substrate, plus bechamel
   microbenchmarks of the core operations.

   Usage:
     dune exec bench/main.exe                  # everything, full scale
     dune exec bench/main.exe fig3 table2      # selected experiments
     dune exec bench/main.exe -- --quick       # smoke-test scale
     OPPSLA_BENCH_QUICK=1 dune exec bench/main.exe

   Expensive artifacts (trained weights, synthesized programs) are cached
   under _artifacts/, so re-runs only pay for the attack phases.  Paper
   vs. measured numbers are recorded in EXPERIMENTS.md. *)

module Workbench = Evalharness.Workbench
module Experiments = Evalharness.Experiments
module Report = Evalharness.Report

(* Progress lines (training/synthesis chatter) go to stderr as before
   and are mirrored to _artifacts/bench_progress.log for post-hoc
   inspection — never to the repo root.  The sink is opened lazily so
   modes that log nothing create no file, and a read-only tree only
   loses the mirror, not the run. *)
let progress_sink =
  lazy
    (try
       if not (Sys.file_exists "_artifacts") then Sys.mkdir "_artifacts" 0o755;
       Some
         (open_out_gen
            [ Open_wronly; Open_append; Open_creat ]
            0o644
            (Filename.concat "_artifacts" "bench_progress.log"))
     with Sys_error _ -> None)

let progress msg =
  Printf.eprintf "%s\n%!" msg;
  match Lazy.force progress_sink with
  | None -> ()
  | Some oc ->
      output_string oc msg;
      output_char oc '\n';
      flush oc

let timed name f =
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "[%s finished in %.1fs]\n\n%!" name (Unix.gettimeofday () -. t0)

(* Experiments *)

let experiment_config quick =
  let base = { Workbench.default_config with log = progress } in
  if quick then
    { base with Workbench.test_per_class = 4; synth_per_class = 4 }
  else base

let run_experiment quick domains cache name =
  let config = experiment_config quick in
  let scale =
    if quick then Experiments.quick_scale else Experiments.default_scale
  in
  let scale = match domains with None -> scale | Some _ -> { scale with Experiments.domains } in
  let scale =
    {
      scale with
      Experiments.cache;
      synth = { scale.Experiments.synth with Workbench.cache };
      imagenet_synth =
        { scale.Experiments.imagenet_synth with Workbench.cache };
    }
  in
  match name with
  | "fig3" ->
      timed "fig3" (fun () ->
          print_endline (Report.render_fig3 (Experiments.fig3 ~scale config)))
  | "fig3cifar" ->
      timed "fig3cifar" (fun () ->
          print_endline
            (Report.render_fig3 (Experiments.fig3_cifar ~scale config)))
  | "fig3imagenet" ->
      timed "fig3imagenet" (fun () ->
          print_endline
            (Report.render_fig3 (Experiments.fig3_imagenet ~scale config)))
  | "table1" ->
      timed "table1" (fun () ->
          print_endline
            (Report.render_table1 (Experiments.table1 ~scale config)))
  | "fig4" ->
      timed "fig4" (fun () ->
          print_endline (Report.render_fig4 (Experiments.fig4 ~scale config)))
  | "table2" ->
      timed "table2" (fun () ->
          print_endline
            (Report.render_table2 (Experiments.table2 ~scale config)))
  | other -> failwith ("unknown experiment: " ^ other)

(* Beta sweep: how the MH temperature affects synthesis quality
   (DESIGN.md 5.3).  Run explicitly: `dune exec bench/main.exe sweep-beta`. *)

let sweep_beta quick =
  let config = experiment_config quick in
  let c =
    Workbench.load_classifier config Dataset.synth_cifar "vgg_tiny"
  in
  let class_id = 0 in
  let training = c.Workbench.synth_sets.(class_id) in
  let iters = if quick then 3 else 20 in
  let rows =
    Domain_pool.Pool.with_pool @@ fun pool ->
    List.map
      (fun beta ->
        let synth_config =
          {
            Oppsla.Islands.default_config with
            islands = 1;
            beta;
            rounds = iters;
            max_queries_per_image = Some 1024;
          }
        in
        let g =
          Prng.named_stream
            (Prng.of_int config.Workbench.seed)
            (Printf.sprintf "sweep-beta/%g" beta)
        in
        let out =
          Oppsla.Islands.synthesize ~config:synth_config ~pool g
            (Workbench.oracle_factory c ())
            ~training
        in
        let chain = out.Oppsla.Islands.islands.(0) in
        [
          Printf.sprintf "%g" beta;
          Printf.sprintf "%.1f" chain.Oppsla.Islands.final_avg_queries;
          Printf.sprintf "%.1f" chain.Oppsla.Islands.best_avg_queries;
          (* The seed program counts as accepted, as in the trace. *)
          Printf.sprintf "%d/%d"
            (chain.Oppsla.Islands.accepted + 1)
            (iters + 1);
        ])
      [ 0.005; 0.02; 0.08; 0.32 ]
  in
  print_endline
    (Printf.sprintf
       "Beta sweep - MH temperature (vgg_tiny, class %d, %d iterations)"
       class_id iters);
  print_endline
    (Report.table
       ~headers:[ "beta"; "final avg #q"; "best avg #q"; "accepted" ]
       ~rows)

(* Parallel-evaluation smoke benchmark.

   Measures MH-evaluation throughput (images/sec while scoring a program
   on a batch, the synthesis hot path) sequentially and over persistent
   pools of 1/2/4/auto domains, asserts that every configuration returns
   bit-identical query accounting (the paper's cost model), and records
   the numbers in BENCH_parallel.json. *)

let bench_parallel quick =
  let module Score = Oppsla.Score in
  let config = experiment_config quick in
  let c = Workbench.load_classifier config Dataset.synth_cifar "vgg_tiny" in
  let samples = c.Workbench.test in
  if Array.length samples = 0 then failwith "bench_parallel: no test images";
  let max_queries = if quick then 128 else 256 in
  let reps = if quick then 2 else 3 in
  let gen_config =
    Oppsla.Gen.config_for_image (fst samples.(0))
  in
  (* One synthesized-shape program and the Sketch+False floor: together
     they bracket the evaluator's per-image cost range. *)
  let programs =
    [
      ("random", Oppsla.Gen.random_program gen_config (Prng.of_int 7));
      ("sketch_false", Oppsla.Condition.const_false_program);
    ]
  in
  let oracle () = Workbench.oracle_factory c () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let check_identical name (a : Score.evaluation) (b : Score.evaluation) =
    if
      a.Score.avg_queries <> b.Score.avg_queries
      || a.Score.total_queries <> b.Score.total_queries
      || a.Score.successes <> b.Score.successes
      || a.Score.per_image <> b.Score.per_image
    then
      failwith
        (Printf.sprintf
           "bench_parallel: %s diverged from the sequential evaluator" name)
  in
  let results = ref [] in
  List.iter
    (fun (pname, program) ->
      let reference = ref None in
      let measure name f =
        (* Warm run for caches, then the timed repetitions; every run's
           evaluation is checked against the sequential reference. *)
        let e0 = f () in
        (match !reference with
        | None -> reference := Some e0
        | Some r -> check_identical name e0 r);
        let (e, dt_total) =
          time (fun () ->
              let last = ref e0 in
              for _ = 1 to reps do
                last := f ()
              done;
              !last)
        in
        check_identical name e (Option.get !reference);
        let dt = dt_total /. float_of_int reps in
        let ips = float_of_int (Array.length samples) /. dt in
        Printf.printf "[parallel] %-12s %-14s %6.2fs/eval  %7.1f images/s\n%!"
          pname name dt ips;
        results := (pname, name, dt, ips) :: !results
      in
      measure "sequential" (fun () ->
          Score.evaluate ~max_queries (oracle ()) program samples);
      List.iter
        (fun domains ->
          Domain_pool.Pool.with_pool ~domains (fun pool ->
              measure
                (Printf.sprintf "pool-%d" domains)
                (fun () ->
                  Score.evaluate ~max_queries ~pool (oracle ()) program
                    samples);
              print_endline
                (Report.render_telemetry
                   ~pool:(Domain_pool.Pool.stats pool) ())))
        [ 1; 2; 4; Domain_pool.domain_count () ])
    programs;
  (* Record the runs: speedup is relative to the same program's
     sequential time. *)
  let results = List.rev !results in
  let seq_time pname =
    List.find_map
      (fun (p, n, dt, _) -> if p = pname && n = "sequential" then Some dt else None)
      results
  in
  let oc = open_out "BENCH_parallel.json" in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n  \"workload\": \"Score.evaluate on vgg_tiny, %d images, cap \
         %d\",\n  \"hardware_domains\": %d,\n  \"query_counts_identical\": \
         true,\n  \"note\": \"pool-N wall-clock speedup is bounded by \
         hardware_domains (on a 1-core host the pool can only add \
         contention); the asserted invariant is that query accounting is \
         bit-identical at every width\",\n  \"runs\": [\n"
        (Array.length samples) max_queries
        (Domain.recommended_domain_count ());
      let n = List.length results in
      List.iteri
        (fun i (pname, name, dt, ips) ->
          let speedup =
            match seq_time pname with
            | Some s when dt > 0. -> s /. dt
            | _ -> 1.
          in
          Printf.fprintf oc
            "    {\"program\": %S, \"evaluator\": %S, \"seconds_per_eval\": \
             %.4f, \"images_per_sec\": %.1f, \"speedup_vs_sequential\": \
             %.2f}%s\n"
            pname name dt ips speedup
            (if i = n - 1 then "" else ","))
        results;
      output_string oc "  ]\n}\n");
  print_endline "[parallel] wrote BENCH_parallel.json (query counts identical)"

(* Score-cache benchmark.

   Replays a synthesis-shaped workload — a chain of mutated programs
   evaluated on the same images — with and without the per-image score
   cache, asserts the two runs are bit-identical (the cache's defining
   invariant: metering sits above it), and records wall-clock plus cache
   counters in BENCH_cache.json.  Unlike the domain-pool speedup this one
   does not depend on core count: a hit skips a network forward pass
   outright.

   --smoke runs a seconds-scale version on a throwaway network (no
   classifier training, no file writes) and is wired into `dune runtest`
   as a regression tripwire for the identity invariant. *)

let bench_cache ?(smoke = false) quick =
  let module Score = Oppsla.Score in
  let check_identical name (a : Score.evaluation) (b : Score.evaluation) =
    if
      a.Score.avg_queries <> b.Score.avg_queries
      || a.Score.total_queries <> b.Score.total_queries
      || a.Score.successes <> b.Score.successes
      || a.Score.per_image <> b.Score.per_image
    then
      failwith
        (Printf.sprintf "bench_cache: %s diverged between cache on and off"
           name)
  in
  (* A synthesis-shaped program chain: each program is a mutation of the
     previous one, so successive evaluations re-pose mostly the same
     perturbation queries — the workload the cache exists for. *)
  let program_chain gen_config g n =
    let rec grow acc p i =
      if i = n then List.rev acc
      else
        let p' = Oppsla.Gen.mutate gen_config g p in
        grow (p' :: acc) p' (i + 1)
    in
    let p0 = Oppsla.Gen.random_program gen_config g in
    grow [ p0 ] p0 1
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let run ~name ~max_queries ~programs ~samples oracle =
    let n = Array.length samples in
    let evaluate caches program =
      Score.evaluate ~max_queries ?caches (oracle ()) program samples
    in
    let uncached, uncached_dt =
      time (fun () -> List.map (evaluate None) programs)
    in
    let (store, cached), cached_dt =
      time (fun () ->
          let store = Score_cache.store n in
          (store, List.map (evaluate (Some store)) programs))
    in
    List.iteri
      (fun i (a, b) -> check_identical (Printf.sprintf "%s program %d" name i) a b)
      (List.combine uncached cached);
    let stats = Score_cache.store_stats store in
    if stats.Score_cache.hits = 0 then
      failwith "bench_cache: expected cache hits on a mutation chain";
    let speedup = if cached_dt > 0. then uncached_dt /. cached_dt else 1. in
    Printf.printf
      "[cache] %-8s %d programs x %d images: %.2fs uncached, %.2fs cached \
       (%.2fx)\n%!"
      name (List.length programs) n uncached_dt cached_dt speedup;
    print_endline (Report.render_telemetry ~cache:stats ());
    (uncached_dt, cached_dt, speedup, stats)
  in
  if smoke then begin
    (* Throwaway network, random images labeled with their own prediction
       so every attack does real search work. *)
    let g = Prng.of_int 11 in
    let net = Nn.Zoo.vgg_tiny (Prng.split g) ~image_size:8 ~num_classes:4 in
    let samples =
      Array.init 3 (fun _ ->
          let image = Tensor.rand_uniform (Prng.split g) [| 3; 8; 8 |] in
          (image, Nn.Network.classify net image))
    in
    let gen_config = Oppsla.Gen.config_for_image (fst samples.(0)) in
    let programs = program_chain gen_config (Prng.split g) 4 in
    ignore
      (run ~name:"smoke" ~max_queries:64 ~programs ~samples (fun () ->
           Oracle.of_network net));
    print_endline "[cache] smoke: cache on/off evaluations bit-identical"
  end
  else begin
    let config = experiment_config quick in
    let c = Workbench.load_classifier config Dataset.synth_cifar "vgg_tiny" in
    let samples = c.Workbench.test in
    if Array.length samples = 0 then failwith "bench_cache: no test images";
    let max_queries = if quick then 128 else 256 in
    let n_programs = if quick then 4 else 8 in
    let gen_config = Oppsla.Gen.config_for_image (fst samples.(0)) in
    let programs = program_chain gen_config (Prng.of_int 7) n_programs in
    let uncached_dt, cached_dt, speedup, stats =
      run ~name:"chain" ~max_queries ~programs ~samples (fun () ->
          Workbench.oracle_factory c ())
    in
    let hit_rate =
      Option.value ~default:0. (Score_cache.hit_rate stats)
    in
    let oc = open_out "BENCH_cache.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc
          "{\n\
          \  \"workload\": \"%d-program mutation chain on vgg_tiny, %d \
           images, cap %d\",\n\
          \  \"query_counts_identical\": true,\n\
          \  \"uncached_seconds\": %.4f,\n\
          \  \"cached_seconds\": %.4f,\n\
          \  \"speedup\": %.2f,\n\
          \  \"cache\": {\"hits\": %d, \"misses\": %d, \"hit_rate\": %.4f, \
           \"entries\": %d, \"evictions\": %d, \"bytes\": %d},\n\
          \  \"note\": \"a hit skips one network forward pass, so the \
           speedup tracks the hit rate and is core-count independent; \
           metering sits above the cache, so the asserted invariant is \
           that evaluations are bit-identical with the cache on and \
           off\"\n\
           }\n"
          n_programs (Array.length samples) max_queries uncached_dt cached_dt
          speedup stats.Score_cache.hits stats.Score_cache.misses hit_rate
          stats.Score_cache.entries stats.Score_cache.evictions
          stats.Score_cache.bytes);
    print_endline "[cache] wrote BENCH_cache.json (evaluations identical)"
  end

(* Batched-inference benchmark.

   Pits the per-candidate direct-convolution path (Network.scores, the
   Layer.forward reference, batch width 1) against the compiled plan
   posing speculative candidate chunks (Batcher widths 1/4/16), with the
   score cache on and off, on a Sketch+False attack workload.  Every
   combination must produce bit-identical per-image query counts — the
   speculative-batching invariant — and the batched-uncached engine must
   beat the sequential-uncached baseline by at least 2x wall-clock.
   Results go to BENCH_batch.json.

   --smoke runs a seconds-scale version (tiny network, no file writes,
   no speedup assertion — timing is not trustworthy on loaded CI hosts)
   and is wired into `dune runtest` as a regression tripwire for the
   identity invariant. *)

let bench_batch ?(smoke = false) quick =
  ignore quick;
  let g = Prng.of_int 13 in
  let image_size, n_images, num_classes, max_queries, reps =
    if smoke then (8, 2, 4, 48, 1) else (16, 4, 10, 640, 5)
  in
  let net =
    if smoke then Nn.Zoo.vgg_tiny (Prng.split g) ~image_size ~num_classes
    else begin
      (* Conv-dominated VGG-style stack (16/32/32 channels): the paper's
         targets (VGG-16, ResNet-50) spend nearly all inference time in
         convolutions, so the bench workload should too.  The zoo's tiny
         nets are deliberately skinny for test speed, which makes their
         per-plane norm/relu/pool overhead — identical under batching —
         an outsized share of the forward. *)
      let pg = Prng.split g in
      Nn.Network.create ~name:"vgg_bench"
        ~input_shape:[| 3; image_size; image_size |] ~num_classes
        [
          Nn.Layer.conv2d pg ~pad:1 ~in_c:3 ~out_c:16 ~k:3 ();
          Nn.Layer.channel_norm ~channels:16;
          Nn.Layer.relu ();
          Nn.Layer.max_pool ~size:2 ();
          Nn.Layer.conv2d pg ~pad:1 ~in_c:16 ~out_c:32 ~k:3 ();
          Nn.Layer.channel_norm ~channels:32;
          Nn.Layer.relu ();
          Nn.Layer.max_pool ~size:2 ();
          Nn.Layer.conv2d pg ~pad:1 ~in_c:32 ~out_c:32 ~k:3 ();
          Nn.Layer.relu ();
          Nn.Layer.flatten ();
          Nn.Layer.dense pg
            ~in_dim:(32 * (image_size / 4) * (image_size / 4))
            ~out_dim:num_classes ();
        ]
    end
  in
  (* Random images labeled with the network's own prediction, attacked
     toward the network's LEAST likely class: one-pixel targeted flips to
     the bottom class essentially never exist, so every attack streams
     queries up to the cap — a sustained, identical workload for every
     engine configuration. *)
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
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* One attack sweep over all images; returns per-image query counts —
     the accounting that must not depend on the engine or the width. *)
  let sweep ~oracle ~batch ~cache () =
    Array.map
      (fun (image, true_class, target) ->
        let cache = if cache then Some (Score_cache.create ()) else None in
        let r =
          Oppsla.Sketch.attack ~max_queries ~goal:(Oppsla.Sketch.Targeted target)
            ?cache ~batch (oracle ())
            Oppsla.Condition.const_false_program ~image ~true_class
        in
        r.Oppsla.Sketch.queries)
      samples
  in
  let direct_oracle () =
    (* No batch_fn: one direct-convolution forward per candidate even
       when the batcher poses a chunk. *)
    Oracle.of_fn ~name:"vgg_tiny-direct" ~num_classes (fun x ->
        Nn.Network.scores net x)
  in
  let engine_oracle () = Oracle.of_network net in
  let measure name ~oracle ~batch ~cache =
    let counts = sweep ~oracle ~batch ~cache () in
    Batcher.reset_global_stats ();
    (* Best-of-[reps]: the minimum is the standard noise-robust estimator
       for a deterministic workload (anything slower is interference). *)
    let dt = ref infinity in
    for _ = 1 to reps do
      let (_ : int array), dt_rep = time (sweep ~oracle ~batch ~cache) in
      if dt_rep < !dt then dt := dt_rep
    done;
    let bstats = Batcher.global_stats () in
    let dt = !dt in
    Printf.printf
      "[batch] %-24s %8.3fs/sweep  (queries: %s; %d chunks, %d prepared, \
       %d hits, %d discarded)\n%!"
      name dt
      (String.concat ","
         (Array.to_list (Array.map string_of_int counts)))
      bstats.Batcher.batches bstats.Batcher.prepared
      bstats.Batcher.buffer_hits bstats.Batcher.discarded;
    (name, counts, dt, bstats)
  in
  let runs =
    measure "direct-sequential" ~oracle:direct_oracle ~batch:1 ~cache:false
    :: List.concat_map
         (fun batch ->
           List.map
             (fun cache ->
               measure
                 (Printf.sprintf "gemm-b%d-cache-%s" batch
                    (if cache then "on" else "off"))
                 ~oracle:engine_oracle ~batch ~cache)
             [ false; true ])
         [ 1; 4; 16 ]
  in
  let _, reference, _, _ = List.hd runs in
  List.iter
    (fun (name, counts, _, _) ->
      if counts <> reference then
        failwith
          (Printf.sprintf
             "bench_batch: %s changed the per-image query counts" name))
    runs;
  let seconds_of name =
    let _, _, dt, _ = List.find (fun (n, _, _, _) -> n = name) runs in
    dt
  in
  let seq_dt = seconds_of "direct-sequential" in
  let batched_dt = seconds_of "gemm-b16-cache-off" in
  let speedup = if batched_dt > 0. then seq_dt /. batched_dt else 1. in
  Printf.printf
    "[batch] query counts identical across engines, widths and caches\n";
  Printf.printf "[batch] batched-uncached speedup vs sequential-uncached: \
                 %.2fx\n%!"
    speedup;
  if smoke then
    print_endline
      "[batch] smoke: sequential/batched attacks bit-identical at widths \
       1/4/16, cache on/off"
  else begin
    if speedup < 2. then
      failwith
        (Printf.sprintf
           "bench_batch: expected >= 2x batched speedup, measured %.2fx"
           speedup);
    let oc = open_out "BENCH_batch.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc
          "{\n\
          \  \"workload\": \"Sketch+False on a throwaway conv-dominated \
           VGG-style net (16/32/32 channels), %d %dx%d images, cap %d\",\n\
          \  \"query_counts_identical\": true,\n\
          \  \"speedup_batched_vs_sequential\": %.2f,\n\
          \  \"note\": \"direct-sequential is the per-candidate \
           direct-convolution path (Network.scores); gemm-bN rows run the \
           compiled boxed plan (im2col+GEMM) with speculative candidate \
           chunks of width N.  Metering happens at consumption, so \
           per-image query counts are asserted bit-identical across every \
           row\",\n\
          \  \"runs\": [\n"
          n_images image_size image_size max_queries speedup;
        let n = List.length runs in
        List.iteri
          (fun i (name, counts, dt, (bstats : Batcher.stats)) ->
            Printf.fprintf oc
              "    {\"name\": %S, \"seconds_per_sweep\": %.4f, \
               \"speedup_vs_sequential\": %.2f, \"total_queries\": %d, \
               \"chunks\": %d, \"prepared\": %d, \"buffer_hits\": %d, \
               \"discarded\": %d}%s\n"
              name dt
              (if dt > 0. then seq_dt /. dt else 1.)
              (Array.fold_left ( + ) 0 counts)
              bstats.Batcher.batches bstats.Batcher.prepared
              bstats.Batcher.buffer_hits bstats.Batcher.discarded
              (if i = n - 1 then "" else ","))
          runs;
        output_string oc "  ]\n}\n");
    print_endline "[batch] wrote BENCH_batch.json (query counts identical)"
  end

(* Observer-overhead benchmark (the `overhead` mode).

   The paper's cost model is queries per image, so every observer must
   stay off the query-accounting path and its cost must be measured.
   One workload — batched Sketch+False attacks on vgg_tiny, each image
   labeled with the net's own prediction and attacked toward its least
   likely class, so every attack streams queries to the cap — runs bare
   and under each observer: the trace sink, the live observatory
   (/metrics server + 20 Hz sampler with JSONL snapshots), the
   query-provenance journal and the Runtime_events profiler.

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
   both per sweep); the trace sink, the profiler and the server+sampler
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
  if
    Telemetry.Trace.current_path () <> None
    || Telemetry.Journal.enabled ()
    || Telemetry.Profiler.running ()
  then
    failwith
      "bench_overhead: an ambient --trace, --journal or --profile sink is \
       active (drop it: each arm attaches its own observer)";
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
        let r =
          Oppsla.Sketch.attack ~max_queries
            ~goal:(Oppsla.Sketch.Targeted target)
            ~cache:(Score_cache.create ()) ~batch:16 (Oracle.of_network net)
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
    let m_samples = Telemetry.Metrics.counter "sampler.samples" in
    let samples_before = Telemetry.Counter.get m_samples in
    let scrape = ref ((0, ""), (0, "")) in
    {
      name = "observe";
      rep =
        (fun () ->
          let server =
            Telemetry.Http_server.start ~stall_after_s:60. ~port:0 ()
          in
          let sampler =
            Telemetry.Sampler.start
              {
                Telemetry.Sampler.interval_s = 0.05;
                snapshot_path = Some snapshot;
                stall_after_s = 60.;
                abort_on_stall = false;
              }
          in
          Fun.protect
            ~finally:(fun () ->
              Telemetry.Sampler.stop sampler;
              Telemetry.Http_server.stop server)
            (fun () ->
              let s = time sweep in
              (* Scrape while the server is live, the way an operator would. *)
              let port = Telemetry.Http_server.port server in
              scrape :=
                ( Telemetry.Http_server.fetch ~port "/metrics",
                  Telemetry.Http_server.fetch ~port "/healthz" );
              s));
      check =
        (fun () ->
          let (m_status, metrics), healthz = !scrape in
          if m_status <> 200 then fail "GET /metrics returned %d" m_status;
          if
            not
              (contains_sub ~sub:"# TYPE oracle_queries_total counter" metrics)
          then fail "/metrics is missing oracle_queries_total";
          if
            not
              (contains_sub
                 ~sub:"attack_queries_to_success_bucket{le=\"+Inf\"}" metrics)
          then fail "/metrics is missing histogram +Inf buckets";
          (match healthz with
          | 200, body when contains_sub ~sub:"\"status\": \"ok\"" body -> ()
          | status, body ->
              fail "/healthz said %d %s" status (String.trim body));
          let ticks = Telemetry.Counter.get m_samples - samples_before in
          if ticks <= 0 then fail "the sampler never sampled";
          let lines = List.length (read_lines snapshot) in
          Sys.remove snapshot;
          if lines <= 0 then fail "the snapshot file got no JSONL lines";
          [
            ("sampler_samples", string_of_int ticks);
            ("snapshot_lines", string_of_int lines);
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
           inside the timed region; the trace sink, the /metrics server + \
           20 Hz sampler and the profiler attach outside it.  Every rep of \
           every arm returns per-image (queries, success) bit-identical to \
           bare.  wall_clock_attributed is the share of a traced+profiled \
           sweep's wall-clock that Evalharness.Traceprof attributes to \
           spans (>= 0.95 asserted)\"\n\
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

let bench_synth ?(smoke = false) quick =
  ignore quick;
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

(* Scenario benchmark (the `scenarios` mode).

   Decision-based (label-only) oracles and the k-pixel / patch
   perturbation spaces, on a deterministic mean-threshold corpus built
   so exactly one of the eight RGB corners (all-ones) flips any single
   pixel: every location is equally good and only the corner choice
   matters, which isolates the one structural edge a decision-based
   Sparse-RS keeps over blind sampling — its exploit step resamples the
   current pixel's corner {e without repeating it} (7 candidates, one a
   winner) where the uniform baseline redraws from all 8.  Attacks are
   driven through named per-image PRNG streams, so every number here is
   deterministic.

   --smoke (under `dune runtest`) asserts that the decision-mode
   Sparse-RS attack beats the uniform random baseline's total query
   count over the corpus, and that every space x oracle-mode sweep
   produces bit-identical per-image (queries, success) records at batch
   widths 1 and 16.  The full run measures the same on a larger corpus
   and writes BENCH_scenarios.json: decision vs score query counts for
   Sparse-RS (the measured decision-mode overhead), k = 1/2 pixel and
   2x2 patch sweeps, and the random-baseline comparison. *)

let bench_scenarios ?(smoke = false) quick =
  ignore quick;
  let module Sparse_rs = Baselines.Sparse_rs in
  let module Space = Oppsla.Space in
  let size, n_images, sweep_images, cap =
    if smoke then (8, 8000, 12, 64) else (16, 8000, 24, 128)
  in
  let num_classes = 2 in
  let oracle () =
    Oracle.of_fn ~name:"mean-threshold" ~num_classes (fun x ->
        let m = Tensor.mean x in
        let p1 = 1. /. (1. +. exp (-.(40. *. (m -. 0.5)))) in
        Tensor.of_array [| 2 |] [| 1. -. p1; p1 |])
  in
  (* v = 0.5 - 0.3/d^2: setting one pixel to the all-ones corner moves
     the mean by 0.5/d^2 (a flip), to any other corner by at most
     0.167/d^2 (no flip). *)
  let v = 0.5 -. (0.3 /. float_of_int (size * size)) in
  let image = Tensor.create [| 3; size; size |] v in
  let true_class = 0 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let g0 = Prng.of_int 41 in
  (* The decision-based floor: redraw a (location, corner) pair
     uniformly with replacement until the label flips.  Label-only by
     construction — it consults nothing but the observed one-hot. *)
  let random_baseline g o =
    Oracle.set_mode o Oracle.Decision;
    let config = Oppsla.Gen.config_for_image image in
    let rec go q =
      if q >= cap then (false, q)
      else
        let pair = Oppsla.Gen.random_pair config g in
        let s =
          Oracle.observe o (Oracle.scores o (Oppsla.Sketch.perturb image pair))
        in
        if Tensor.argmax s <> true_class then (true, q + 1) else go (q + 1)
    in
    go 0
  in
  let decision_attack g o =
    Oracle.set_mode o Oracle.Decision;
    let config =
      {
        (Sparse_rs.default_config ~max_queries:cap) with
        Sparse_rs.min_explore = 0.0;
      }
    in
    let r = Sparse_rs.attack ~config g o ~image ~true_class in
    (r.Oppsla.Sketch.adversarial <> None, r.Oppsla.Sketch.queries)
  in
  let total name f =
    let succ = ref 0 and queries = ref 0 in
    let (), dt =
      time (fun () ->
          for i = 0 to n_images - 1 do
            let g =
              Prng.named_stream (Prng.copy g0)
                (Printf.sprintf "%s/%d" name i)
            in
            let ok, q = f g (oracle ()) in
            if ok then incr succ;
            queries := !queries + q
          done)
    in
    (!succ, !queries, dt)
  in
  let rnd_succ, rnd_q, rnd_dt = total "scenarios/random" random_baseline in
  let srs_succ, srs_q, srs_dt = total "scenarios/sparse-rs" decision_attack in
  Printf.printf
    "[scenarios] label-only, %d flat %dx%d images, cap %d: uniform random \
     %d queries (%d/%d flipped, %.3fs), decision Sparse-RS %d queries \
     (%d/%d flipped, %.3fs)\n%!"
    n_images size size cap rnd_q rnd_succ n_images rnd_dt srs_q srs_succ
    n_images srs_dt;
  if srs_q >= rnd_q then
    failwith
      (Printf.sprintf
         "bench_scenarios: decision Sparse-RS (%d queries) did not beat the \
          uniform random baseline (%d queries)"
         srs_q rnd_q);
  (* Space x oracle-mode sweeps: per-image (queries, success) records
     must be bit-identical at batch widths 1 and 16 — the
     speculative-batching invariant, per scenario cell. *)
  let spaces = [ Space.Pixel; Space.Kpixel 2; Space.Patch { h = 2; w = 2 } ] in
  let modes = [ (Oracle.Score, "score"); (Oracle.Decision, "decision") ] in
  let sweep_results =
    List.concat_map
      (fun space ->
        List.map
          (fun (mode, mode_name) ->
            let run batch =
              Array.init sweep_images (fun i ->
                  let o = oracle () in
                  Oracle.set_mode o mode;
                  let g =
                    Prng.named_stream (Prng.copy g0)
                      (Printf.sprintf "scenarios/sweep/%s/%s/%d"
                         (Space.to_string space) mode_name i)
                  in
                  let r =
                    Sparse_rs.attack_space
                      ~config:(Sparse_rs.default_config ~max_queries:cap)
                      ~batch ~space g o ~image ~true_class
                  in
                  (r.Sparse_rs.queries, r.Sparse_rs.adversarial <> None))
            in
            let r1, dt = time (fun () -> run 1) in
            if r1 <> run 16 then
              failwith
                (Printf.sprintf
                   "bench_scenarios: %s/%s diverged between batch widths 1 \
                    and 16"
                   (Space.to_string space) mode_name);
            let queries = Array.fold_left (fun a (q, _) -> a + q) 0 r1 in
            let succ =
              Array.fold_left (fun a (_, ok) -> a + Bool.to_int ok) 0 r1
            in
            (Space.to_string space, mode_name, queries, succ, dt))
          modes)
      spaces
  in
  List.iter
    (fun (s, m, q, ok, dt) ->
      Printf.printf
        "[scenarios] %-9s %-8s %6d queries, %2d/%d flipped (%.3fs)\n%!" s m q
        ok sweep_images dt)
    sweep_results;
  print_endline
    "[scenarios] per-image query counts bit-identical at batch widths 1/16 \
     for every space x oracle cell";
  if smoke then
    print_endline
      "[scenarios] smoke: decision Sparse-RS beat the uniform random \
       baseline"
  else begin
    let ips = if srs_dt > 0. then float_of_int n_images /. srs_dt else 0. in
    let oc = open_out "BENCH_scenarios.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc
          "{\n\
          \  \"workload\": \"Sparse-RS scenario matrix on the \
           mean-threshold corpus, %d flat %dx%d images (only the all-ones \
           corner flips), cap %d\",\n\
          \  \"query_counts_identical\": true,\n\
          \  \"random_baseline_queries\": %d,\n\
          \  \"decision_sparse_rs_queries\": %d,\n\
          \  \"decision_beats_random\": true,\n\
          \  \"random_baseline_seconds\": %.4f,\n\
          \  \"decision_sparse_rs_seconds\": %.4f,\n\
          \  \"decision_images_per_sec\": %.1f,\n\
          \  \"sweeps\": [\n"
          n_images size size cap rnd_q srs_q rnd_dt srs_dt ips;
        let n = List.length sweep_results in
        List.iteri
          (fun i (s, m, q, ok, dt) ->
            Printf.fprintf oc
              "    {\"space\": %S, \"oracle\": %S, \"total_queries\": %d, \
               \"successes\": %d, \"sweep_seconds\": %.4f}%s\n"
              s m q ok dt
              (if i = n - 1 then "" else ","))
          sweep_results;
        output_string oc
          "  ],\n\
          \  \"note\": \"all attacks run through named per-image PRNG \
           streams, so query counts are deterministic; per-image records \
           are asserted bit-identical at batch widths 1 and 16 for every \
           space x oracle cell.  Decision mode collapses observations to \
           one-hot labels without touching metering, so the decision vs \
           score query gap measures what the richer observation buys the \
           search, not a different accounting\"\n\
           }\n");
    print_endline "[scenarios] wrote BENCH_scenarios.json"
  end

(* Tensor-backend benchmark (the `backend` mode).

   Boxed (float64 layer-engine) vs f32 (flat float32 Bigarray plan with
   blocked GEMM, fused conv epilogues and pool row-panel dispatch) on a
   conv-dominated workload shaped to be memory-bound: at 32x32 with
   32-channel convs the im2col patch matrix is 2.25 MB in float64 —
   past this host's L2 — and 1.1 MB in float32.

   Two kinds of measurement, both over the same deterministic corpus:

   - raw forward throughput (images/s) of the boxed plan
     (Nn.Backend.Boxed_engine) vs the f32 plan, at batch widths 1 and
     16, domains 1 and 4 (f32 dispatches GEMM row panels on the pool;
     boxed ignores it) — the ≥1.5x acceptance gate lives here;
   - full attack sweeps through metered oracles on each backend,
     asserting the invariant that makes the backend swappable: per-image
     query counts and success flags are bit-identical across backends at
     every batch width, argmax agrees on 100% of a probe batch, and
     per-score deviation stays within Nn.Backend.score_tol.

   Also asserted: the f32 engine's pool-dispatched scores are
   bit-identical to its inline scores (per-element accumulation order is
   panelling-independent), and the compiled plan actually fused conv
   epilogues (fusion_hits > 0).

   --smoke (under `dune runtest`) runs the identity assertions on a
   seconds-scale workload and skips the timing gate (shared CI hosts);
   full mode writes BENCH_backend.json for the regression gate. *)

let bench_backend ?(smoke = false) quick =
  ignore quick;
  let module Backend = Nn.Backend in
  let module F32 = Nn.Backend.F32_engine in
  let g = Prng.of_int 23 in
  let image_size, width, n_images, num_classes, max_queries, reps, fwd_reps =
    if smoke then (8, 8, 2, 4, 48, 1, 2) else (32, 32, 4, 10, 640, 5, 30)
  in
  let net =
    let pg = Prng.split g in
    Nn.Network.create ~name:"backend_bench"
      ~input_shape:[| 3; image_size; image_size |] ~num_classes
      [
        Nn.Layer.conv2d pg ~pad:1 ~in_c:3 ~out_c:width ~k:3 ();
        Nn.Layer.channel_norm ~channels:width;
        Nn.Layer.relu ();
        Nn.Layer.conv2d pg ~pad:1 ~in_c:width ~out_c:width ~k:3 ();
        Nn.Layer.channel_norm ~channels:width;
        Nn.Layer.relu ();
        Nn.Layer.max_pool ~size:2 ();
        Nn.Layer.conv2d pg ~pad:1 ~in_c:width ~out_c:width ~k:3 ();
        Nn.Layer.relu ();
        Nn.Layer.max_pool ~size:2 ();
        Nn.Layer.flatten ();
        Nn.Layer.dense pg
          ~in_dim:(width * (image_size / 4) * (image_size / 4))
          ~out_dim:num_classes ();
      ]
  in
  let plan = F32.compile net in
  let boxed_plan = Backend.Boxed_engine.compile net in
  let clean =
    Array.init n_images (fun _ ->
        Tensor.rand_uniform (Prng.split g) [| 3; image_size; image_size |])
  in
  let pack xs =
    let n = Array.length xs in
    let per = Tensor.numel xs.(0) in
    let xb = Tensor.zeros [| n; 3; image_size; image_size |] in
    Array.iteri
      (fun i x -> Array.blit x.Tensor.data 0 xb.Tensor.data (i * per) per)
      xs;
    xb
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Probe batch: every clean image plus four one-pixel corner
     perturbations of each — the kind of input attack queries pose. *)
  let probes =
    Array.concat
      (List.map
         (fun x ->
           Array.append [| x |]
             (Array.init 4 (fun j ->
                  let y = Tensor.init (Tensor.shape x) (Tensor.get_flat x) in
                  let plane = image_size * image_size in
                  let pos = (j * 131) mod plane in
                  for c = 0 to 2 do
                    Tensor.set_flat y ((c * plane) + pos)
                      (if (j + c) land 1 = 0 then 1. else 0.)
                  done;
                  y))
         )
         (Array.to_list clean))
  in
  let pb = pack probes in
  let sb = Backend.Boxed_engine.scores_batch boxed_plan pb in
  let sf = F32.scores_batch plan pb in
  let np = Tensor.dim sb 0 and classes = Tensor.dim sb 1 in
  let argmax t row =
    let best = ref 0 in
    for c = 1 to classes - 1 do
      if
        Tensor.get_flat t ((row * classes) + c)
        > Tensor.get_flat t ((row * classes) + !best)
      then best := c
    done;
    !best
  in
  let agree = ref 0 and max_delta = ref 0. in
  for i = 0 to np - 1 do
    if argmax sb i = argmax sf i then incr agree;
    for c = 0 to classes - 1 do
      let d =
        abs_float
          (Tensor.get_flat sb ((i * classes) + c)
          -. Tensor.get_flat sf ((i * classes) + c))
      in
      if d > !max_delta then max_delta := d
    done
  done;
  let agreement = float_of_int !agree /. float_of_int np in
  Printf.printf
    "[backend] probe argmax agreement %.0f%% (%d images), max |score \
     delta| %.2e (tol %.0e)\n%!"
    (100. *. agreement) np !max_delta Backend.score_tol;
  if agreement < 1. then
    failwith "bench_backend: boxed and f32 disagree on a probe argmax";
  if !max_delta > Backend.score_tol then
    failwith
      (Printf.sprintf
         "bench_backend: score delta %.2e exceeds tolerance %.0e" !max_delta
         Backend.score_tol);
  (* Pool-dispatch determinism: the f32 engine's row panels accumulate
     in the same per-element order whatever the panelling, so pooled
     scores must be bit-identical to inline scores. *)
  Domain_pool.Pool.with_pool ~domains:4 (fun pool ->
      let sp = F32.scores_batch ~pool plan pb in
      for i = 0 to Tensor.numel sf - 1 do
        if Tensor.get_flat sp i <> Tensor.get_flat sf i then
          failwith
            "bench_backend: pool-dispatched f32 scores differ from inline"
      done);
  print_endline
    "[backend] f32 pool-dispatched scores bit-identical to inline";
  let fusion_hits =
    Telemetry.Counter.get
      (Telemetry.Metrics.counter "backend.f32.fusion_hits")
  in
  if fusion_hits = 0 then
    failwith "bench_backend: the f32 plan never ran a fused conv epilogue";
  (* Attack sweeps: same corpus, metered oracle per image, targeted at
     the network's least likely class (streams to the cap — a sustained
     identical workload) plus untargeted (succeeds sometimes — exercises
     the success flag).  (queries, success) per image must be
     bit-identical across backends and batch widths. *)
  let samples =
    Array.map
      (fun image ->
        let scores = Nn.Network.scores net image in
        let target = ref 0 in
        for c = 1 to num_classes - 1 do
          if Tensor.get_flat scores c < Tensor.get_flat scores !target then
            target := c
        done;
        (image, Nn.Network.classify net image, !target))
      clean
  in
  let oracle_of = function
    | Backend.Boxed -> fun () -> Oracle.of_network net
    | Backend.F32 -> fun () -> Oracle.of_network ~backend:Backend.F32 net
  in
  let sweep ~backend ~batch ~targeted () =
    Array.map
      (fun (image, true_class, target) ->
        let goal =
          if targeted then Oppsla.Sketch.Targeted target
          else Oppsla.Sketch.Untargeted
        in
        let r =
          Oppsla.Sketch.attack ~max_queries ~goal ~batch
            (oracle_of backend ())
            Oppsla.Condition.const_false_program ~image ~true_class
        in
        (r.Oppsla.Sketch.queries, r.Oppsla.Sketch.adversarial <> None))
      samples
  in
  let cells =
    List.concat_map
      (fun backend ->
        List.map (fun batch -> (backend, batch)) [ 1; 16 ])
      [ Backend.Boxed; Backend.F32 ]
  in
  List.iter
    (fun targeted ->
      let reference = sweep ~backend:Backend.Boxed ~batch:1 ~targeted () in
      List.iter
        (fun (backend, batch) ->
          if sweep ~backend ~batch ~targeted () <> reference then
            failwith
              (Printf.sprintf
                 "bench_backend: %s b%d changed the per-image \
                  (queries, success) records (%s)"
                 (Backend.kind_name backend) batch
                 (if targeted then "targeted" else "untargeted")))
        cells)
    [ true; false ];
  print_endline
    "[backend] per-image (queries, success) records bit-identical across \
     backends at batch widths 1/16, targeted and untargeted";
  if smoke then
    print_endline
      "[backend] smoke: boxed/f32 success and query counts identical; \
       argmax agreement 100%"
  else begin
    (* Raw forward throughput: best-of-reps over a fixed batch, the
       production boxed arm vs the f32 plan, inline and pool-dispatched. *)
    let forward name ~batch scores_fn =
      let xb = pack (Array.init batch (fun i -> clean.(i mod n_images))) in
      ignore (scores_fn xb);
      let dt = ref infinity in
      for _ = 1 to reps do
        let (_ : Tensor.t), d =
          time (fun () ->
              let r = ref (scores_fn xb) in
              for _ = 2 to fwd_reps do
                r := scores_fn xb
              done;
              !r)
        in
        if d < !dt then dt := d
      done;
      let ips = float_of_int (batch * fwd_reps) /. !dt in
      Printf.printf "[backend] forward %-14s %8.1f images/s (batch %d)\n%!"
        name ips batch;
      (name, batch, ips)
    in
    let boxed_fn xb = Backend.Boxed_engine.scores_batch boxed_plan xb in
    let f32_fn xb = F32.scores_batch plan xb in
    (* The pooled rows use a pool sized to the host.  On a single-core
       host the pool is width 1 and [try_map] hands every GEMM to the
       inline fast path — dispatching to phantom domains would only
       measure scheduler overhead — so the speedup gate scales with what
       the host can actually deliver: >= 1.5x when worker domains exist
       to spread row panels over, >= 1.15x (the pure kernel + fusion
       win) when they do not. *)
    let host_width = Domain.recommended_domain_count () in
    let pool_b1 = Printf.sprintf "f32-pool%d-b1" host_width
    and pool_b16 = Printf.sprintf "f32-pool%d-b16" host_width in
    let forwards =
      [
        forward "boxed-b1" ~batch:1 boxed_fn;
        forward "boxed-b16" ~batch:16 boxed_fn;
        forward "f32-d1-b1" ~batch:1 f32_fn;
        forward "f32-d1-b16" ~batch:16 f32_fn;
      ]
      @ Domain_pool.Pool.with_pool ~domains:host_width (fun pool ->
            let f32_pool_fn xb = F32.scores_batch ~pool plan xb in
            [
              forward pool_b1 ~batch:1 f32_pool_fn;
              forward pool_b16 ~batch:16 f32_pool_fn;
            ])
    in
    let ips_of name =
      let _, _, ips = List.find (fun (n, _, _) -> n = name) forwards in
      ips
    in
    let speedup = ips_of pool_b16 /. ips_of "boxed-b16" in
    let threshold = if host_width >= 2 then 1.5 else 1.15 in
    Printf.printf
      "[backend] f32+pool forward speedup vs boxed at batch 16: %.2fx \
       (gate %.2fx at pool width %d)\n%!"
      speedup threshold host_width;
    if speedup < threshold then
      failwith
        (Printf.sprintf
           "bench_backend: expected >= %.2fx f32+pool speedup at batch 16 \
            (pool width %d), measured %.2fx"
           threshold host_width speedup);
    (* Attack-sweep wall clock per backend (batch 16, targeted — the
       sustained full-cap workload). *)
    let attack_row backend =
      let dt = ref infinity in
      for _ = 1 to reps do
        let (_ : (int * bool) array), d =
          time (sweep ~backend ~batch:16 ~targeted:true)
        in
        if d < !dt then dt := d
      done;
      Printf.printf "[backend] attack sweep %-6s %8.3fs\n%!"
        (Backend.kind_name backend) !dt;
      (Backend.kind_name backend, !dt)
    in
    let attacks = [ attack_row Backend.Boxed; attack_row Backend.F32 ] in
    (match Evalharness.Report.render_backend () with
    | Some s -> print_endline s
    | None -> ());
    let oc = open_out "BENCH_backend.json" in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc
          "{\n\
          \  \"workload\": \"boxed (float64 plan) vs f32 (flat \
           float32 Bigarray plan, blocked GEMM, fused conv epilogues) on \
           a conv-dominated %d-channel net, %d %dx%d images, cap %d\",\n\
          \  \"queries_identical\": true,\n\
          \  \"success_identical\": true,\n\
          \  \"argmax_agreement\": %.2f,\n\
          \  \"max_abs_score_delta\": %.3e,\n\
          \  \"score_tolerance\": %.0e,\n\
          \  \"pool_width\": %d,\n\
          \  \"f32_pool_vs_boxed_b16_speedup\": %.2f,\n\
          \  \"speedup_gate\": %.2f,\n\
          \  \"forward\": [\n"
          width n_images image_size image_size max_queries agreement
          !max_delta Backend.score_tol host_width speedup threshold;
        let n = List.length forwards in
        List.iteri
          (fun i (name, batch, ips) ->
            Printf.fprintf oc
              "    {\"name\": %S, \"batch\": %d, \"images_per_sec\": \
               %.1f}%s\n"
              name batch ips
              (if i = n - 1 then "" else ","))
          forwards;
        Printf.fprintf oc "  ],\n  \"attack_sweeps_b16\": [\n";
        let n = List.length attacks in
        List.iteri
          (fun i (name, dt) ->
            Printf.fprintf oc
              "    {\"backend\": %S, \"seconds_per_sweep\": %.4f}%s\n" name
              dt
              (if i = n - 1 then "" else ","))
          attacks;
        output_string oc
          "  ],\n\
          \  \"note\": \"query metering sits above the backend, so \
           per-image (queries, success) records are asserted \
           bit-identical across backends and batch widths; f32 \
           pool-dispatched scores are asserted bit-identical to inline \
           f32 (per-element accumulation order is panelling-independent); \
           cross-backend scores agree on argmax and stay within \
           score_tolerance per class; the pooled rows use a pool sized \
           to the host, and the speedup gate scales with it — 1.5x when \
           worker domains can spread row panels, 1.15x (pure kernel + \
           fusion win) on a single-core host\"\n\
           }\n");
    print_endline "[backend] wrote BENCH_backend.json"
  end

(* Bench regression gate (the `regress` mode).

   Snapshot the committed BENCH file contents as baselines, re-run the
   cheap benches (plus cache unless --quick, which is minutes-long),
   then compare what they wrote against the snapshots and fail on any
   regression past the gate's policy.  The gate's own self-test (every
   baseline passes against itself and fails against a degraded copy)
   is `tools/regress.exe --smoke`. *)

let bench_regress quick =
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
      ("BENCH_batch.json", fun () -> bench_batch ~smoke:false quick);
      ("BENCH_overhead.json", fun () -> bench_overhead ~smoke:false);
      ("BENCH_synth.json", fun () -> bench_synth ~smoke:false quick);
      ("BENCH_scenarios.json", fun () -> bench_scenarios ~smoke:false quick);
      ("BENCH_backend.json", fun () -> bench_backend ~smoke:false quick);
    ]
    @ (if quick then []
       else [ ("BENCH_cache.json", fun () -> bench_cache ~smoke:false quick) ])
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
  let tests =
    [
      Test.make ~name:"queue/full_space-init+drain"
        (Staged.stage (fun () ->
             let q = Oppsla.Pair_queue.full_space ~d1:16 ~d2:16 ~image in
             let rec drain () =
               match Oppsla.Pair_queue.pop q with
               | Some _ -> drain ()
               | None -> ()
             in
             drain ()));
      (* Ablation (DESIGN.md 5.1): the indexed queue vs the naive list
         reference under the sketch's reordering workload. *)
      Test.make ~name:"queue/indexed-reorder-storm"
        (Staged.stage (fun () ->
             let q = Oppsla.Pair_queue.full_space ~d1:16 ~d2:16 ~image in
             for i = 0 to 499 do
               let loc =
                 Oppsla.Location.make ~row:(i mod 16) ~col:(i * 7 mod 16)
               in
               match Oppsla.Pair_queue.first_with_location q loc with
               | Some p -> Oppsla.Pair_queue.push_back q p
               | None -> ()
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
      (* Ablation: direct convolution loop vs im2col + GEMM. *)
      Test.make ~name:"conv/direct-3x16x16"
        (Staged.stage
           (let w =
              Tensor.randn (Prng.copy g) ~sigma:0.2 [| 8; 3; 3; 3 |]
            in
            fun () ->
              ignore (Tensor.conv2d ~pad:1 image ~weight:w ~bias:None)));
      Test.make ~name:"conv/gemm-3x16x16"
        (Staged.stage
           (let w =
              Tensor.randn (Prng.copy g) ~sigma:0.2 [| 8; 3; 3; 3 |]
            and batch = Tensor.reshape image [| 1; 3; 16; 16 |] in
            fun () ->
              ignore
                (Tensor.conv2d_gemm_batch ~pad:1 batch ~weight:w ~bias:None)));
      Test.make ~name:"attack/sketch-false-cap256"
        (Staged.stage (fun () ->
             let oracle = Oracle.of_network net in
             ignore
               (Oppsla.Sketch.attack ~max_queries:256 oracle
                  Oppsla.Condition.const_false_program ~image ~true_class:0)));
    ]
    @ List.map
        (fun (arch, n) ->
          Test.make
            ~name:(Printf.sprintf "forward/%s-16x16" arch)
            (Staged.stage (fun () -> ignore (Nn.Network.scores n image))))
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
  print_endline (Report.table ~headers:[ "operation"; "ns/run" ] ~rows)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick =
    List.mem "--quick" args || Sys.getenv_opt "OPPSLA_BENCH_QUICK" <> None
  in
  (* Value-taking flags go through the shared Telemetry.Obs scanner, so
     the bench accepts both "--flag VALUE" and "--flag=VALUE" with the
     same spelling rules as the cmdliner CLI in bin/main.ml. *)
  let flag name = Telemetry.Obs.find_flag args ~flag:name in
  (* --domains N: width of the per-experiment domain pools. *)
  let domains_of src n =
    match int_of_string_opt n with
    | Some d when d >= 1 -> Some d
    | _ ->
        Printf.eprintf "bench: %s expects a positive integer, got %S\n" src n;
        exit 2
  in
  let domains =
    match flag "--domains" with
    | Some n -> domains_of "--domains" n
    | None -> (
        match Sys.getenv_opt "OPPSLA_BENCH_DOMAINS" with
        | None -> None
        | Some n -> domains_of "OPPSLA_BENCH_DOMAINS" n)
  in
  (* --no-cache: recompute every perturbation forward pass (results are
     bit-identical either way; the flag exists for A/B timing). *)
  let cache = not (List.mem "--no-cache" args) in
  let smoke = List.mem "--smoke" args in
  let float_flag name =
    Option.map
      (fun v ->
        match float_of_string_opt v with
        | Some f when f > 0. -> f
        | _ ->
            Printf.eprintf "bench: %s expects a positive number, got %S\n" name
              v;
            exit 2)
      (flag name)
  in
  let int_flag name =
    Option.map
      (fun v ->
        match int_of_string_opt v with
        | Some i when i >= 0 -> i
        | _ ->
            Printf.eprintf "bench: %s expects a port number, got %S\n" name v;
            exit 2)
      (flag name)
  in
  (* Observability sinks, same flags as the CLI (bin/main.ml): --trace /
     --metrics file sinks, --serve-metrics PORT for live /metrics +
     /healthz, --snapshot FILE [--snapshot-interval SEC] for periodic
     JSONL registry dumps, --stall-timeout SEC to abort wedged runs. *)
  let obs =
    {
      Telemetry.Obs.trace = flag "--trace";
      metrics = flag "--metrics";
      serve_port = int_flag "--serve-metrics";
      snapshot = flag "--snapshot";
      snapshot_interval_s =
        Option.value (float_flag "--snapshot-interval")
          ~default:Telemetry.Obs.default.Telemetry.Obs.snapshot_interval_s;
      stall_timeout_s = float_flag "--stall-timeout";
      journal = flag "--journal";
      run_id = flag "--run-id";
      profile = List.mem "--profile" args;
      backend_label = Telemetry.Obs.default.Telemetry.Obs.backend_label;
    }
  in
  let value_flags =
    [
      "--domains"; "--trace"; "--metrics"; "--serve-metrics"; "--snapshot";
      "--snapshot-interval"; "--stall-timeout"; "--journal"; "--run-id";
    ]
  in
  let modes =
    Telemetry.Obs.strip_flags args ~flags:value_flags
    |> List.filter (fun a ->
           not
             (a = "--quick" || a = "--" || a = "--cache" || a = "--no-cache"
            || a = "--smoke" || a = "--profile"))
  in
  let modes =
    (* CIFAR-regime experiments first: the ImageNet regime is the most
       expensive and depends on nothing else. *)
    if modes = [] then
      [ "fig3cifar"; "table1"; "table2"; "fig4"; "fig3imagenet"; "micro" ]
    else modes
  in
  Telemetry.Obs.with_observability ~log:progress obs
    (fun () ->
      List.iter
        (fun mode ->
          match mode with
          | "micro" -> timed "micro" micro
          | "sweep-beta" -> timed "sweep-beta" (fun () -> sweep_beta quick)
          | "parallel" -> timed "parallel" (fun () -> bench_parallel quick)
          | "cache" -> timed "cache" (fun () -> bench_cache ~smoke quick)
          | "batch" -> timed "batch" (fun () -> bench_batch ~smoke quick)
          | "overhead" -> timed "overhead" (fun () -> bench_overhead ~smoke)
          | "synth" -> timed "synth" (fun () -> bench_synth ~smoke quick)
          | "scenarios" ->
              timed "scenarios" (fun () -> bench_scenarios ~smoke quick)
          | "backend" -> timed "backend" (fun () -> bench_backend ~smoke quick)
          | "regress" -> timed "regress" (fun () -> bench_regress quick)
          | _ -> run_experiment quick domains cache mode)
        modes)
