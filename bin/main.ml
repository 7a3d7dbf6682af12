(* The oppsla command-line tool: train classifiers, synthesize adversarial
   programs, attack single images, and run the paper's experiments. *)

open Cmdliner
module Workbench = Evalharness.Workbench
module Experiments = Evalharness.Experiments
module Report = Evalharness.Report

let spec_of_name = function
  | "synth_cifar" -> Ok Dataset.synth_cifar
  | "synth_imagenet" -> Ok Dataset.synth_imagenet
  | name ->
      Error
        (Printf.sprintf
           "unknown dataset %S (expected synth_cifar or synth_imagenet)" name)

let log_stderr msg = Printf.eprintf "%s\n%!" msg

let workbench_config ?(backend = Nn.Backend.Boxed) artifacts seed =
  {
    Workbench.default_config with
    artifacts_dir = (if artifacts = "" then None else Some artifacts);
    seed;
    log = log_stderr;
    backend;
  }

(* Shared options *)

let dataset_arg =
  let doc = "Dataset: synth_cifar or synth_imagenet." in
  Arg.(value & opt string "synth_cifar" & info [ "dataset"; "d" ] ~doc)

let arch_arg =
  let doc =
    "Architecture: " ^ String.concat ", " Nn.Zoo.names ^ "."
  in
  Arg.(value & opt string "vgg_tiny" & info [ "arch"; "a" ] ~doc)

let seed_arg =
  let doc = "Root random seed (controls data, weights and synthesis)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let artifacts_arg =
  let doc = "Artifact cache directory; empty string disables caching." in
  Arg.(value & opt string "_artifacts" & info [ "artifacts" ] ~doc)

let domains_arg =
  let doc =
    "Domains (OS-level parallelism) for synthesis evaluation and attack \
     fan-out; 0 picks the hardware default.  Query counts are \
     parallelism-independent (per-image oracles, deterministic merge)."
  in
  Arg.(value & opt int 0 & info [ "domains"; "j" ] ~doc)

let domains_opt d = if d <= 0 then None else Some d

let class_arg =
  let doc = "Class id the program is synthesized for / attacked in." in
  Arg.(value & opt int 0 & info [ "class"; "c" ] ~doc)

let oracle_arg =
  let doc =
    "Oracle threat model: $(b,score) (every query reveals the full score \
     vector, the paper's setting) or $(b,decision) (label-only top-1 \
     queries; score-based conditions degrade to label-flip predicates).  \
     A query costs one unit of budget in either mode."
  in
  Arg.(value & opt string "score" & info [ "oracle" ] ~docv:"MODE" ~doc)

let oracle_mode_of_string = function
  | "score" -> Ok Oracle.Score
  | "decision" -> Ok Oracle.Decision
  | other ->
      Error
        (Printf.sprintf "unknown oracle mode %S (expected score or decision)"
           other)

let with_oracle_mode mode_name k =
  match oracle_mode_of_string mode_name with
  | Error msg -> `Error (false, msg)
  | Ok mode -> k mode

let backend_arg =
  let doc =
    "Tensor backend for oracle forward passes: $(b,boxed) (the float64 \
     reference engine) or $(b,f32) (flat float32 Bigarray storage with a \
     blocked register-tiled GEMM and fused conv epilogues).  Attack \
     outcomes, success rates and query counts are backend-independent; \
     f32 trades bit-identical scores (per-score deviation at most 1e-4) \
     for throughput."
  in
  Arg.(value & opt string "boxed" & info [ "backend" ] ~docv:"BACKEND" ~doc)

let with_backend name k =
  match Nn.Backend.kind_of_string name with
  | None ->
      `Error
        ( false,
          Printf.sprintf "unknown backend %S (expected boxed or f32)" name )
  | Some backend -> k backend

let space_arg =
  let doc =
    "Perturbation space: $(b,pixel) (the paper's one-pixel 8-corner \
     space), $(b,kpixel:K) (K distinct pixels, Sparse-RS search) or \
     $(b,patch:HxW) (an anchored rectangle filled with one corner color, \
     Sparse-RS search).  Non-pixel spaces attack with Sparse-RS (the \
     sketch is one-pixel by construction)."
  in
  Arg.(value & opt string "pixel" & info [ "space" ] ~docv:"SPACE" ~doc)

let with_space space_name k =
  match Oppsla.Space.of_string space_name with
  | None ->
      `Error
        ( false,
          Printf.sprintf
            "unknown space %S (expected pixel, kpixel[:K] or patch[:HxW])"
            space_name )
  | Some space -> k space

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON file of the run's spans (oracle \
     queries, batcher forward passes, pool jobs, per-layer forward passes, \
     synthesizer iterations) to $(docv); open it in chrome://tracing or \
     Perfetto.  Tracing is observation-only: results, query counts and \
     synthesis traces are bit-identical with it on or off."
  in
  Arg.(value & opt string "" & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Dump the process-wide metrics registry (counters, gauges, \
     histograms) as JSON to $(docv) when the command finishes."
  in
  Arg.(value & opt string "" & info [ "metrics" ] ~docv:"FILE" ~doc)

let snapshot_arg =
  let doc =
    "Append one JSONL snapshot of the metrics registry to $(docv) per \
     sampler tick (see $(b,--snapshot-interval))."
  in
  Arg.(value & opt string "" & info [ "snapshot" ] ~docv:"FILE" ~doc)

let snapshot_interval_arg =
  let doc = "Background sampler tick interval in seconds." in
  Arg.(
    value & opt float 1.0 & info [ "snapshot-interval" ] ~docv:"SEC" ~doc)

let stall_timeout_arg =
  let doc =
    "Abort the run (exit 3) when an instrumented loop (sketch attack, \
     baseline search, synthesizer MH chain) is active but records no \
     heartbeat progress for $(docv) seconds, after writing the post-mortem \
     bundle."
  in
  Arg.(
    value & opt (some float) None & info [ "stall-timeout" ] ~docv:"SEC" ~doc)

let journal_arg =
  let doc =
    "Write a query-provenance journal (JSONL, one checksummed record \
     per charged oracle query: run id, charge site, image index, cache \
     key, oracle mode, cache hit, batcher chunk (0 forwarded, -1 \
     cached), backend) to $(docv).  \
     Audit offline with tools/audit.exe — two journals of the same \
     attack under different --domains/--backend settings must carry \
     bit-identical per-image charge sequences.  \
     Observation-only: results and query counts are unchanged."
  in
  Arg.(value & opt string "" & info [ "journal" ] ~docv:"FILE" ~doc)

let run_id_arg =
  let doc =
    "Run identifier stamped into the journal header and the post-mortem \
     bundle directory name (default: a timestamp-pid string)."
  in
  Arg.(value & opt string "" & info [ "run-id" ] ~docv:"ID" ~doc)

let profile_arg =
  let doc =
    "Attach the runtime-events profiler for the duration of the \
     command: GC pause histograms per domain \
     (gc.pause_seconds{domain,gc}), promotion/allocation counters and \
     domain lifecycle events folded into the metrics registry, GC \
     pauses emitted into the --trace stream (they line up under \
     application spans in Perfetto), and a pause summary in the \
     telemetry report.  Observation-only: results and query counts \
     are bit-identical with the profiler on or off."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

(* Bracket a command with the observability stack (shared with the bench
   via Telemetry.Obs): open the trace file before any instrumented code
   runs, run the sampler while the command does, and flush trace +
   metrics even when the command raises. *)
let with_telemetry ~trace ~metrics ~snapshot ~snapshot_interval
    ~stall_timeout ~journal ~run_id ~profile f =
  let nonempty s = if s = "" then None else Some s in
  Telemetry.Obs.with_observability
    {
      Telemetry.Obs.trace = nonempty trace;
      metrics = nonempty metrics;
      snapshot = nonempty snapshot;
      snapshot_interval_s = snapshot_interval;
      stall_timeout_s = stall_timeout;
      journal = nonempty journal;
      run_id = nonempty run_id;
      profile;
    }
    f

(* The consolidated telemetry section is empty (and unprinted) unless
   instrumentation actually recorded something this run. *)
let print_telemetry_report () =
  match Report.render_telemetry () with
  | "" -> ()
  | s -> print_endline s

let with_spec dataset f =
  match spec_of_name dataset with
  | Error msg -> `Error (false, msg)
  | Ok spec -> f spec

(* train *)

let train_cmd =
  let run dataset arch seed artifacts backend =
    with_spec dataset @@ fun spec ->
    with_backend backend (fun backend ->
        let config = workbench_config ~backend artifacts seed in
        let c = Workbench.load_classifier config spec arch in
        Printf.printf "%s\n" (Nn.Network.describe c.Workbench.net);
        Printf.printf "test accuracy: %.3f (%d attackable test images)\n"
          c.Workbench.test_accuracy
          (Array.length c.Workbench.test);
        `Ok ())
  in
  let term =
    Term.(
      ret
        (const run $ dataset_arg $ arch_arg $ seed_arg $ artifacts_arg
       $ backend_arg))
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:"Train (or load) a classifier and report its accuracy.")
    term

(* synthesize *)

(* [Score.default_pac] first checks its bound after 10 images, but a
   workbench synthesis set holds at most [synth_per_class] (10) images,
   so no check would land before the last image and nothing could ever
   be pruned.  Check halfway through the training set instead. *)
let cli_pac n =
  let pac = Oppsla.Score.default_pac in
  let half = max 1 (n / 2) in
  {
    pac with
    Oppsla.Score.min_images = min half pac.Oppsla.Score.min_images;
    stage = min half pac.Oppsla.Score.stage;
  }

let synthesize_cmd =
  let iters_arg =
    Arg.(
      value & opt int 40
      & info [ "iters" ]
          ~doc:"MH iterations (rounds per island with --islands).")
  in
  let islands_arg =
    let doc =
      "Island-model synthesis: run $(docv) tempered MH chains in lockstep \
       rounds with periodic ring migration of elite programs.  The elite \
       trace is bit-identical for a fixed seed whatever --domains or \
       kill/resume history.  At the default K = 1 the \
       single chain is Algorithm 2."
    in
    Arg.(value & opt int 1 & info [ "islands" ] ~docv:"K" ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Write the full island-synthesis state (every island's PRNG \
       streams, chain position, elite and trace) to $(docv) at round \
       boundaries; versioned, checksummed, written atomically.  Implies \
       the island path even at --islands 1."
    in
    Arg.(value & opt string "" & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let resume_arg =
    let doc =
      "Resume island synthesis from the --checkpoint file and replay the \
       remaining rounds to exactly the trace an uninterrupted run \
       produces.  Fails loudly on missing, damaged or mismatched \
       checkpoints."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let early_stop_arg =
    let on =
      ( true,
        Arg.info [ "early-stop" ]
          ~doc:
            "PAC candidate pruning: evaluate proposals on a per-proposal \
             random image subset and abandon a candidate once a \
             Hoeffding-style certified lower bound on its average proves \
             it cannot beat the incumbent.  Kills bad candidates after a \
             handful of images instead of the full training set; prunes \
             only candidates exact scoring would have rejected.  Implies \
             the island path (per-run, reported per island, not cached) \
             even at --islands 1." )
    in
    let off =
      ( false,
        Arg.info [ "no-early-stop" ]
          ~doc:
            "Score every proposal on the full training set (the default; \
             reproduces exact pre-pruning scoring bit for bit)." )
    in
    Arg.(value & vflag false [ on; off ])
  in
  let run dataset arch seed artifacts class_id iters domains islands checkpoint
      resume early_stop trace metrics snapshot snapshot_interval stall_timeout
      journal run_id profile backend =
    with_spec dataset @@ fun spec ->
    with_backend backend @@ fun backend ->
    if class_id < 0 || class_id >= spec.Dataset.num_classes then
      `Error
        ( false,
          Printf.sprintf "class %d out of range [0, %d)" class_id
            spec.Dataset.num_classes )
    else if islands < 1 then
      `Error (false, Printf.sprintf "--islands must be >= 1 (got %d)" islands)
    else if resume && checkpoint = "" then
      `Error (false, "--resume requires --checkpoint FILE")
    else begin
      with_telemetry ~trace ~metrics ~snapshot ~snapshot_interval
        ~stall_timeout ~journal ~run_id ~profile
      @@ fun () ->
      let config = workbench_config ~backend artifacts seed in
      let c = Workbench.load_classifier config spec arch in
      if islands > 1 || checkpoint <> "" || early_stop then begin
        (* Island path: uncached (per-run) synthesis on the class's
           training set, reported per island.  Not persisted to the
           artifact cache — checkpoints are the resumable artifact, and
           the cached programs are always exactly scored. *)
        let training = c.Workbench.synth_sets.(class_id) in
        if Array.length training = 0 then
          Printf.printf
            "class %d (%s): no correctly classified synthesis images\n"
            class_id
            spec.Dataset.class_names.(class_id)
        else begin
          let icfg =
            {
              Oppsla.Islands.default_config with
              Oppsla.Islands.islands;
              rounds = iters;
              max_queries_per_image =
                Some
                  Workbench.default_synth_params
                    .Workbench.synth_max_queries_per_image;
              early_stop =
                (if early_stop then Some (cli_pac (Array.length training))
                 else None);
              checkpoint = (if checkpoint = "" then None else Some checkpoint);
            }
          in
          let caches = Score_cache.store (Array.length training) in
          let g =
            Prng.named_stream (Prng.of_int seed)
              (Printf.sprintf "islands-cli/class-%d" class_id)
          in
          let synthesize pool =
            Oppsla.Islands.synthesize ~config:icfg ?pool ~caches ~resume g
              (Workbench.oracle_factory c ())
              ~training
          in
          let out =
            match domains_opt domains with
            | None -> synthesize None
            | Some domains ->
                Domain_pool.Pool.with_pool ~domains (fun pool ->
                    synthesize (Some pool))
          in
          Printf.printf "class %d (%s)\n%s\n" class_id
            spec.Dataset.class_names.(class_id)
            (Report.render_islands out);
          if checkpoint <> "" then begin
            let i = Oppsla.Islands.checkpoint_info checkpoint in
            Printf.printf
              "checkpoint %s: %d islands, %d training images, %d rounds \
               done, %d queries, %d trace entries\n"
              checkpoint i.Oppsla.Islands.info_islands
              i.Oppsla.Islands.info_training
              i.Oppsla.Islands.info_rounds_done
              i.Oppsla.Islands.info_synth_queries
              i.Oppsla.Islands.info_trace_length
          end;
          print_telemetry_report ()
        end
      end
      else begin
        let params =
          {
            Workbench.default_synth_params with
            iters;
            domains = domains_opt domains;
          }
        in
        let programs = Workbench.synthesize_programs ~params config c in
        Printf.printf "class %d (%s): %s\n" class_id
          spec.Dataset.class_names.(class_id)
          (Oppsla.Dsl.print_program programs.(class_id))
      end;
      `Ok ()
    end
  in
  let term =
    Term.(
      ret
        (const run $ dataset_arg $ arch_arg $ seed_arg $ artifacts_arg
       $ class_arg $ iters_arg $ domains_arg
       $ islands_arg $ checkpoint_arg $ resume_arg $ early_stop_arg
       $ trace_arg $ metrics_arg $ snapshot_arg
       $ snapshot_interval_arg $ stall_timeout_arg $ journal_arg
       $ run_id_arg $ profile_arg $ backend_arg))
  in
  Cmd.v
    (Cmd.info "synthesize"
       ~doc:
         "Synthesize per-class adversarial programs (cached) and print \
          one; --islands runs the distributed island model with \
          checkpoint/resume.")
    term

(* attack *)

let attack_cmd =
  let index_arg =
    Arg.(
      value & opt int 0
      & info [ "index"; "i" ] ~doc:"Index of the test image inside its class.")
  in
  let program_arg =
    Arg.(
      value & opt string ""
      & info [ "program"; "p" ]
          ~doc:
            "Program in the DSL syntax (default: the cached synthesized \
             program for the class).")
  in
  let target_arg =
    Arg.(
      value & opt int (-1)
      & info [ "target"; "t" ]
          ~doc:
            "Targeted attack: succeed only when the prediction becomes \
             this class (default: untargeted).")
  in
  let save_ppm_arg =
    Arg.(
      value & opt string ""
      & info [ "save-ppm" ]
          ~doc:
            "Write an original|adversarial|highlighted panel to this PPM \
             file on success.")
  in
  let run dataset arch seed artifacts class_id index program_text target
      save_ppm oracle_mode space trace metrics snapshot snapshot_interval
      stall_timeout journal run_id profile backend =
    with_spec dataset @@ fun spec ->
    with_oracle_mode oracle_mode @@ fun oracle_mode ->
    with_space space @@ fun space ->
    with_backend backend @@ fun backend ->
    let config = workbench_config ~backend artifacts seed in
    let c = Workbench.load_classifier config spec arch in
    let candidates =
      Array.of_list
        (List.filter
           (fun (_, cl) -> cl = class_id)
           (Array.to_list c.Workbench.test))
    in
    if Array.length candidates = 0 then
      `Error
        ( false,
          Printf.sprintf
            "no correctly classified test images of class %d" class_id )
    else if index < 0 || index >= Array.length candidates then
      `Error
        ( false,
          Printf.sprintf "index %d out of range [0, %d)" index
            (Array.length candidates) )
    else begin
      with_telemetry ~trace ~metrics ~snapshot ~snapshot_interval
        ~stall_timeout ~journal ~run_id ~profile
      @@ fun () ->
      let image, true_class = candidates.(index) in
      let oracle = Workbench.oracle_factory c () in
      Oracle.set_mode oracle oracle_mode;
      let goal =
        if target < 0 then Oppsla.Sketch.Untargeted
        else Oppsla.Sketch.Targeted target
      in
      let r =
        match space with
        | Oppsla.Space.Pixel ->
            let program =
              if program_text = "" then
                (Workbench.synthesize_programs config c).(class_id)
              else
                match Oppsla.Dsl.parse_program program_text with
                | Ok p -> p
                | Error e ->
                    prerr_endline
                      (Oppsla.Dsl.describe_error program_text e);
                    exit 1
            in
            Printf.printf "program: %s\n"
              (Oppsla.Dsl.print_program program);
            Oppsla.Sketch.attack ~goal oracle program ~image ~true_class
        | _ ->
            (* Non-pixel spaces attack with Sparse-RS; the reported
               pair is the perturbed set's first element (the full
               set is in the adversarial image itself). *)
            Printf.printf "space: %s (Sparse-RS search)\n"
              (Oppsla.Space.to_string space);
            let g =
              Prng.named_stream (Prng.of_int seed)
                (Printf.sprintf "attack-cli/%s" (Oppsla.Space.to_string space))
            in
            Baselines.Sparse_rs.to_result
              (Baselines.Sparse_rs.attack_space ~goal ~space g oracle
                 ~image ~true_class)
      in
      (match r.Oppsla.Sketch.adversarial with
      | Some (pair, adversarial) ->
          let new_class =
            Oracle.unmetered_classify oracle adversarial
          in
          Printf.printf
            "SUCCESS after %d queries: pixel %s -> class %d (%s)\n"
            r.Oppsla.Sketch.queries (Oppsla.Pair.to_string pair) new_class
            spec.Dataset.class_names.(new_class);
          if save_ppm <> "" then begin
            let panel =
              Image.side_by_side
                [
                  Image.upscale ~factor:8 image;
                  Image.upscale ~factor:8 adversarial;
                  Image.upscale ~factor:8
                    (Image.highlight_diff image adversarial);
                ]
            in
            Image.write_ppm save_ppm panel;
            Printf.printf "wrote %s\n" save_ppm
          end
      | None ->
          Printf.printf "no one-pixel adversarial example (%d queries)\n"
            r.Oppsla.Sketch.queries);
      print_telemetry_report ();
      `Ok ()
    end
  in
  let term =
    Term.(
      ret
        (const run $ dataset_arg $ arch_arg $ seed_arg $ artifacts_arg
       $ class_arg $ index_arg $ program_arg $ target_arg $ save_ppm_arg
       $ oracle_arg $ space_arg $ trace_arg $ metrics_arg
       $ snapshot_arg $ snapshot_interval_arg
       $ stall_timeout_arg $ journal_arg $ run_id_arg $ profile_arg
       $ backend_arg))
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Attack a single test image with a program.")
    term

(* analyze *)

let analyze_cmd =
  let run dataset arch seed artifacts backend =
    with_spec dataset @@ fun spec ->
    with_backend backend (fun backend ->
        let config = workbench_config ~backend artifacts seed in
        let c = Workbench.load_classifier config spec arch in
        let programs = Workbench.synthesize_programs config c in
        print_endline (Oppsla.Analysis.describe_portfolio programs);
        `Ok ())
  in
  let term =
    Term.(
      ret
        (const run $ dataset_arg $ arch_arg $ seed_arg $ artifacts_arg
       $ backend_arg))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Print the synthesized per-class programs and their condition \
          function usage.")
    term

(* eval *)

let eval_cmd =
  let experiment_arg =
    let doc =
      "Experiment to run: fig3 (or one half, fig3cifar / fig3imagenet), \
       table1, fig4, table2, targeted, sweep-beta or all (all runs fig3, \
       table1, fig4 and table2)."
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let quick_arg =
    let doc =
      "Smoke-test scale: tiny budgets and iteration counts, 4 test and 4 \
       synthesis images per class.  Runs in minutes; the numbers are not \
       meaningful."
    in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let experiments =
    [
      ( "fig3",
        fun ~scale config ->
          Report.render_fig3 (Experiments.fig3 ~scale config) );
      ( "fig3cifar",
        fun ~scale config ->
          Report.render_fig3 (Experiments.fig3_cifar ~scale config) );
      ( "fig3imagenet",
        fun ~scale config ->
          Report.render_fig3 (Experiments.fig3_imagenet ~scale config) );
      ( "table1",
        fun ~scale config ->
          Report.render_table1 (Experiments.table1 ~scale config) );
      ( "fig4",
        fun ~scale config ->
          Report.render_fig4 (Experiments.fig4 ~scale config) );
      ( "table2",
        fun ~scale config ->
          Report.render_table2 (Experiments.table2 ~scale config) );
      ( "targeted",
        fun ~scale config ->
          Report.render_targeted (Experiments.targeted ~scale config) );
      ( "sweep-beta",
        fun ~scale config ->
          Report.render_beta_sweep (Experiments.beta_sweep ~scale config) );
    ]
  in
  let run seed artifacts domains quick trace metrics snapshot
      snapshot_interval stall_timeout journal run_id profile backend
      experiment =
    let selected =
      match experiment with
      | "all" -> Some [ "fig3"; "table1"; "fig4"; "table2" ]
      | e when List.mem_assoc e experiments -> Some [ e ]
      | _ -> None
    in
    match selected with
    | None ->
        `Error
          ( false,
            Printf.sprintf "unknown experiment %S (try --help)" experiment )
    | Some names ->
        with_backend backend @@ fun backend ->
        with_telemetry ~trace ~metrics ~snapshot ~snapshot_interval
          ~stall_timeout ~journal ~run_id ~profile
        @@ fun () ->
        let config = workbench_config ~backend artifacts seed in
        let config, scale =
          if quick then
            ( { config with Workbench.test_per_class = 4; synth_per_class = 4 },
              Experiments.quick_scale )
          else (config, Experiments.default_scale)
        in
        let scale = { scale with Experiments.domains = domains_opt domains } in
        List.iter
          (fun name ->
            print_endline ((List.assoc name experiments) ~scale config);
            if experiment = "all" then print_newline ())
          names;
        print_telemetry_report ();
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ seed_arg $ artifacts_arg $ domains_arg $ quick_arg
       $ trace_arg $ metrics_arg $ snapshot_arg $ snapshot_interval_arg
       $ stall_timeout_arg $ journal_arg $ run_id_arg $ profile_arg
       $ backend_arg $ experiment_arg))
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Run the paper's experiments and print reports.")
    term

let version = "1.0.0"

let () =
  let info =
    Cmd.info "oppsla" ~version
      ~doc:"One pixel adversarial attacks via sketched programs"
  in
  exit (Cmd.eval (Cmd.group info [ train_cmd; synthesize_cmd; attack_cmd; analyze_cmd; eval_cmd ]))
