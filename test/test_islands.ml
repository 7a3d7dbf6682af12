(* Replay-determinism suite for island-model synthesis (ROADMAP item 3).

   Every claim Islands makes is a determinism claim, so every test here
   is an equality on full traces: bit-identical elite traces and query
   counts across domain-pool widths and K = 1/2/4, kill-and-resume
   convergence to the uninterrupted trace, checkpoint write/read
   round-trips, clear rejection of damaged or foreign checkpoint files,
   and a committed golden checkpoint that pins the on-disk format. *)

module C = Oppsla.Condition
module Islands = Oppsla.Islands
module Pool = Domain_pool.Pool

let size = 4

(* Four attackable images of varying margin and one hopeless one. *)
let training =
  [|
    (Helpers.flat_image ~size 0.49, 0);
    (Helpers.flat_image ~size 0.52, 1);
    (Helpers.flat_image ~size 0.47, 0);
    (Helpers.flat_image ~size 0.54, 1);
    (Helpers.flat_image ~size 0.30, 0);
  |]

let oracle () = Helpers.mean_threshold_oracle ()

let config ?(islands = 2) ?(rounds = 6) ?checkpoint ?(checkpoint_every = 2)
    ?(on_round = fun _ -> ()) () =
  {
    Islands.default_config with
    islands;
    rounds;
    migration_period = 2;
    max_queries_per_image = Some 64;
    checkpoint;
    checkpoint_every;
    on_round;
  }

let run ?(domains = 1) ?(seed = 11) ?(resume = false) config =
  if domains > 1 then
    Pool.with_pool ~domains (fun pool ->
        Islands.synthesize ~config ~pool ~resume (Prng.of_int seed) (oracle ())
          ~training)
  else Islands.synthesize ~config ~resume (Prng.of_int seed) (oracle ()) ~training

let entry_equal (a : Islands.entry) (b : Islands.entry) =
  a.Islands.round = b.Islands.round
  && a.Islands.island = b.Islands.island
  && C.equal_program a.Islands.program b.Islands.program
  && a.Islands.avg_queries = b.Islands.avg_queries
  && a.Islands.accepted = b.Islands.accepted
  && a.Islands.pruned = b.Islands.pruned
  && a.Islands.queries_total = b.Islands.queries_total

let outcomes_equal (a : Islands.outcome) (b : Islands.outcome) =
  a.Islands.synth_queries = b.Islands.synth_queries
  && a.Islands.best_avg_queries = b.Islands.best_avg_queries
  && C.equal_program a.Islands.best b.Islands.best
  && a.Islands.migrations = b.Islands.migrations
  && List.length a.Islands.trace = List.length b.Islands.trace
  && List.for_all2 entry_equal a.Islands.trace b.Islands.trace

let with_tmp f =
  let file = Filename.temp_file "oppsla_islands" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () -> f file)

(* --- replay determinism --- *)

let qcheck_replay_across_widths =
  QCheck.Test.make ~name:"islands: trace identical at domains 1 vs 4, K=1/2/4"
    ~count:6
    QCheck.(pair small_int (oneofl [ 1; 2; 4 ]))
    (fun (seed, k) ->
      let cfg () = config ~islands:k ~rounds:4 () in
      let seq = run ~domains:1 ~seed (cfg ()) in
      let par = run ~domains:4 ~seed (cfg ()) in
      outcomes_equal seq par)

let same_seed_same_trace () =
  let a = run (config ()) and b = run (config ()) in
  Alcotest.(check bool) "identical reruns" true (outcomes_equal a b)

let trace_shape () =
  let out = run (config ~islands:3 ~rounds:5 ()) in
  (* One seed entry per island plus one step per island per round,
     chronological, islands in index order within a round. *)
  Alcotest.(check int) "entries" (3 * (5 + 1))
    (List.length out.Islands.trace);
  let expected = ref [] in
  for r = 0 to 5 do
    for k = 0 to 2 do
      expected := (r, k) :: !expected
    done
  done;
  List.iter2
    (fun (r, k) (e : Islands.entry) ->
      Alcotest.(check int) "round order" r e.Islands.round;
      Alcotest.(check int) "island order" k e.Islands.island)
    (List.rev !expected) out.Islands.trace;
  Alcotest.(check int) "rounds completed" 5 out.Islands.rounds_completed;
  Alcotest.(check (option int)) "not resumed" None out.Islands.resumed_at;
  (* The cross-island query total in the last entry is the outcome's. *)
  let last = List.nth out.Islands.trace (List.length out.Islands.trace - 1) in
  Alcotest.(check int) "query total" out.Islands.synth_queries
    last.Islands.queries_total

let best_is_archipelago_min () =
  let out = run (config ~islands:4 ()) in
  let min_avg =
    Array.fold_left
      (fun acc (r : Islands.island_report) ->
        Float.min acc r.Islands.best_avg_queries)
      infinity out.Islands.islands
  in
  Alcotest.(check (float 0.)) "best is min over islands" min_avg
    out.Islands.best_avg_queries;
  Array.iteri
    (fun k (r : Islands.island_report) ->
      Alcotest.(check int) "report index" k r.Islands.island;
      Alcotest.(check bool) "best <= final" true
        (r.Islands.best_avg_queries <= r.Islands.final_avg_queries))
    out.Islands.islands

(* --- kill and resume --- *)

let kill_and_resume_converges () =
  with_tmp @@ fun file ->
  let uninterrupted = run (config ()) in
  (* Kill after round 3 completes; the last checkpoint on disk is from
     round 2 (checkpoint_every = 2). *)
  let killed = ref false in
  (try
     ignore
       (run
          (config ~checkpoint:file
             ~on_round:(fun r -> if r = 3 then raise Exit)
             ()))
   with Exit -> killed := true);
  Alcotest.(check bool) "was killed" true !killed;
  let info = Islands.checkpoint_info file in
  Alcotest.(check int) "checkpoint from round 2" 2
    info.Islands.info_rounds_done;
  let resumed = run ~resume:true (config ~checkpoint:file ()) in
  Alcotest.(check (option int)) "resumed at 2" (Some 2)
    resumed.Islands.resumed_at;
  Alcotest.(check bool) "resumed trace equals uninterrupted" true
    (outcomes_equal uninterrupted resumed);
  (* Completion wrote a final checkpoint; resuming from it is a no-op
     continuation that still reproduces the same outcome. *)
  let info = Islands.checkpoint_info file in
  Alcotest.(check int) "final checkpoint at last round" 6
    info.Islands.info_rounds_done;
  let noop = run ~resume:true (config ~checkpoint:file ()) in
  Alcotest.(check bool) "no-op resume equals uninterrupted" true
    (outcomes_equal uninterrupted noop)

let resume_across_widths () =
  with_tmp @@ fun file ->
  let uninterrupted = run ~domains:1 (config ~islands:4 ()) in
  (try
     ignore
       (run ~domains:1
          (config ~islands:4 ~checkpoint:file
             ~on_round:(fun r -> if r = 2 then raise Exit)
             ()))
   with Exit -> ());
  (* Resume on a 4-domain pool: the pool only fans per-image attacks, so
     the resumed trace must still match the sequential uninterrupted run. *)
  let resumed = run ~domains:4 ~resume:true (config ~islands:4 ~checkpoint:file ()) in
  Alcotest.(check bool) "resume on a wider pool converges" true
    (outcomes_equal uninterrupted resumed)

(* --- checkpoint format --- *)

let expect_checkpoint_error name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Checkpoint_error")
  | exception Islands.Checkpoint_error _ -> ()

let roundtrip_info () =
  with_tmp @@ fun file ->
  let out = run (config ~islands:3 ~rounds:4 ~checkpoint:file ()) in
  let info = Islands.checkpoint_info file in
  Alcotest.(check int) "islands" 3 info.Islands.info_islands;
  Alcotest.(check int) "training" 5 info.Islands.info_training;
  Alcotest.(check int) "rounds" 4 info.Islands.info_rounds_done;
  Alcotest.(check int) "queries" out.Islands.synth_queries
    info.Islands.info_synth_queries;
  Alcotest.(check int) "trace length" (List.length out.Islands.trace)
    info.Islands.info_trace_length

let read_file = Helpers.read_file
let write_file = Helpers.write_file

let corrupted_rejected () =
  with_tmp @@ fun file ->
  ignore (run (config ~checkpoint:file ()));
  let s = read_file file in
  (* Flip one byte in the middle of the file. *)
  let b = Bytes.of_string s in
  let i = Bytes.length b / 2 in
  Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
  write_file file (Bytes.to_string b);
  expect_checkpoint_error "corrupted" (fun () -> Islands.checkpoint_info file);
  expect_checkpoint_error "corrupted resume" (fun () ->
      run ~resume:true (config ~checkpoint:file ()))

let truncated_rejected () =
  with_tmp @@ fun file ->
  ignore (run (config ~checkpoint:file ()));
  let s = read_file file in
  write_file file (String.sub s 0 (String.length s - 10));
  expect_checkpoint_error "truncated" (fun () -> Islands.checkpoint_info file)

let version_mismatch_rejected () =
  with_tmp @@ fun file ->
  write_file file "oppsla-islands-checkpoint v99\nislands 2\n";
  (match Islands.checkpoint_info file with
  | _ -> Alcotest.fail "expected Checkpoint_error"
  | exception Islands.Checkpoint_error m ->
      Alcotest.(check bool) "message names the version" true
        (Helpers.contains m "version"));
  write_file file "just some text\n";
  expect_checkpoint_error "not a checkpoint" (fun () ->
      Islands.checkpoint_info file)

let missing_file_rejected () =
  expect_checkpoint_error "missing file" (fun () ->
      run ~resume:true (config ~checkpoint:"/nonexistent/oppsla.ckpt" ()));
  Alcotest.(check bool) "resume without checkpoint path raises" true
    (try
       ignore (run ~resume:true (config ()));
       false
     with Invalid_argument _ -> true)

let config_mismatch_rejected () =
  with_tmp @@ fun file ->
  ignore (run (config ~islands:2 ~checkpoint:file ()));
  expect_checkpoint_error "different K" (fun () ->
      run ~resume:true (config ~islands:4 ~checkpoint:file ()));
  expect_checkpoint_error "different seed" (fun () ->
      run ~seed:999 ~resume:true (config ~islands:2 ~checkpoint:file ()))

(* The committed golden checkpoint pins the v1 on-disk format: any
   serialization drift (field order, float formatting, program syntax,
   checksum) shows up as a byte difference against this file. *)
let golden_format_stable () =
  with_tmp @@ fun file ->
  ignore
    (run ~seed:42 (config ~islands:2 ~rounds:4 ~checkpoint:file ()));
  let fresh = read_file file in
  let golden_path =
    (* dune runs the test from its own directory; a manual `dune exec`
       from the repo root finds the committed file one level down. *)
    if Sys.file_exists "islands_golden_v1.ckpt" then "islands_golden_v1.ckpt"
    else "test/islands_golden_v1.ckpt"
  in
  let golden = read_file golden_path in
  Alcotest.(check int) "golden byte length" (String.length golden)
    (String.length fresh);
  Alcotest.(check bool) "golden bytes identical" true (fresh = golden)

(* --- early stopping inside islands stays deterministic --- *)

let early_stop_deterministic () =
  let es = Some { Oppsla.Score.default_pac with min_images = 2; stage = 1 } in
  let cfg () = { (config ~islands:2 ~rounds:5 ()) with early_stop = es } in
  let a = run (cfg ()) and b = run ~domains:4 (cfg ()) in
  Alcotest.(check bool) "early-stopped islands replay across widths" true
    (outcomes_equal a b)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_replay_across_widths;
    Alcotest.test_case "same seed same trace" `Quick same_seed_same_trace;
    Alcotest.test_case "trace shape" `Quick trace_shape;
    Alcotest.test_case "best is archipelago min" `Quick best_is_archipelago_min;
    Alcotest.test_case "kill and resume converges" `Quick
      kill_and_resume_converges;
    Alcotest.test_case "resume across pool widths" `Quick resume_across_widths;
    Alcotest.test_case "checkpoint round-trip info" `Quick roundtrip_info;
    Alcotest.test_case "corrupted checkpoint rejected" `Quick
      corrupted_rejected;
    Alcotest.test_case "truncated checkpoint rejected" `Quick
      truncated_rejected;
    Alcotest.test_case "version mismatch rejected" `Quick
      version_mismatch_rejected;
    Alcotest.test_case "missing checkpoint rejected" `Quick
      missing_file_rejected;
    Alcotest.test_case "config mismatch rejected" `Quick
      config_mismatch_rejected;
    Alcotest.test_case "golden checkpoint format stable" `Quick
      golden_format_stable;
    Alcotest.test_case "early stop deterministic" `Quick
      early_stop_deterministic;
  ]
