(* Standalone differential checker, wired into the `runtest` alias under
   OCAMLRUNPARAM=b at every combination of --domains 1/4, --cache on/off,
   --trace on/off and --observe on/off, plus an --islands 4 sub-grid
   (see test/dune).  Every attack poses one candidate per query, so
   there is no candidate-width axis.

   --trace on opens a real Chrome-trace sink for the whole run and
   computes every reference under [Telemetry.Trace.without], so each
   check differences a traced run against an untraced one in the same
   process — telemetry must be observation-only, with query accounting
   and synthesis traces bit-identical either way.

   Scenario axes (the decision-oracle / perturbation-space matrix):
   --oracle score|decision and --space pixel|kpixel[:K]|patch[:HxW]
   select a single attack-level scenario cell, differenced through the
   full Runner/cache/batcher stack — the reference is always the
   1-domain, uncached run of the same attacker on the same corpus, and
   per-image (queries, success) records must be bit-identical under
   this invocation's --domains/--cache settings (with a warm-store
   rerun when the cache is on).
   --sample-grid N instead samples ~N cells across the full
   {score, decision} x {pixel, kpixel, patch} x {1, 4 domains} x
   {cache off, on} cross-product, stratified so every oracle x space
   combination is hit; the (domains, cache) coordinates are drawn
   deterministically from the named PRNG stream
   "diff/scenario-grid", so the sampled grid is reproducible yet stays
   inside the wall-clock budget.  Sample-grid runs also difference
   Score.evaluate and the island model under a decision-mode oracle.

   Backend axis: --backend boxed|f32 runs the tensor-backend
   differential instead — raw scores under the tolerance policy (boxed
   plan bit-identical to the layer engine; f32 within
   [Nn.Backend.score_tol] per logit with argmax identity) and attack
   records through the full Runner stack against the boxed sequential
   reference, at this invocation's --domains/--cache coordinates.

   --profile on runs the profiler differential instead: the same
   Sparse-RS corpus bare and then with the Runtime_events profiler
   attached, asserting bit-identical per-image (queries, success)
   records and that the observer actually polled the event ring.

   --observe on additionally runs the background runtime sampler
   (ticking every 20 ms, with its stall watchdog) around the whole grid.
   It only reads the registry, so every differential below must still
   hold bit-identically while it runs.  The grid repeats, checked on
   every pass, until a pass returns after the sampler's loop reached a
   deadline (failing after 2 s), so a timed tick lands while attacks
   run; at the end the runner checks that the registry metered oracle
   queries and that the watchdog reports no stalled loop.

   For randomized programs, images and training-set sizes it asserts that
   Score.evaluate over a pool of the requested width, and a never-pruning
   Score.evaluate_pac visiting the images in a random order in stages
   over the same pool, return bit-identical query accounting to the
   sequential Score.evaluate, and
   that the synthesis trace (a --islands K run; K = 1 is Algorithm 2's
   single chain) is independent of pool and cache.
   With --cache on, the uncached sequential evaluation stays the
   reference and the cached sequential (cold and warm store) and cached
   parallel evaluations are checked against it — the memo layer must be
   invisible to query accounting.  Exits non-zero (with a backtrace,
   courtesy of OCAMLRUNPARAM=b) on the first divergence. *)

module Runner = Evalharness.Runner
module Attackers = Evalharness.Attackers
module Score = Oppsla.Score
module Space = Oppsla.Space

let size = 4

let mean_threshold_oracle () =
  Oracle.of_fn ~name:"mean-threshold" ~num_classes:2 (fun x ->
      let m = Tensor.mean x in
      let p1 = 1. /. (1. +. exp (-.(40. *. (m -. 0.5)))) in
      Tensor.of_array [| 2 |] [| 1. -. p1; p1 |])

let training_set g n =
  Array.init n (fun i ->
      match i mod 3 with
      | 0 -> (Tensor.create [| 3; size; size |] (0.45 +. Prng.float g 0.1), 0)
      | 1 -> (Tensor.create [| 3; size; size |] 0.30, 0)
      | _ -> (Tensor.rand_uniform g ~lo:0.35 ~hi:0.65 [| 3; size; size |], 0))

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let check_identical ctx (seq : Score.evaluation) (par : Score.evaluation) =
  if seq.Score.avg_queries <> par.Score.avg_queries then
    fail "%s: avg_queries %.17g <> %.17g" ctx seq.Score.avg_queries
      par.Score.avg_queries;
  if seq.Score.total_queries <> par.Score.total_queries then
    fail "%s: total_queries %d <> %d" ctx seq.Score.total_queries
      par.Score.total_queries;
  if seq.Score.successes <> par.Score.successes then
    fail "%s: successes %d <> %d" ctx seq.Score.successes par.Score.successes;
  if
    Array.map (fun e -> (e.Score.queries, e.Score.success)) seq.per_image
    <> Array.map (fun e -> (e.Score.queries, e.Score.success)) par.per_image
  then fail "%s: per-image query counts diverged" ctx

(* Scenario differentials: decision-based oracles and k-pixel / patch
   perturbation spaces, driven through the full Runner stack. *)

let decision_oracle () =
  let o = mean_threshold_oracle () in
  Oracle.set_mode o Oracle.Decision;
  o

(* A small fixed corpus labelled by the clean-image prediction, so every
   attack starts from an unflipped image and success means a genuine
   label flip. *)
let scenario_samples () =
  let g = Prng.of_int 913 in
  let probe = mean_threshold_oracle () in
  Array.init 6 (fun i ->
      let x =
        match i mod 3 with
        | 0 -> Tensor.create [| 3; size; size |] (0.45 +. Prng.float g 0.1)
        | 1 -> Tensor.create [| 3; size; size |] 0.30
        | _ -> Tensor.rand_uniform g ~lo:0.35 ~hi:0.65 [| 3; size; size |]
      in
      (x, Oracle.unmetered_classify probe x))

let mode_name = function
  | Oracle.Score -> "score"
  | Oracle.Decision -> "decision"

(* One scenario cell: Sparse-RS over [space], observing through
   [oracle_mode], with the cell's (domains, cache) coordinates
   differenced against the 1-domain uncached reference.  With
   the cache on, the warm store is rerun and must reproduce the same
   records — the memo layer stays invisible to query accounting in both
   oracle modes. *)
let scenario_check ~domains ~cache ~oracle_mode ~space =
  let samples = scenario_samples () in
  let attacker =
    let base = Attackers.sparse_rs_space space in
    match oracle_mode with
    | Oracle.Score -> base
    | Oracle.Decision -> Attackers.decision base
  in
  let oracle_factory () = mean_threshold_oracle () in
  let max_queries = 60 in
  let strip rs =
    Array.map (fun r -> (r.Runner.queries, r.Runner.success)) rs
  in
  let ctx kind =
    Printf.sprintf
      "scenario %s/%s (domains %d, cache %b, %s)"
      (mode_name oracle_mode) (Space.to_string space) domains cache kind
  in
  let reference =
    strip
      (Runner.run ~domains:1 ~seed:5 ~max_queries attacker
         ~oracle_factory samples)
  in
  let caches =
    if cache then Some (Score_cache.store (Array.length samples)) else None
  in
  let checked =
    strip
      (Runner.run ~domains ?caches ~seed:5 ~max_queries attacker
         ~oracle_factory samples)
  in
  if reference <> checked then
    fail "%s: per-image (queries, success) diverged" (ctx "checked");
  (match caches with
  | Some _ ->
      let warm =
        strip
          (Runner.run ~domains ?caches ~seed:5 ~max_queries attacker
             ~oracle_factory samples)
      in
      if reference <> warm then
        fail "%s: per-image (queries, success) diverged" (ctx "warm store")
  | None -> ());
  (* The cell must have attacked something: an all-zero-query corpus
     would mean the differential tested nothing. *)
  if Array.for_all (fun (q, _) -> q = 0) reference then
    fail "%s: no queries were spent" (ctx "reference")

(* Decision-mode evaluation differential: Score.evaluate with a
   label-only oracle must stay bit-identical across cache and pool, just
   like the score-mode trials in the main grid. *)
let decision_evaluate_check ~pool =
  let gen_config = { Oppsla.Gen.d1 = size; d2 = size } in
  for trial = 0 to 3 do
    let g = Prng.of_int (8191 + trial) in
    let samples = training_set (Prng.split g) (1 + Prng.int g 8) in
    let program = Oppsla.Gen.random_program gen_config g in
    let ctx kind = Printf.sprintf "decision evaluate trial %d (%s)" trial kind in
    let reference = Score.evaluate (decision_oracle ()) program samples in
    let caches = Some (Score_cache.store (Array.length samples)) in
    let cold = Score.evaluate ?caches (decision_oracle ()) program samples in
    check_identical (ctx "cached sequential, cold") reference cold;
    let warm = Score.evaluate ?caches (decision_oracle ()) program samples in
    check_identical (ctx "cached sequential, warm") reference warm;
    let par = Score.evaluate ~pool (decision_oracle ()) program samples in
    check_identical (ctx "parallel") reference par
  done

(* Decision-mode island differential: the archipelago trace must be
   pool-invariant under a label-only oracle too. *)
let decision_islands_check ~pool =
  let training = training_set (Prng.of_int 23) 5 in
  let icfg =
    {
      Oppsla.Islands.default_config with
      Oppsla.Islands.islands = 4;
      rounds = 3;
      migration_period = 2;
      max_queries_per_image = Some 64;
    }
  in
  let run ~use_pool cfg =
    Oppsla.Islands.synthesize ~config:cfg
      ?pool:(if use_pool then Some pool else None)
      (Prng.of_int 23) (decision_oracle ()) ~training
  in
  let ref_out = run ~use_pool:false icfg in
  let par_out = run ~use_pool:true icfg in
  if ref_out.Oppsla.Islands.synth_queries <> par_out.Oppsla.Islands.synth_queries
  then
    fail "decision islands: query spend diverged (%d <> %d)"
      ref_out.Oppsla.Islands.synth_queries par_out.Oppsla.Islands.synth_queries;
  if
    ref_out.Oppsla.Islands.best_avg_queries
    <> par_out.Oppsla.Islands.best_avg_queries
    || not
         (Oppsla.Condition.equal_program ref_out.Oppsla.Islands.best
            par_out.Oppsla.Islands.best)
  then fail "decision islands: best program diverged";
  List.iter2
    (fun (x : Oppsla.Islands.entry) (y : Oppsla.Islands.entry) ->
      if
        x.Oppsla.Islands.accepted <> y.Oppsla.Islands.accepted
        || x.Oppsla.Islands.avg_queries <> y.Oppsla.Islands.avg_queries
        || x.Oppsla.Islands.queries_total <> y.Oppsla.Islands.queries_total
      then
        fail "decision islands: trace diverged at round %d island %d"
          x.Oppsla.Islands.round x.Oppsla.Islands.island)
    ref_out.Oppsla.Islands.trace par_out.Oppsla.Islands.trace

(* Backend differential: the pluggable tensor backend must be invisible
   to query accounting and, on raw scores, obey the tolerance policy —
   the boxed engine's compiled plan is asserted bit-identical to the
   layer-walking engine, while the f32 engine must agree on every
   argmax and keep each logit within [Nn.Backend.score_tol].  The
   attack-record arm then runs the same Sparse-RS corpus through a
   Runner on the checked backend at this cell's (domains, cache)
   coordinates against the boxed sequential reference:
   per-image (queries, success) records must be bit-identical, because
   metering sits above the scoring engine and both backends agree on
   every decision the attack observes. *)

let backend_net () =
  let g = Prng.of_int 321 in
  let width = 8 and classes = 4 in
  Nn.Network.create ~name:"diff_backend"
    ~input_shape:[| 3; size; size |] ~num_classes:classes
    [
      Nn.Layer.conv2d g ~pad:1 ~in_c:3 ~out_c:width ~k:3 ();
      Nn.Layer.channel_norm ~channels:width;
      Nn.Layer.relu ();
      Nn.Layer.conv2d g ~pad:1 ~in_c:width ~out_c:width ~k:3 ();
      Nn.Layer.relu ();
      Nn.Layer.flatten ();
      Nn.Layer.dense g ~in_dim:(width * size * size) ~out_dim:classes ();
    ]

let backend_check ~domains ~cache ~backend =
  let net = backend_net () in
  let samples =
    let g = Prng.of_int 515 in
    Array.init 6 (fun _ ->
        let x = Tensor.rand_uniform (Prng.split g) [| 3; size; size |] in
        (x, Nn.Network.classify net x))
  in
  let classes = 4 in
  let pack1 x =
    let xb = Tensor.zeros [| 1; 3; size; size |] in
    Array.blit x.Tensor.data 0 xb.Tensor.data 0 (Tensor.numel x);
    xb
  in
  let engine_scores =
    match backend with
    | Nn.Backend.Boxed ->
        let plan = Nn.Backend.Boxed_engine.compile net in
        fun x -> Nn.Backend.Boxed_engine.scores_batch plan (pack1 x)
    | Nn.Backend.F32 ->
        let plan = Nn.Backend.F32_engine.compile net in
        fun x -> Nn.Backend.F32_engine.scores_batch plan (pack1 x)
  in
  let bname = Nn.Backend.kind_name backend in
  let argmax t off =
    let best = ref 0 in
    for c = 1 to classes - 1 do
      if Tensor.get_flat t (off + c) > Tensor.get_flat t (off + !best) then
        best := c
    done;
    !best
  in
  Array.iteri
    (fun i (x, _) ->
      let sb = Nn.Network.scores net x in
      let se = engine_scores x in
      (match backend with
      | Nn.Backend.Boxed ->
          (* Same-backend: the compiled plan is the same float64 kernels
             in the same order — bit-equality, not tolerance. *)
          for c = 0 to classes - 1 do
            if Tensor.get_flat se c <> Tensor.get_flat sb c then
              fail
                "backend %s: image %d class %d: plan score %.17g <> layer \
                 score %.17g (must be bit-identical)"
                bname i c (Tensor.get_flat se c) (Tensor.get_flat sb c)
          done
      | Nn.Backend.F32 ->
          for c = 0 to classes - 1 do
            let d =
              abs_float (Tensor.get_flat se c -. Tensor.get_flat sb c)
            in
            if d > Nn.Backend.score_tol then
              fail
                "backend %s: image %d class %d: |score delta| %.3e exceeds \
                 tolerance %.0e"
                bname i c d Nn.Backend.score_tol
          done);
      if argmax se 0 <> argmax sb 0 then
        fail "backend %s: image %d: argmax diverged" bname i)
    samples;
  (* Attack-record arm. *)
  let attacker = Attackers.sparse_rs_space Space.Pixel in
  let max_queries = 60 in
  let strip rs =
    Array.map (fun r -> (r.Runner.queries, r.Runner.success)) rs
  in
  let reference =
    strip
      (Runner.run ~domains:1 ~seed:9 ~max_queries attacker
         ~oracle_factory:(fun () -> Oracle.of_network net)
         samples)
  in
  let caches =
    if cache then Some (Score_cache.store (Array.length samples)) else None
  in
  let checked =
    strip
      (Runner.run ~domains ?caches ~seed:9 ~max_queries attacker
         ~oracle_factory:(fun () -> Oracle.of_network ~backend net)
         samples)
  in
  if reference <> checked then
    fail
      "backend %s (domains %d, cache %b): per-image (queries, success) \
       diverged from the boxed sequential reference"
      bname domains cache;
  (match caches with
  | Some _ ->
      let warm =
        strip
          (Runner.run ~domains ?caches ~seed:9 ~max_queries attacker
             ~oracle_factory:(fun () -> Oracle.of_network ~backend net)
             samples)
      in
      if reference <> warm then
        fail
          "backend %s (domains %d, cache %b): warm-store records diverged"
          bname domains cache
  | None -> ());
  if Array.for_all (fun (q, _) -> q = 0) reference then
    fail "backend %s: no queries were spent" bname

(* Journal differential: the query-provenance journal must prove the
   metering invariant offline.  The cell runs the same Sparse-RS corpus
   twice — the 1-domain uncached boxed reference, then this
   invocation's (domains, cache, backend) coordinates — each arm
   writing its own journal, and the offline auditor must find the
   per-image charge sequences bit-identical.  This is the same
   invariant the live differentials check, proved from the journal
   files alone (no re-execution): what tools/audit.exe does across
   processes, run in-process here.  With [keep], the two journals are
   left at PREFIX.ref.jsonl / PREFIX.chk.jsonl so a dune cell can chain
   the real tools/audit.exe binary over them. *)
let journal_check ~domains ~cache ~backend ~keep =
  let net = backend_net () in
  let samples =
    let g = Prng.of_int 515 in
    Array.init 6 (fun _ ->
        let x = Tensor.rand_uniform (Prng.split g) [| 3; size; size |] in
        (x, Nn.Network.classify net x))
  in
  let attacker = Attackers.sparse_rs_space Space.Pixel in
  let max_queries = 60 in
  let bname = Nn.Backend.kind_name backend in
  let journaled path ~run_id f =
    Telemetry.Journal.set_run_id run_id;
    Telemetry.Journal.to_file path;
    Fun.protect ~finally:Telemetry.Journal.close f
  in
  let ref_path, chk_path =
    match keep with
    | Some prefix -> (prefix ^ ".ref.jsonl", prefix ^ ".chk.jsonl")
    | None ->
        ( Filename.temp_file "oppsla_diff_journal_ref" ".jsonl",
          Filename.temp_file "oppsla_diff_journal_chk" ".jsonl" )
  in
  journaled ref_path ~run_id:"diff-ref" (fun () ->
      ignore
        (Runner.run ~domains:1 ~seed:9 ~max_queries attacker
           ~oracle_factory:(fun () -> Oracle.of_network net)
           samples));
  let caches =
    if cache then Some (Score_cache.store (Array.length samples)) else None
  in
  journaled chk_path ~run_id:"diff-chk" (fun () ->
      ignore
        (Runner.run ~domains ?caches ~seed:9 ~max_queries attacker
           ~oracle_factory:(fun () -> Oracle.of_network ~backend net)
           samples));
  let load p =
    match Evalharness.Audit.load_strict p with
    | j -> j
    | exception Evalharness.Audit.Invalid m ->
        fail "diff_runner: journal %s failed audit: %s" p m
  in
  let jr = load ref_path and jc = load chk_path in
  if jr.Evalharness.Audit.records = [] then
    fail "diff_runner: reference journal is empty (the cell tested nothing)";
  let c = Evalharness.Audit.compare_journals jr jc in
  if not (Evalharness.Audit.identical c) then begin
    prerr_string (Evalharness.Audit.render ~left:ref_path ~right:chk_path c);
    fail
      "diff_runner: journal charge sequences diverged (domains %d, cache %b, \
       backend %s)"
      domains cache bname
  end;
  if keep = None then begin
    Sys.remove ref_path;
    Sys.remove chk_path
  end;
  Printf.printf
    "diff_runner: journal charge sequences bit-identical offline (domains \
     %d, cache %s, backend %s, %d vs %d records)%s\n"
    domains
    (if cache then "on" else "off")
    bname c.Evalharness.Audit.left_total c.Evalharness.Audit.right_total
    (match keep with
    | Some p -> Printf.sprintf " — kept %s.{ref,chk}.jsonl" p
    | None -> "")

(* Profiler differential: the Runtime_events profiler must be
   observation-only.  The same Sparse-RS corpus runs twice at this
   invocation's (domains, cache) coordinates — bare, then with
   the profiler's cursor and observer systhread live — and the
   per-image (queries, success) records must be bit-identical.  The
   profiled arm must also really have observed the run: at least one
   consumer poll must have drained the ring. *)
let profile_check ~domains ~cache =
  if Telemetry.Profiler.running () then
    fail "diff_runner: profiler already attached before the profile cell";
  let net = backend_net () in
  let samples =
    let g = Prng.of_int 515 in
    Array.init 6 (fun _ ->
        let x = Tensor.rand_uniform (Prng.split g) [| 3; size; size |] in
        (x, Nn.Network.classify net x))
  in
  let attacker = Attackers.sparse_rs_space Space.Pixel in
  let max_queries = 60 in
  let run () =
    let caches =
      if cache then Some (Score_cache.store (Array.length samples)) else None
    in
    Array.map
      (fun r -> (r.Runner.queries, r.Runner.success))
      (Runner.run ~domains ?caches ~seed:9 ~max_queries attacker
         ~oracle_factory:(fun () -> Oracle.of_network net)
         samples)
  in
  let reference = run () in
  let polls () =
    Telemetry.Counter.get (Telemetry.Metrics.counter "profiler.polls.total")
  in
  let polls_before = polls () in
  let p = Telemetry.Profiler.start () in
  let profiled =
    Fun.protect ~finally:(fun () -> Telemetry.Profiler.stop p) run
  in
  if reference <> profiled then
    fail
      "diff_runner: per-image (queries, success) diverged with the profiler \
       attached (domains %d, cache %b — the profiler must be \
       observation-only)"
      domains cache;
  if polls () <= polls_before then
    fail "diff_runner: the profiled arm never polled the event ring";
  if Array.for_all (fun (q, _) -> q = 0) reference then
    fail "diff_runner: profile cell spent no queries (tested nothing)";
  Printf.printf
    "diff_runner: profiler observation-only, records bit-identical (domains \
     %d, cache %s, %d ring polls)\n"
    domains
    (if cache then "on" else "off")
    (polls () - polls_before)

(* Stall injection: --stall-selftest forks this executable with
   --stall-inject, which arms a fatal (exit 3) stall watchdog with a
   short timeout, journals a charge, beats once and wedges.  The parent
   asserts the child exited 3 and left a complete post-mortem bundle:
   info.json naming the stall and the wedged loop, a flight-recorder
   ring dump containing the last heartbeat's span context, a registry
   snapshot, and a journal tail whose records still parse and checksum. *)

let inject_run_id = "stall-selftest"
let inject_loop = "stall.inject"

let stall_inject () =
  let _obs =
    Telemetry.Obs.start
      {
        Telemetry.Obs.default with
        Telemetry.Obs.stall_timeout_s = Some 0.4;
        snapshot_interval_s = 0.05;
        journal = Some "stall_inject_journal.jsonl";
        run_id = Some inject_run_id;
      }
  in
  Telemetry.Journal.with_site "stall/inject" (fun () ->
      Telemetry.Journal.with_image 7 (fun () ->
          Telemetry.Journal.record ~key:"corner:1,2,3" ~kind:"corner"
            ~mode:"score" ~hit:false ~backend:"boxed" ()));
  let wd = Telemetry.Watchdog.loop inject_loop in
  Telemetry.Watchdog.with_loop wd (fun () ->
      Telemetry.Watchdog.beat ~image:7 ~iteration:1 ~queries:1 wd;
      (* Wedge: the sampler must abort this sleep with exit 3. *)
      Unix.sleepf 30.);
  fail "diff_runner: stall injection was never aborted"

let stall_selftest () =
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--stall-inject" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  (match status with
  | Unix.WEXITED 3 -> ()
  | Unix.WEXITED n ->
      fail "diff_runner: stall injection exited %d (wanted the stall exit 3)" n
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      fail "diff_runner: stall injection died on signal %d" s);
  let bundle = Filename.concat "_artifacts" ("postmortem-" ^ inject_run_id) in
  let read name =
    let path = Filename.concat bundle name in
    if not (Sys.file_exists path) then
      fail "diff_runner: post-mortem bundle is missing %s" path;
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let contains_sub ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  let info = read "info.json" in
  if not (contains_sub ~sub:{|"reason": "stall"|} info) then
    fail "diff_runner: info.json does not record the stall reason: %s" info;
  if not (contains_sub ~sub:inject_loop info) then
    fail "diff_runner: info.json does not name the wedged loop: %s" info;
  if not (contains_sub ~sub:"stall_inject_journal.jsonl" info) then
    fail "diff_runner: info.json does not point at the journal: %s" info;
  let ring = read "ring.jsonl" in
  if not (contains_sub ~sub:"watchdog.beat" ring) then
    fail "diff_runner: ring dump has no heartbeat events";
  if
    not
      (contains_sub ~sub:(Printf.sprintf {|"loop": "%s"|} inject_loop) ring
      && contains_sub ~sub:{|"image": 7|} ring)
  then
    fail
      "diff_runner: ring dump is missing the last heartbeat's span context \
       (loop + image)";
  let registry = read "registry.json" in
  if String.length registry = 0 then
    fail "diff_runner: registry.json snapshot is empty";
  let tail = read "journal_tail.jsonl" in
  let lines =
    String.split_on_char '\n' tail |> List.filter (fun l -> l <> "")
  in
  if lines = [] then fail "diff_runner: journal tail is empty";
  List.iter
    (fun line ->
      match Evalharness.Audit.parse_record line with
      | r ->
          if r.Evalharness.Audit.site <> "stall/inject" then
            fail "diff_runner: journal tail record has site %S"
              r.Evalharness.Audit.site
      | exception Evalharness.Audit.Invalid m ->
          fail "diff_runner: journal tail record failed audit: %s" m)
    lines;
  let gc = read "gc.json" in
  if not (contains_sub ~sub:{|"quick_stat"|} gc) then
    fail "diff_runner: gc.json has no quick_stat snapshot: %s" gc;
  if not (contains_sub ~sub:{|"minor_collections"|} gc) then
    fail "diff_runner: gc.json quick_stat is missing minor_collections: %s" gc;
  if not (contains_sub ~sub:{|"pauses"|} gc) then
    fail "diff_runner: gc.json is missing the profiler pause table: %s" gc;
  (* The injector configures no trace sink, so the tail must exist but
     carry no events — a missing file would mean dump skipped it. *)
  let trace_tail = read "trace_tail.jsonl" in
  if String.trim trace_tail <> "" then
    fail "diff_runner: trace tail should be empty without a trace sink: %s"
      trace_tail;
  (* Clean up the wreckage the child left in the working directory. *)
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [
      Filename.concat bundle "info.json";
      Filename.concat bundle "ring.jsonl";
      Filename.concat bundle "registry.json";
      Filename.concat bundle "journal_tail.jsonl";
      Filename.concat bundle "gc.json";
      Filename.concat bundle "trace_tail.jsonl";
      "stall_inject_journal.jsonl.tmp";
    ];
  (try Unix.rmdir bundle with Unix.Unix_error _ -> ());
  (try Unix.rmdir "_artifacts" with Unix.Unix_error _ -> ());
  print_endline
    "diff_runner: stall injection exited 3 with a complete post-mortem \
     bundle (ring heartbeat context + parsing journal tail + registry + \
     info + gc snapshot + empty trace tail)"

(* Stratified sample of the scenario cross-product: every oracle x space
   combination gets [n / 6] cells (at least one), with the (domains,
   cache) coordinates drawn from a named PRNG stream so the
   sampled grid is deterministic across runs and machines. *)
let scenario_grid ~pool n =
  let combos =
    [
      (Oracle.Score, Space.Pixel);
      (Oracle.Score, Space.Kpixel 2);
      (Oracle.Score, Space.Patch { h = 2; w = 2 });
      (Oracle.Decision, Space.Pixel);
      (Oracle.Decision, Space.Kpixel 2);
      (Oracle.Decision, Space.Patch { h = 2; w = 2 });
    ]
  in
  let g = Prng.named_stream (Prng.of_int 2026) "diff/scenario-grid" in
  let per_combo = max 1 (n / List.length combos) in
  let cells = ref 0 in
  List.iter
    (fun (oracle_mode, space) ->
      for _ = 1 to per_combo do
        let domains = if Prng.bool g then 1 else 4 in
        let cache = Prng.bool g in
        scenario_check ~domains ~cache ~oracle_mode ~space;
        incr cells;
        Printf.printf
          "diff_runner: scenario cell %s/%s bit-identical (domains %d, \
           cache %s)\n"
          (mode_name oracle_mode) (Space.to_string space) domains
          (if cache then "on" else "off")
      done)
    combos;
  decision_evaluate_check ~pool;
  decision_islands_check ~pool;
  Printf.printf
    "diff_runner: %d sampled scenario cells + decision-mode evaluation \
     and island differentials bit-identical\n"
    !cells

let () =
  let omode = ref Oracle.Score in
  let space = ref Space.Pixel in
  let grid = ref 0 in
  let bknd = ref None in
  let jrnl = ref false in
  let jkeep = ref None in
  let prof = ref false in
  let stall = ref `None in
  let rec parse domains cache trace observe islands = function
    | "--domains" :: n :: rest -> (
        match int_of_string_opt n with
        | Some d when d >= 1 -> parse d cache trace observe islands rest
        | _ -> fail "diff_runner: bad --domains %s" n)
    | "--cache" :: v :: rest -> (
        match v with
        | "on" -> parse domains true trace observe islands rest
        | "off" -> parse domains false trace observe islands rest
        | _ -> fail "diff_runner: bad --cache %s (expected on|off)" v)
    | "--trace" :: v :: rest -> (
        match v with
        | "on" -> parse domains cache true observe islands rest
        | "off" -> parse domains cache false observe islands rest
        | _ -> fail "diff_runner: bad --trace %s (expected on|off)" v)
    | "--observe" :: v :: rest -> (
        match v with
        | "on" -> parse domains cache trace true islands rest
        | "off" -> parse domains cache trace false islands rest
        | _ -> fail "diff_runner: bad --observe %s (expected on|off)" v)
    | "--islands" :: n :: rest -> (
        match int_of_string_opt n with
        | Some k when k >= 1 -> parse domains cache trace observe k rest
        | _ -> fail "diff_runner: bad --islands %s" n)
    | "--oracle" :: v :: rest -> (
        match v with
        | "score" ->
            omode := Oracle.Score;
            parse domains cache trace observe islands rest
        | "decision" ->
            omode := Oracle.Decision;
            parse domains cache trace observe islands rest
        | _ -> fail "diff_runner: bad --oracle %s (expected score|decision)" v)
    | "--space" :: v :: rest -> (
        match Space.of_string v with
        | Some s ->
            space := s;
            parse domains cache trace observe islands rest
        | None -> fail "diff_runner: bad --space %s" v)
    | "--backend" :: v :: rest -> (
        match Nn.Backend.kind_of_string v with
        | Some k ->
            bknd := Some k;
            parse domains cache trace observe islands rest
        | None -> fail "diff_runner: bad --backend %s (expected boxed|f32)" v)
    | "--journal" :: v :: rest -> (
        match v with
        | "on" ->
            jrnl := true;
            parse domains cache trace observe islands rest
        | "off" ->
            jrnl := false;
            parse domains cache trace observe islands rest
        | _ -> fail "diff_runner: bad --journal %s (expected on|off)" v)
    | "--journal-keep" :: p :: rest ->
        jkeep := Some p;
        parse domains cache trace observe islands rest
    | "--profile" :: v :: rest -> (
        match v with
        | "on" ->
            prof := true;
            parse domains cache trace observe islands rest
        | "off" ->
            prof := false;
            parse domains cache trace observe islands rest
        | _ -> fail "diff_runner: bad --profile %s (expected on|off)" v)
    | "--stall-selftest" :: rest ->
        stall := `Selftest;
        parse domains cache trace observe islands rest
    | "--stall-inject" :: rest ->
        stall := `Inject;
        parse domains cache trace observe islands rest
    | "--sample-grid" :: n :: rest -> (
        match int_of_string_opt n with
        | Some k when k >= 1 ->
            grid := k;
            parse domains cache trace observe islands rest
        | _ -> fail "diff_runner: bad --sample-grid %s" n)
    | [] -> (domains, cache, trace, observe, islands)
    | a :: _ -> fail "diff_runner: unknown argument %s" a
  in
  let domains, cache, trace, observe, islands =
    parse 4 false false false 1
      (List.tl (Array.to_list Sys.argv))
  in
  (match !stall with
  | `Inject -> stall_inject ()
  | `Selftest ->
      stall_selftest ();
      exit 0
  | `None -> ());
  if !jrnl then begin
    journal_check ~domains ~cache
      ~backend:(Option.value !bknd ~default:Nn.Backend.Boxed)
      ~keep:!jkeep;
    exit 0
  end;
  if !prof then begin
    profile_check ~domains ~cache;
    exit 0
  end;
  let scenario_mode =
    !grid > 0 || !omode <> Oracle.Score || !space <> Space.Pixel
  in
  (* With --observe on, the runtime sampler runs live around the whole
     grid.  It is a read-only consumer of the registry; the
     differentials below verify it stays that way. *)
  let ticks_before = Telemetry.Sampler.timed_ticks () in
  let sampler =
    if observe then
      Some
        (Telemetry.Sampler.start
           {
             Telemetry.Sampler.interval_s = 0.02;
             snapshot_path = None;
             stall_after_s = 60.;
             abort_on_stall = false;
           })
    else None
  in
  (* With --trace on, checked runs emit real trace events while every
     reference is computed with the sink masked: a live on-vs-off
     differential inside one process. *)
  let trace_file =
    if trace then begin
      let f = Filename.temp_file "oppsla_diff_trace" ".json" in
      Telemetry.Trace.to_file f;
      Some f
    end
    else None
  in
  let untraced f = if trace then Telemetry.Trace.without f else f () in
  let store_for samples =
    if cache then Some (Score_cache.store (Array.length samples)) else None
  in
  let gen_config = { Oppsla.Gen.d1 = size; d2 = size } in
  Domain_pool.Pool.with_pool ~domains (fun pool ->
      match !bknd with
      | Some backend ->
          (* Backend mode: one cross-backend cell at this invocation's
             --domains/--cache coordinates. *)
          backend_check ~domains ~cache ~backend;
          Printf.printf
            "diff_runner: backend %s records bit-identical, scores within \
             tolerance (domains %d, cache %s)\n"
            (Nn.Backend.kind_name backend)
            domains
            (if cache then "on" else "off")
      | None ->
      if scenario_mode then
        (* Scenario mode: --sample-grid runs the stratified cross-product
           sample; --oracle/--space alone run one cell at this
           invocation's --domains/--cache coordinates. *)
        if !grid > 0 then scenario_grid ~pool !grid
        else begin
          scenario_check ~domains ~cache ~oracle_mode:!omode ~space:!space;
          Printf.printf
            "diff_runner: scenario %s/%s bit-identical (domains %d, cache \
             %s)\n"
            (mode_name !omode) (Space.to_string !space) domains
            (if cache then "on" else "off")
        end
      else begin
      (* One pass of the grid: the evaluation and synthesis
         differentials. *)
      let grid_pass () =
        (* Evaluation differential.  The uncached sequential run is always
           the reference. *)
        for trial = 0 to 11 do
          let g = Prng.of_int ((domains * 7919) + trial) in
          let samples = training_set (Prng.split g) (1 + Prng.int g 8) in
          let program = Oppsla.Gen.random_program gen_config g in
          let max_queries =
            if Prng.bool g then None else Some (1 + Prng.int g 80)
          in
          let ctx kind =
            Printf.sprintf "trial %d (domains %d, cache %b, %s)" trial domains
              cache kind
          in
          (* The reference is always the uncached sequential path: every
             other configuration must reproduce it. *)
          let reference =
            untraced (fun () ->
                Score.evaluate ?max_queries (mean_threshold_oracle ()) program
                  samples)
          in
          (match store_for samples with
          | Some _ as caches ->
              (* Cold store, then the same store warm (every lookup hits),
                 then a parallel run on a fresh store. *)
              let cold =
                Score.evaluate ?max_queries ?caches (mean_threshold_oracle ())
                  program samples
              in
              check_identical (ctx "cached sequential, cold") reference cold;
              let warm =
                Score.evaluate ?max_queries ?caches (mean_threshold_oracle ())
                  program samples
              in
              check_identical (ctx "cached sequential, warm") reference warm
          | None -> ());
          let par =
            Score.evaluate ?max_queries ?caches:(store_for samples) ~pool
              (mean_threshold_oracle ()) program samples
          in
          check_identical (ctx "parallel") reference par;
          (* The staged path: a PAC evaluation that can never prune visits
             the images in a random order, one pool map per stage, and
             must complete with the reference's accounting. *)
          let order = Prng.permutation (Prng.split g) (Array.length samples) in
          let pac =
            {
              Score.default_pac with
              min_images = 1;
              stage = 1 + Prng.int g 4;
              range = Some 1.;
            }
          in
          match
            Score.evaluate_pac ?max_queries ?caches:(store_for samples) ~pool
              ~pac ~threshold:infinity ~order (mean_threshold_oracle ())
              program samples
          with
          | Score.Complete staged ->
              check_identical (ctx "staged") reference staged
          | Score.Pruned _ ->
              fail "%s: pruned below an infinite threshold" (ctx "staged")
        done;
        (* Synthesis differential: the island trace (at --islands 1, the
           single MH chain of Algorithm 2) must be invariant under the
           same axes.  The reference is the sequential run (no pool, no
           cache); the checked runs apply this grid point's pool and cache
           settings, plus a pool-less cached run when the cache is on.
           Early stopping stays off here — its determinism has its own
           suite in test_islands.ml — so every proposal is scored exactly
           on both arms. *)
        let training = training_set (Prng.of_int 23) 5 in
        let icfg =
          {
            Oppsla.Islands.default_config with
            Oppsla.Islands.islands;
            rounds = 4;
            migration_period = 2;
            max_queries_per_image = Some 64;
          }
        in
        let run ?pool ?caches cfg =
          Oppsla.Islands.synthesize ~config:cfg ?pool ?caches (Prng.of_int 23)
            (mean_threshold_oracle ()) ~training
        in
        let ref_out = untraced (fun () -> run icfg) in
        let check_islands arm (out : Oppsla.Islands.outcome) =
          let spent (o : Oppsla.Islands.outcome) = o.Oppsla.Islands.synth_queries in
          if spent ref_out <> spent out then
            fail "islands (%s): query spend diverged (%d <> %d)" arm
              (spent ref_out) (spent out);
          if
            ref_out.Oppsla.Islands.best_avg_queries
            <> out.Oppsla.Islands.best_avg_queries
            || not
                 (Oppsla.Condition.equal_program ref_out.Oppsla.Islands.best
                    out.Oppsla.Islands.best)
          then fail "islands (%s): best program diverged" arm;
          if
            List.length ref_out.Oppsla.Islands.trace
            <> List.length out.Oppsla.Islands.trace
          then fail "islands (%s): trace length diverged" arm;
          List.iter2
            (fun (x : Oppsla.Islands.entry) (y : Oppsla.Islands.entry) ->
              if
                x.Oppsla.Islands.round <> y.Oppsla.Islands.round
                || x.Oppsla.Islands.island <> y.Oppsla.Islands.island
                || x.Oppsla.Islands.accepted <> y.Oppsla.Islands.accepted
                || x.Oppsla.Islands.avg_queries <> y.Oppsla.Islands.avg_queries
                || x.Oppsla.Islands.queries_total
                   <> y.Oppsla.Islands.queries_total
                || not
                     (Oppsla.Condition.equal_program x.Oppsla.Islands.program
                        y.Oppsla.Islands.program)
              then
                fail "islands (%s): trace diverged at round %d island %d" arm
                  x.Oppsla.Islands.round x.Oppsla.Islands.island)
            ref_out.Oppsla.Islands.trace out.Oppsla.Islands.trace
        in
        check_islands "parallel" (run ~pool ?caches:(store_for training) icfg);
        if cache then
          check_islands "cached sequential"
            (run ?caches:(store_for training) icfg)
      in
      (* Under --observe on the grid must run while the sampler ticks,
         and one pass can finish inside a single 20 ms interval.  So
         repeat the whole grid, every differential checked on each pass,
         until a pass returns after the sampler's loop reached a
         deadline; give up after 2 s. *)
      (match sampler with
      | None -> grid_pass ()
      | Some _ ->
          let give_up = Unix.gettimeofday () +. 2. in
          let rec repeat passes =
            grid_pass ();
            if Telemetry.Sampler.timed_ticks () > ticks_before then ()
            else if Unix.gettimeofday () >= give_up then
              fail
                "diff_runner: the sampler loop reached no deadline in %d \
                 grid passes (2 s)"
                passes
            else repeat (passes + 1)
          in
          repeat 1);
      (match trace_file with
      | None -> ()
      | Some f ->
          Telemetry.Trace.close ();
          (* The traced arm must actually have emitted events — an empty
             trace would mean the differential tested nothing. *)
          let ic = open_in f in
          let lines = ref 0 in
          (try
             while true do
               ignore (input_line ic);
               incr lines
             done
           with End_of_file -> close_in ic);
          if !lines <= 2 then
            fail "diff_runner: --trace on produced an empty trace (%d lines)"
              !lines;
          Sys.remove f);
      (match sampler with
      | None -> ()
      | Some sampler ->
          (* The observed arm must have actually been observable: the
             registry metered the grid's queries and the watchdog saw no
             stalled loop (the sampler's deadline tick was checked while
             the grid ran). *)
          if
            Telemetry.Counter.get
              (Telemetry.Metrics.counter "oracle.queries.total")
            = 0
          then fail "diff_runner: the registry metered no oracle queries";
          (match Telemetry.Watchdog.stalled ~stall_after_s:60. () with
          | [] -> ()
          | stalled ->
              fail "diff_runner: the watchdog reports stalled loops: %s"
                (String.concat ", "
                   (List.map (fun s -> s.Telemetry.Watchdog.name) stalled)));
          Telemetry.Sampler.stop sampler);
      Printf.printf
        "diff_runner: sequential and %d-domain evaluation bit-identical \
         with cache %s, trace %s, observe %s, islands %d (12 evaluation \
         trials + synthesis trace)\n"
        domains
        (if cache then "on" else "off")
        (if trace then "on" else "off")
        (if observe then "on" else "off")
        islands
      end)
