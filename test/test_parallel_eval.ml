(* The parallel-execution differential suite.

   The paper's cost model is oracle queries, so the parallel evaluator is
   only admissible if it is *bit-identical* to the sequential one: same
   per-image query counts and success flags, same float average, at every
   domain count.  These tests lock that contract down, plus the
   Domain_pool.Pool lifecycle/exception semantics the evaluator rests on.
   The same differential check also runs as a standalone executable
   (diff_runner.ml) wired into the `runtest` alias with --domains 1/4. *)

module Score = Oppsla.Score
module Islands = Oppsla.Islands
module C = Oppsla.Condition

let size = 4

(* A mixed training set: attackable flat images near the oracle's
   threshold, a hopeless dark image, and noisy images whose attack cost
   varies with the program under evaluation. *)
let training_set g n =
  Array.init n (fun i ->
      match i mod 4 with
      | 0 -> (Helpers.flat_image ~size (0.45 +. Prng.float g 0.1), 0)
      | 1 -> (Helpers.flat_image ~size 0.30, 0)
      | 2 ->
          (Tensor.rand_uniform g ~lo:0.35 ~hi:0.65 [| 3; size; size |], 0)
      | _ ->
          (Tensor.rand_uniform g ~lo:0.4 ~hi:0.6 [| 3; size; size |], 1))

let check_identical name (seq : Score.evaluation) (par : Score.evaluation) =
  Alcotest.(check (float 0.))
    (name ^ ": avg_queries bit-identical")
    seq.Score.avg_queries par.Score.avg_queries;
  Alcotest.(check int) (name ^ ": successes") seq.Score.successes
    par.Score.successes;
  Alcotest.(check int) (name ^ ": attempts") seq.Score.attempts
    par.Score.attempts;
  Alcotest.(check int) (name ^ ": total_queries") seq.Score.total_queries
    par.Score.total_queries;
  Alcotest.(check (list (pair int bool)))
    (name ^ ": per-image queries and flags")
    (Array.to_list
       (Array.map (fun e -> (e.Score.queries, e.Score.success)) seq.per_image))
    (Array.to_list
       (Array.map (fun e -> (e.Score.queries, e.Score.success)) par.per_image))

(* Differential test: randomized programs, images and domain counts. *)

let differential_evaluation () =
  let gen_config = Helpers.gen_config ~size in
  List.iter
    (fun domains ->
      Domain_pool.Pool.with_pool ~domains (fun pool ->
          for trial = 0 to 7 do
            let g = Prng.of_int ((domains * 1000) + trial) in
            let samples = training_set (Prng.split g) (1 + Prng.int g 9) in
            let program = Oppsla.Gen.random_program gen_config g in
            let max_queries =
              if Prng.bool g then None else Some (1 + Prng.int g 100)
            in
            let seq =
              Score.evaluate ?max_queries
                (Helpers.mean_threshold_oracle ())
                program samples
            in
            let par =
              Score.evaluate ?max_queries ~pool
                (Helpers.mean_threshold_oracle ())
                program samples
            in
            check_identical
              (Printf.sprintf "domains=%d trial=%d" domains trial)
              seq par
          done))
    [ 1; 2; 4; 8 ]

(* Runner.run and Score.evaluate share one per-image loop: attacking
   with [Attackers.oppsla_single p] through the runner (a fresh oracle
   per image, the cache slot attached to it) must give the records of
   [Score.evaluate p], inline and pooled, with and without a store. *)
let qcheck_runner_matches_score =
  QCheck.Test.make ~name:"Runner.run oppsla_single = Score.evaluate"
    ~count:20 QCheck.small_int (fun seed ->
      let g = Prng.of_int (seed + 7001) in
      let samples = training_set (Prng.split g) (1 + Prng.int g 9) in
      let program = Oppsla.Gen.random_program (Helpers.gen_config ~size) g in
      let max_queries = 1 + Prng.int g 100 in
      let expected =
        (Score.evaluate ~max_queries (Helpers.mean_threshold_oracle ()) program
           samples)
          .Score.per_image
        |> Array.map (fun e -> (e.Score.queries, e.Score.success))
      in
      List.for_all
        (fun (domains, cache) ->
          Domain_pool.Pool.with_pool ~domains (fun pool ->
              let caches =
                if cache then Some (Score_cache.store (Array.length samples))
                else None
              in
              let records =
                Evalharness.Runner.run ~pool ?caches ~seed ~max_queries
                  (Evalharness.Attackers.oppsla_single program)
                  ~oracle_factory:(fun () -> Helpers.mean_threshold_oracle ())
                  samples
              in
              Array.map
                (fun (r : Evalharness.Runner.record) ->
                  (r.Evalharness.Runner.queries, r.Evalharness.Runner.success))
                records
              = expected))
        [ (1, false); (1, true); (2, false); (2, true) ])

let evaluate_parallel_clones_oracle () =
  (* The caller's oracle handle is never queried: each image attacks its
     own clone, so the shared counter cannot race. *)
  let oracle = Helpers.mean_threshold_oracle () in
  Domain_pool.Pool.with_pool ~domains:4 (fun pool ->
      let e =
        Score.evaluate ~pool oracle C.const_false_program
          (training_set (Prng.of_int 1) 6)
      in
      Alcotest.(check bool) "queries were posed" true (e.Score.total_queries > 0);
      Alcotest.(check int) "caller handle unmetered" 0 (Oracle.queries oracle))

(* Determinism regression: the synthesizer's accepted-program trace must
   not depend on whether a pool backs its evaluations. *)

let synthesizer_pool_matches_sequential () =
  let training = training_set (Prng.of_int 42) 5 in
  let config =
    {
      Islands.default_config with
      islands = 1;
      rounds = 8;
      max_queries_per_image = Some 64;
    }
  in
  let run pool =
    Islands.synthesize ~config ?pool (Prng.of_int 11)
      (Helpers.mean_threshold_oracle ())
      ~training
  in
  let seq = run None in
  Domain_pool.Pool.with_pool ~domains:4 (fun pool ->
      let par = run (Some pool) in
      Alcotest.(check int) "same trace length"
        (List.length seq.Islands.trace)
        (List.length par.Islands.trace);
      List.iter2
        (fun (a : Islands.entry) (b : Islands.entry) ->
          Alcotest.(check int) "same round" a.Islands.round b.Islands.round;
          Alcotest.(check bool) "same acceptance" a.Islands.accepted
            b.Islands.accepted;
          Alcotest.(check (float 0.)) "same avg" a.Islands.avg_queries
            b.Islands.avg_queries;
          Alcotest.(check int) "same cumulative queries"
            a.Islands.queries_total b.Islands.queries_total;
          Alcotest.(check bool) "same program" true
            (C.equal_program a.Islands.program b.Islands.program))
        seq.Islands.trace par.Islands.trace;
      Alcotest.(check bool) "same final program" true
        (C.equal_program seq.Islands.islands.(0).Islands.final
           par.Islands.islands.(0).Islands.final);
      Alcotest.(check int) "same synthesis spend" seq.Islands.synth_queries
        par.Islands.synth_queries)

(* Pool lifecycle and scheduling properties. *)

let qcheck_pool_map_matches_array_map =
  QCheck.Test.make ~name:"Pool.map equals Array.map"
    ~count:40
    QCheck.(pair (int_range 1 8) (list small_int))
    (fun (domains, items) ->
      let xs = Array.of_list items in
      let f x = (x * 31) + (x mod 7) in
      Domain_pool.Pool.with_pool ~domains (fun pool ->
          Domain_pool.Pool.map pool f xs = Array.map f xs))

let pool_map_edge_sizes () =
  Domain_pool.Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check (array int)) "empty" [||]
        (Domain_pool.Pool.map pool succ [||]);
      Alcotest.(check (array int)) "singleton" [| 8 |]
        (Domain_pool.Pool.map pool succ [| 7 |]);
      (* The pool survives many batches (the persistent hot path). *)
      for i = 1 to 50 do
        let xs = Array.init i Fun.id in
        Alcotest.(check (array int))
          (Printf.sprintf "batch %d" i)
          (Array.map succ xs)
          (Domain_pool.Pool.map pool succ xs)
      done)

let pool_reraises_worker_exception () =
  Domain_pool.Pool.with_pool ~domains:4 (fun pool ->
      List.iter
        (fun bad ->
          match
            Domain_pool.Pool.map pool
              (fun x -> if x = bad then failwith "boom" else x)
              (Array.init 16 Fun.id)
          with
          | _ -> Alcotest.fail "expected Failure"
          | exception Failure msg ->
              Alcotest.(check string)
                (Printf.sprintf "original exception for item %d" bad)
                "boom" msg)
        [ 0; 7; 15 ];
      (* The pool stays usable after a failed job. *)
      Alcotest.(check (array int)) "pool survives failure"
        (Array.init 8 succ)
        (Domain_pool.Pool.map pool succ (Array.init 8 Fun.id)))

let pool_first_exception_wins () =
  (* All items raise; the caller must see exactly one of the original
     exceptions (the first one raised, in wall-clock order), never a
     wrapper or a "missing result" artifact. *)
  Domain_pool.Pool.with_pool ~domains:4 (fun pool ->
      match
        Domain_pool.Pool.map pool
          (fun x -> failwith (Printf.sprintf "item-%d" x))
          (Array.init 32 Fun.id)
      with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg ->
          Alcotest.(check bool)
            (Printf.sprintf "an original item exception (%s)" msg)
            true
            (String.length msg > 5 && String.sub msg 0 5 = "item-"))

let shutdown_rejects_new_work () =
  let pool = Domain_pool.Pool.create ~domains:3 () in
  Alcotest.(check (array int)) "works before shutdown" [| 1; 2 |]
    (Domain_pool.Pool.map pool succ [| 0; 1 |]);
  Domain_pool.Pool.shutdown pool;
  Domain_pool.Pool.shutdown pool;
  (* idempotent *)
  Alcotest.(check bool) "rejects instead of hanging" true
    (try
       ignore (Domain_pool.Pool.map pool succ [| 0; 1 |]);
       false
     with Invalid_argument _ -> true)

let pool_stats_accounting () =
  Domain_pool.Pool.with_pool ~domains:2 (fun pool ->
      ignore (Domain_pool.Pool.map pool succ (Array.init 10 Fun.id));
      ignore (Domain_pool.Pool.map pool succ (Array.init 5 Fun.id));
      let s = Domain_pool.Pool.stats pool in
      Alcotest.(check int) "jobs" 2 s.Domain_pool.Pool.jobs;
      Alcotest.(check int) "tasks" 15 s.Domain_pool.Pool.tasks;
      Alcotest.(check int) "domains" 2 s.Domain_pool.Pool.domains;
      Alcotest.(check bool) "steals bounded by tasks" true
        (s.Domain_pool.Pool.steals <= s.Domain_pool.Pool.tasks);
      Alcotest.(check bool) "busy time recorded" true
        (s.Domain_pool.Pool.busy_seconds >= 0.))

(* A map on a fresh pool of each width: the exception contract that
   used to be maskable (a worker-domain exception surfaced as
   Fun.Finally_raised via Domain.join, or items silently missing) is
   explicit, inline and parallel. *)

let legacy_map_preserves_original_exception () =
  List.iter
    (fun domains ->
      match
        Domain_pool.Pool.with_pool ~domains (fun pool ->
            Domain_pool.Pool.map pool
              (fun x -> if x >= 6 then failwith "original" else x)
              (Array.init 8 Fun.id))
      with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "unwrapped at domains=%d" domains)
            "original" msg)
    [ 1; 2; 4; 8 ]

(* A map that raises on item 2 of 3 still finishes its job, inline
   (width 1) and parallel (width 2): the in-flight gauge is back at 0,
   so a post-mortem registry dump does not report a job that is no
   longer running, and [jobs] counts the failed job. *)
let failed_map_finishes_job () =
  let inflight = Telemetry.Metrics.gauge "pool.job_inflight" in
  List.iter
    (fun domains ->
      Domain_pool.Pool.with_pool ~domains (fun pool ->
          let jobs () = (Domain_pool.Pool.stats pool).Domain_pool.Pool.jobs in
          let before = jobs () in
          (match
             Domain_pool.Pool.map pool
               (fun x -> if x = 2 then failwith "boom" else x)
               [| 1; 2; 3 |]
           with
          | _ -> Alcotest.fail "expected Failure"
          | exception Failure _ -> ());
          Alcotest.(check (float 0.))
            (Printf.sprintf "gauge at 0, width %d" domains)
            0. (Telemetry.Gauge.get inflight);
          Alcotest.(check int)
            (Printf.sprintf "one more job, width %d" domains)
            (before + 1) (jobs ())))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "differential: parallel = sequential" `Quick
      differential_evaluation;
    Alcotest.test_case "evaluate_parallel clones the oracle" `Quick
      evaluate_parallel_clones_oracle;
    QCheck_alcotest.to_alcotest qcheck_runner_matches_score;
    Alcotest.test_case "synthesizer: pool trace = sequential trace" `Quick
      synthesizer_pool_matches_sequential;
    QCheck_alcotest.to_alcotest qcheck_pool_map_matches_array_map;
    Alcotest.test_case "pool map edge sizes" `Quick pool_map_edge_sizes;
    Alcotest.test_case "pool re-raises worker exception" `Quick
      pool_reraises_worker_exception;
    Alcotest.test_case "pool first exception wins" `Quick
      pool_first_exception_wins;
    Alcotest.test_case "shutdown rejects new work" `Quick
      shutdown_rejects_new_work;
    Alcotest.test_case "pool stats accounting" `Quick pool_stats_accounting;
    Alcotest.test_case "legacy map preserves original exception" `Quick
      legacy_map_preserves_original_exception;
    Alcotest.test_case "failed map finishes its job" `Quick
      failed_map_finishes_job;
  ]
