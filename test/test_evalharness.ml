(* Tests for the evaluation harness: parallel map, runner statistics,
   report rendering, attacker plumbing and the bench regression gate. *)

module Runner = Evalharness.Runner
module Report = Evalharness.Report
module Attackers = Evalharness.Attackers
module Regress = Evalharness.Regress

(* Parallel: [Pool.map] on a fresh pool of each width *)

let pool_map ~domains f xs =
  Domain_pool.Pool.with_pool ~domains (fun pool ->
      Domain_pool.Pool.map pool f xs)

let parallel_matches_sequential () =
  let xs = Array.init 37 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int)) "same results" (Array.map f xs)
    (pool_map ~domains:4 f xs)

let parallel_sequential_fallback () =
  let xs = Array.init 5 Fun.id in
  Alcotest.(check (array int)) "domains=1" (Array.map succ xs)
    (pool_map ~domains:1 succ xs)

let parallel_empty () =
  Alcotest.(check (array int))
    "empty" [||]
    (pool_map ~domains:4 succ [||])

let parallel_propagates_exceptions () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (pool_map ~domains:2
            (fun x -> if x = 3 then failwith "boom" else x)
            (Array.init 8 Fun.id));
       false
     with Failure _ -> true)

let parallel_order_preserved () =
  (* Work of uneven cost must still land at the right indices. *)
  let xs = Array.init 16 Fun.id in
  let f x =
    let n = if x mod 2 = 0 then 10000 else 10 in
    let acc = ref 0 in
    for i = 1 to n do
      acc := (!acc + i) mod 97
    done;
    (x, !acc)
  in
  let results = pool_map ~domains:3 f xs in
  Array.iteri
    (fun i (x, _) -> Alcotest.(check int) "index" i x)
    results

(* Runner statistics *)

let record ~success ~queries =
  { Runner.true_class = 0; success; queries }

let success_rates () =
  let records =
    [|
      record ~success:true ~queries:5;
      record ~success:true ~queries:50;
      record ~success:false ~queries:100;
      record ~success:true ~queries:200;
    |]
  in
  Alcotest.(check (float 1e-9)) "at 10" 0.25 (Runner.success_rate_at records 10);
  Alcotest.(check (float 1e-9)) "at 50" 0.5 (Runner.success_rate_at records 50);
  Alcotest.(check (float 1e-9)) "at 1000" 0.75
    (Runner.success_rate_at records 1000);
  Alcotest.(check (float 1e-9)) "overall" 0.75 (Runner.success_rate records)

let success_rate_empty () =
  Alcotest.(check (float 1e-9)) "empty" 0. (Runner.success_rate_at [||] 10)

let avg_and_median () =
  let records =
    [|
      record ~success:true ~queries:10;
      record ~success:false ~queries:999;
      record ~success:true ~queries:20;
      record ~success:true ~queries:90;
    |]
  in
  Alcotest.(check (option (float 1e-9))) "avg over successes" (Some 40.)
    (Runner.avg_queries records);
  Alcotest.(check (option (float 1e-9))) "odd median" (Some 20.)
    (Runner.median_queries records);
  let even =
    [| record ~success:true ~queries:10; record ~success:true ~queries:20 |]
  in
  Alcotest.(check (option (float 1e-9))) "even median" (Some 15.)
    (Runner.median_queries even);
  Alcotest.(check (option (float 1e-9))) "no successes" None
    (Runner.avg_queries [| record ~success:false ~queries:7 |])

(* Report *)

let table_renders () =
  let s =
    Report.table ~headers:[ "a"; "long header" ]
      ~rows:[ [ "1"; "2" ]; [ "wide cell"; "x" ] ]
  in
  Alcotest.(check bool) "has header" true (Helpers.contains s "long header");
  Alcotest.(check bool) "has cell" true (Helpers.contains s "wide cell");
  (* All lines are equally wide (box alignment). *)
  let widths =
    String.split_on_char '\n' s |> List.map String.length |> List.sort_uniq compare
  in
  Alcotest.(check int) "uniform width" 1 (List.length widths)

let table_ragged_raises () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Report.table ~headers:[ "a"; "b" ] ~rows:[ [ "only one" ] ]);
       false
     with Invalid_argument _ -> true)

let formatting_helpers () =
  Alcotest.(check string) "none" "-" (Report.float_opt None);
  Alcotest.(check string) "some" "12.35" (Report.float_opt (Some 12.345));
  Alcotest.(check string) "percent" "59.0%" (Report.percent 0.59)

(* Attackers *)

let oppsla_routes_by_class () =
  (* Program for class 0 checks the whole space; class 1 has a program
     too; class 2 is missing -> error. *)
  let programs =
    [|
      Oppsla.Condition.const_false_program;
      Oppsla.Condition.const_false_program;
    |]
  in
  let attacker = Attackers.oppsla ~programs in
  let oracle = Helpers.mean_threshold_oracle () in
  let image = Helpers.flat_image ~size:4 0.49 in
  let r =
    attacker.Attackers.run (Prng.of_int 1) oracle ~goal:Oppsla.Sketch.Untargeted
      ~max_queries:10 ~batch:1 ~image ~true_class:0
  in
  Alcotest.(check bool) "class 0 works" true (r.Oppsla.Sketch.adversarial <> None);
  Alcotest.(check bool) "missing class raises" true
    (try
       ignore
         (attacker.Attackers.run (Prng.of_int 1) oracle
            ~goal:Oppsla.Sketch.Untargeted ~max_queries:10 ~batch:1 ~image
            ~true_class:5);
       false
     with Invalid_argument _ -> true)

let attacker_names () =
  Alcotest.(check string) "oppsla" "OPPSLA"
    (Attackers.oppsla ~programs:[||]).Attackers.name;
  Alcotest.(check string) "sketch false" "Sketch+False"
    Attackers.sketch_false.Attackers.name;
  Alcotest.(check string) "sparse-rs" "Sparse-RS"
    Attackers.sparse_rs.Attackers.name;
  Alcotest.(check string) "suopa" "SuOPA" (Attackers.su_opa ()).Attackers.name

(* A long image attack must not look stalled: the runner stamps the
   image index on the "eval.image" slot without entering it, so while an
   attacker runs, only the attacker's own slot (beaten per query) can
   flag a stall.  The probe attacker enters no slot and asks for the
   stall list a minute into the future, as the --stall-timeout sampler
   would see it after a minute-long attack. *)
let runner_attack_never_stalls () =
  let seen = ref [] in
  let probe =
    {
      Attackers.name = "stall-probe";
      run =
        (fun _g _oracle ~goal:_ ~max_queries:_ ~batch:_ ~image:_
             ~true_class:_ ->
          let now_us = Telemetry.Clock.now_us () +. 60e6 in
          seen :=
            List.map
              (fun (s : Telemetry.Watchdog.status) -> s.Telemetry.Watchdog.name)
              (Telemetry.Watchdog.stalled ~now_us ~stall_after_s:30. ())
            @ !seen;
          { Oppsla.Sketch.adversarial = None; queries = 0 });
    }
  in
  ignore
    (Runner.run ~domains:1 ~seed:1 ~max_queries:1 probe
       ~oracle_factory:(fun () -> Helpers.mean_threshold_oracle ())
       [| (Helpers.flat_image ~size:4 0.5, 0) |]);
  Alcotest.(check (list string)) "no loop stalled" [] !seen

(* Regression gate *)

let gate_passes ~baseline ~fresh =
  let metrics text = Regress.flatten (Regress.parse_json text) in
  Regress.passed
    (Regress.compare_metrics ~baseline:(metrics baseline)
       ~fresh:(metrics fresh) ())

let gate_exact_query_total () =
  Alcotest.(check bool) "one more query fails" false
    (gate_passes ~baseline:{|{"total_queries": 2560}|}
       ~fresh:{|{"total_queries": 2561}|})

let gate_exact_identity_flag () =
  Alcotest.(check bool) "flipped flag fails" false
    (gate_passes ~baseline:{|{"queries_identical": true}|}
       ~fresh:{|{"queries_identical": false}|})

let gate_overhead_growth () =
  Alcotest.(check bool) "0.0 -> 0.05 fails" false
    (gate_passes ~baseline:{|{"overhead_fraction": 0.0}|}
       ~fresh:{|{"overhead_fraction": 0.05}|})

let gate_overhead_sign_flip () =
  Alcotest.(check bool) "-0.01 -> 0.01 passes" true
    (gate_passes ~baseline:{|{"overhead_fraction": -0.01}|}
       ~fresh:{|{"overhead_fraction": 0.01}|})

(* A pooled Score.evaluate over Workbench.oracle_factory scores through
   the classifier's backend: an F32 classifier's evaluation advances the
   f32 GEMM counters and leaves the boxed ones untouched, inline or over
   a pool (where every image attacks an Oracle.clone). *)
let parallel_evaluator_uses_backend () =
  let size = 8 in
  let c =
    {
      Evalharness.Workbench.arch = "vgg_tiny";
      net = Nn.Zoo.vgg_tiny (Prng.of_int 3) ~image_size:size ~num_classes:2;
      spec = Dataset.synth_cifar;
      test = [||];
      test_accuracy = 1.;
      synth_sets = [||];
      backend = Nn.Backend.F32;
    }
  in
  let samples =
    [| (Helpers.flat_image ~size 0.4, 0); (Helpers.flat_image ~size 0.6, 1) |]
  in
  let flops backend =
    Telemetry.Counter.get
      (Telemetry.Metrics.counter ("backend." ^ backend ^ ".gemm_flops"))
  in
  let check name evaluate =
    let f32 = flops "f32" and boxed = flops "boxed" in
    let e = evaluate Oppsla.Condition.const_false_program samples in
    Alcotest.(check bool) (name ^ ": queries were posed") true
      (e.Oppsla.Score.total_queries > 0);
    Alcotest.(check bool) (name ^ ": f32 GEMMs ran") true (flops "f32" > f32);
    Alcotest.(check int) (name ^ ": no boxed GEMM") boxed (flops "boxed")
  in
  let oracle () = Evalharness.Workbench.oracle_factory c () in
  check "inline" (Oppsla.Score.evaluate ~max_queries:8 (oracle ()));
  Domain_pool.Pool.with_pool ~domains:2 (fun pool ->
      check "caller's pool"
        (Oppsla.Score.evaluate ~max_queries:8 ~pool (oracle ())))

let suite =
  [
    Alcotest.test_case "parallel matches sequential" `Quick
      parallel_matches_sequential;
    Alcotest.test_case "parallel sequential fallback" `Quick
      parallel_sequential_fallback;
    Alcotest.test_case "parallel empty" `Quick parallel_empty;
    Alcotest.test_case "parallel propagates exceptions" `Quick
      parallel_propagates_exceptions;
    Alcotest.test_case "parallel preserves order" `Quick
      parallel_order_preserved;
    Alcotest.test_case "success rates" `Quick success_rates;
    Alcotest.test_case "success rate empty" `Quick success_rate_empty;
    Alcotest.test_case "avg and median" `Quick avg_and_median;
    Alcotest.test_case "table renders" `Quick table_renders;
    Alcotest.test_case "table ragged raises" `Quick table_ragged_raises;
    Alcotest.test_case "formatting helpers" `Quick formatting_helpers;
    Alcotest.test_case "oppsla routes by class" `Quick oppsla_routes_by_class;
    Alcotest.test_case "attacker names" `Quick attacker_names;
    Alcotest.test_case "runner attack never stalls" `Quick
      runner_attack_never_stalls;
    Alcotest.test_case "gate exact query total" `Quick gate_exact_query_total;
    Alcotest.test_case "gate exact identity flag" `Quick
      gate_exact_identity_flag;
    Alcotest.test_case "gate overhead growth" `Quick gate_overhead_growth;
    Alcotest.test_case "gate overhead sign flip" `Quick gate_overhead_sign_flip;
    Alcotest.test_case "parallel evaluator uses backend" `Quick
      parallel_evaluator_uses_backend;
  ]
