(* Tests for the baseline attacks: Sketch+False, Sparse-RS, SuOPA and
   Sketch+Random. *)

module C = Oppsla.Condition
module Sketch = Oppsla.Sketch

let size = 4
let full_space = 8 * size * size
let attackable = Helpers.flat_image ~size 0.49
let hopeless = Helpers.flat_image ~size 0.30
let oracle () = Helpers.mean_threshold_oracle ()

(* Sketch+False *)

let fixed_program_is_const_false () =
  let b1, b2, b3, b4 = C.conditions Baselines.Fixed.program in
  List.iter
    (fun c ->
      Alcotest.(check bool) "const false" true (C.equal c (C.Const false)))
    [ b1; b2; b3; b4 ]

let fixed_equals_sketch_with_false () =
  let a = Baselines.Fixed.attack (oracle ()) ~image:attackable ~true_class:0 in
  let b =
    Sketch.attack (oracle ()) C.const_false_program ~image:attackable
      ~true_class:0
  in
  Alcotest.(check int) "same queries" b.Sketch.queries a.Sketch.queries;
  Alcotest.(check bool) "same success" (b.Sketch.adversarial <> None)
    (a.Sketch.adversarial <> None)

(* Sparse-RS *)

let sparse_rs_finds_easy_target () =
  (* Half the corners flip the 0.49 image at any location, so random
     search succeeds fast. *)
  let r =
    Baselines.Sparse_rs.attack (Prng.of_int 1) (oracle ()) ~image:attackable
      ~true_class:0
  in
  (match r.Sketch.adversarial with
  | None -> Alcotest.fail "expected success"
  | Some (pair, img') ->
      Alcotest.(check int) "flips" 1
        (Oracle.unmetered_classify (oracle ()) img');
      ignore pair);
  Alcotest.(check bool) "few queries" true (r.Sketch.queries <= 16)

let sparse_rs_respects_budget () =
  let config = Baselines.Sparse_rs.default_config ~max_queries:9 in
  let r =
    Baselines.Sparse_rs.attack ~config (Prng.of_int 2) (oracle ())
      ~image:hopeless ~true_class:0
  in
  Alcotest.(check int) "stopped at cap" 9 r.Sketch.queries;
  Alcotest.(check bool) "failed" true (r.Sketch.adversarial = None)

let sparse_rs_deterministic () =
  let run () =
    Baselines.Sparse_rs.attack (Prng.of_int 4) (oracle ()) ~image:attackable
      ~true_class:0
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same queries" a.Sketch.queries b.Sketch.queries

let sparse_rs_never_exceeds_default () =
  let r =
    Baselines.Sparse_rs.attack (Prng.of_int 5) (oracle ()) ~image:hopeless
      ~true_class:0
  in
  Alcotest.(check int) "default cap is the space size" full_space
    r.Sketch.queries

(* SuOPA *)

let su_opa_population_validated () =
  let config = { (Baselines.Su_opa.default_config ~max_queries:100) with population = 3 } in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Baselines.Su_opa.attack ~config (Prng.of_int 1) (oracle ())
            ~image:attackable ~true_class:0);
       false
     with Invalid_argument _ -> true)

let su_opa_spends_budget_on_hopeless () =
  let config =
    { (Baselines.Su_opa.default_config ~max_queries:50) with population = 8 }
  in
  let r =
    Baselines.Su_opa.attack ~config (Prng.of_int 2) (oracle ()) ~image:hopeless
      ~true_class:0
  in
  Alcotest.(check int) "whole budget" 50 r.Sketch.queries;
  Alcotest.(check bool) "failed" true (r.Sketch.adversarial = None)

let su_opa_finds_easy_target () =
  let config =
    { (Baselines.Su_opa.default_config ~max_queries:2000) with population = 10 }
  in
  let r =
    Baselines.Su_opa.attack ~config (Prng.of_int 3) (oracle ())
      ~image:attackable ~true_class:0
  in
  match r.Sketch.adversarial with
  | None -> Alcotest.fail "expected success"
  | Some (_, img') ->
      Alcotest.(check int) "flips" 1 (Oracle.unmetered_classify (oracle ()) img');
      (* Batch semantics: success is only declared once a whole batch has
         been scored, so at least the initial population was queried. *)
      Alcotest.(check bool) "at least the population" true
        (r.Sketch.queries >= 10)

let su_opa_deterministic () =
  let run () =
    let config =
      { (Baselines.Su_opa.default_config ~max_queries:500) with population = 10 }
    in
    Baselines.Su_opa.attack ~config (Prng.of_int 4) (oracle ())
      ~image:attackable ~true_class:0
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same queries" a.Sketch.queries b.Sketch.queries

let su_opa_minimum_queries_is_population () =
  (* Success cannot be declared before the whole initial population is
     scored, unless an initial candidate already succeeds; on a hopeless
     image with a budget equal to the population, exactly the population
     is spent. *)
  let config =
    { (Baselines.Su_opa.default_config ~max_queries:12) with population = 12 }
  in
  let r =
    Baselines.Su_opa.attack ~config (Prng.of_int 5) (oracle ()) ~image:hopeless
      ~true_class:0
  in
  Alcotest.(check int) "population queries" 12 r.Sketch.queries

(* Sketch+Random *)

(* Sketch+Random keeps the sampled program with the lowest average and
   charges the queries of every sample: replay its draws from the same
   seed and score each program on its own oracle.  The special pixel
   sits deep in the default search order, so programs differ. *)
let random_search_picks_best () =
  let training =
    [|
      (Helpers.special_pixel_image ~size ~base:0.52 ~v:0.10 ~row:3 ~col:3, 0);
      (Helpers.special_pixel_image ~size ~base:0.48 ~v:0.90 ~row:3 ~col:3, 1);
      (Helpers.special_pixel_image ~size ~base:0.52 ~v:0.10 ~row:0 ~col:3, 0);
    |]
  in
  let samples = 10 and cap = 64 in
  let out =
    Baselines.Random_search.synthesize ~samples ~max_queries_per_image:cap
      (Prng.of_int 6) (oracle ()) ~training
  in
  let g = Prng.of_int 6 in
  let gen_config = Oppsla.Gen.config_for_image (fst training.(0)) in
  let scored =
    Array.init samples (fun _ ->
        let program = Oppsla.Gen.random_program gen_config g in
        (program, Oppsla.Score.evaluate ~max_queries:cap (oracle ()) program training))
  in
  let avg (_, e) = e.Oppsla.Score.avg_queries in
  let best =
    Array.fold_left (fun b s -> if avg s < avg b then s else b) scored.(0) scored
  in
  Alcotest.(check bool) "sampled programs differ" true
    (Array.exists (fun s -> avg s <> avg best) scored);
  Alcotest.(check (float 0.)) "lowest avg" (avg best)
    out.Baselines.Random_search.best_avg_queries;
  Alcotest.(check int) "synth queries summed"
    (Array.fold_left (fun acc (_, e) -> acc + e.Oppsla.Score.total_queries) 0 scored)
    out.Baselines.Random_search.synth_queries;
  Alcotest.(check bool) "best is the first argmin" true
    (C.equal_program (fst best) out.Baselines.Random_search.best)

let random_search_validates () =
  Alcotest.(check bool) "empty training raises" true
    (try
       ignore
         (Baselines.Random_search.synthesize (Prng.of_int 1) (oracle ())
            ~training:[||]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "samples <= 0 raises" true
    (try
       ignore
         (Baselines.Random_search.synthesize ~samples:0 (Prng.of_int 1)
            (oracle ())
            ~training:[| (attackable, 0) |]);
       false
     with Invalid_argument _ -> true)

let random_search_end_to_end () =
  let out =
    Baselines.Random_search.synthesize ~samples:5 ~max_queries_per_image:64
      (Prng.of_int 7) (oracle ())
      ~training:[| (attackable, 0); (Helpers.flat_image ~size 0.52, 1) |]
  in
  (* Both images succeed in one query under any program here. *)
  Alcotest.(check (float 1e-9)) "avg" 1. out.Baselines.Random_search.best_avg_queries

let suite =
  [
    Alcotest.test_case "fixed program is const false" `Quick
      fixed_program_is_const_false;
    Alcotest.test_case "fixed equals sketch" `Quick fixed_equals_sketch_with_false;
    Alcotest.test_case "sparse-rs finds easy target" `Quick
      sparse_rs_finds_easy_target;
    Alcotest.test_case "sparse-rs respects budget" `Quick
      sparse_rs_respects_budget;
    Alcotest.test_case "sparse-rs deterministic" `Quick sparse_rs_deterministic;
    Alcotest.test_case "sparse-rs default cap" `Quick
      sparse_rs_never_exceeds_default;
    Alcotest.test_case "su-opa population validated" `Quick
      su_opa_population_validated;
    Alcotest.test_case "su-opa spends budget" `Quick
      su_opa_spends_budget_on_hopeless;
    Alcotest.test_case "su-opa finds easy target" `Quick
      su_opa_finds_easy_target;
    Alcotest.test_case "su-opa deterministic" `Quick su_opa_deterministic;
    Alcotest.test_case "su-opa minimum queries" `Quick
      su_opa_minimum_queries_is_population;
    Alcotest.test_case "random search picks best" `Quick
      random_search_picks_best;
    Alcotest.test_case "random search validates" `Quick random_search_validates;
    Alcotest.test_case "random search end to end" `Quick
      random_search_end_to_end;
  ]
