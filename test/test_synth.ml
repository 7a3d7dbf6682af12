(* Tests for the score function and the Metropolis-Hastings synthesizer
   (Algorithm 2, a one-island {!Oppsla.Islands} run), against the exact
   mean-threshold toy classifier. *)

module C = Oppsla.Condition
module Score = Oppsla.Score
module Islands = Oppsla.Islands

let size = 4
let full_space = 8 * size * size

(* Two attackable images and one hopeless one. *)
let training =
  [|
    (Helpers.flat_image ~size 0.49, 0);
    (Helpers.flat_image ~size 0.52, 1);
    (Helpers.flat_image ~size 0.30, 0);
  |]

let oracle () = Helpers.mean_threshold_oracle ()

let score_function_shape () =
  Alcotest.(check (float 1e-12)) "zero queries" 1. (Score.score ~beta:0.1 0.);
  Alcotest.(check bool) "decreasing" true
    (Score.score ~beta:0.1 10. > Score.score ~beta:0.1 20.);
  Alcotest.(check bool) "positive" true (Score.score ~beta:0.1 1e6 >= 0.)

let acceptance_ratio_shape () =
  Alcotest.(check (float 1e-12)) "equal" 1.
    (Score.acceptance_ratio ~beta:0.1 ~current:50. ~proposal:50.);
  Alcotest.(check bool) "improvement > 1" true
    (Score.acceptance_ratio ~beta:0.1 ~current:50. ~proposal:40. > 1.);
  Alcotest.(check bool) "worsening < 1" true
    (Score.acceptance_ratio ~beta:0.1 ~current:50. ~proposal:60. < 1.);
  (* Consistency with the score function itself. *)
  let beta = 0.05 and a = 33. and b = 47. in
  Alcotest.(check (float 1e-12)) "matches S'/S"
    (Score.score ~beta b /. Score.score ~beta a)
    (Score.acceptance_ratio ~beta ~current:a ~proposal:b)

let evaluate_counts () =
  let e = Score.evaluate (oracle ()) C.const_false_program training in
  Alcotest.(check int) "attempts" 3 e.Score.attempts;
  Alcotest.(check int) "successes" 2 e.Score.successes;
  (* Both attackable images succeed on the first query (see
     test_sketch); the hopeless one spends the full space. *)
  Alcotest.(check (float 1e-9)) "avg over successes" 1. e.Score.avg_queries;
  Alcotest.(check int) "total includes failures" (2 + full_space)
    e.Score.total_queries

let evaluate_respects_cap () =
  let e =
    Score.evaluate ~max_queries:5 (oracle ()) C.const_false_program training
  in
  Alcotest.(check int) "total capped" (2 + 5) e.Score.total_queries

let evaluate_no_successes () =
  let e =
    Score.evaluate (oracle ()) C.const_false_program
      [| (Helpers.flat_image ~size 0.30, 0) |]
  in
  Alcotest.(check int) "no successes" 0 e.Score.successes;
  Alcotest.(check (float 0.)) "penalty" Score.no_success_penalty
    e.Score.avg_queries

(* Synthesis: Algorithm 2 is a one-island Islands run. *)

let config iters =
  {
    Islands.default_config with
    islands = 1;
    rounds = iters;
    max_queries_per_image = Some 64;
  }

let chain (out : Islands.outcome) = out.Islands.islands.(0)

let proposals_counted () =
  List.fold_left
    (fun acc kind ->
      acc
      + Telemetry.Counter.get
          (Telemetry.Metrics.counter ("islands.proposals." ^ kind)))
    0
    [ "root"; "condition"; "function"; "constant" ]

let trace_well_formed () =
  let counted = proposals_counted () in
  let out =
    Islands.synthesize ~config:(config 10) (Prng.of_int 3) (oracle ())
      ~training
  in
  Alcotest.(check int) "one node-class count per proposal" 10
    (proposals_counted () - counted);
  let trace = out.Islands.trace in
  Alcotest.(check int) "seed + rounds" 11 (List.length trace);
  List.iteri
    (fun i (e : Islands.entry) ->
      Alcotest.(check int) "rounds in order" i e.Islands.round;
      Alcotest.(check int) "one island" 0 e.Islands.island)
    trace;
  (* Cumulative synthesis queries are non-decreasing and end at the
     reported total. *)
  let rec check_monotone = function
    | (a : Islands.entry) :: (b : Islands.entry) :: rest ->
        Alcotest.(check bool) "monotone" true
          (a.queries_total <= b.queries_total);
        check_monotone (b :: rest)
    | _ -> ()
  in
  check_monotone trace;
  let last = List.nth trace (List.length trace - 1) in
  Alcotest.(check int) "total matches" out.Islands.synth_queries
    last.Islands.queries_total;
  Alcotest.(check int) "island spend is the total" out.Islands.synth_queries
    (chain out).Islands.queries

let initial_iteration_accepted () =
  let out =
    Islands.synthesize ~config:(config 3) (Prng.of_int 4) (oracle ())
      ~training
  in
  match out.Islands.trace with
  | first :: _ ->
      Alcotest.(check bool) "round 0 accepted" true first.Islands.accepted
  | [] -> Alcotest.fail "empty trace"

let final_is_last_accepted () =
  let out =
    Islands.synthesize ~config:(config 15) (Prng.of_int 5) (oracle ())
      ~training
  in
  let last_accepted =
    List.fold_left
      (fun acc (e : Islands.entry) ->
        if e.Islands.accepted then Some e.Islands.program else acc)
      None out.Islands.trace
  in
  match last_accepted with
  | Some p ->
      Alcotest.(check bool) "chain position" true
        (C.equal_program p (chain out).Islands.final)
  | None -> Alcotest.fail "no accepted round"

let best_not_worse_than_final () =
  let out =
    Islands.synthesize ~config:(config 15) (Prng.of_int 6) (oracle ())
      ~training
  in
  let c = chain out in
  Alcotest.(check bool) "best <= final" true
    (c.Islands.best_avg_queries <= c.Islands.final_avg_queries);
  Alcotest.(check (float 0.)) "run best is the chain's best"
    c.Islands.best_avg_queries out.Islands.best_avg_queries

let deterministic_given_seed () =
  let run () =
    Islands.synthesize ~config:(config 8) (Prng.of_int 7) (oracle ())
      ~training
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same final program" true
    (C.equal_program (chain a).Islands.final (chain b).Islands.final);
  Alcotest.(check int) "same query spend" a.Islands.synth_queries
    b.Islands.synth_queries

let max_synth_queries_stops_early () =
  let cfg = { (config 1000) with max_synth_queries = Some 200 } in
  let out =
    Islands.synthesize ~config:cfg (Prng.of_int 8) (oracle ()) ~training
  in
  Alcotest.(check bool) "stopped early" true
    (List.length out.Islands.trace < 1001);
  (* It overshoots by at most one evaluation. *)
  Alcotest.(check bool) "bounded overshoot" true
    (out.Islands.synth_queries <= 200 + ((2 * 64) + full_space))

let empty_training_raises () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Islands.synthesize (Prng.of_int 1) (oracle ()) ~training:[||]);
       false
     with Invalid_argument _ -> true)

let on_round_hook_called () =
  let seen = ref [] in
  let cfg = { (config 5) with on_round = (fun r -> seen := r :: !seen) } in
  ignore (Islands.synthesize ~config:cfg (Prng.of_int 10) (oracle ()) ~training);
  Alcotest.(check (list int)) "hook fired once per round, in order"
    [ 1; 2; 3; 4; 5 ] (List.rev !seen)

(* --- PAC early stopping --- *)

(* A corpus with enough spread that bad proposals visibly burn queries.
   Flat images are useless here — when feasible they fall to the very
   first candidate regardless of the program — so most images plant one
   special pixel (see [Helpers.special_pixel_image]) whose winning
   corner sits deep in the default search order.  Programs that edit
   the queue shift how deep, giving per-program averages anywhere from
   ~3 to ~22 queries on this corpus.  Two flat images keep the easy
   1-query case represented. *)
let pac_training =
  [|
    (Helpers.special_pixel_image ~size ~base:0.52 ~v:0.10 ~row:3 ~col:3, 0);
    (Helpers.special_pixel_image ~size ~base:0.48 ~v:0.90 ~row:3 ~col:3, 1);
    (Helpers.special_pixel_image ~size ~base:0.52 ~v:0.10 ~row:0 ~col:3, 0);
    (Helpers.special_pixel_image ~size ~base:0.48 ~v:0.90 ~row:3 ~col:0, 1);
    (Helpers.special_pixel_image ~size ~base:0.53 ~v:0.05 ~row:2 ~col:3, 0);
    (Helpers.special_pixel_image ~size ~base:0.47 ~v:0.95 ~row:3 ~col:2, 1);
    (Helpers.flat_image ~size 0.49, 0);
    (Helpers.flat_image ~size 0.52, 1);
  |]

let aggressive_pac = { Score.default_pac with min_images = 2; stage = 1 }

(* With threshold = infinity nothing can be pruned, and the staged
   evaluator must reproduce the exact evaluator bit for bit, whatever
   visiting order the permutation picked. *)
let qcheck_pac_complete_is_exact =
  QCheck.Test.make ~name:"evaluate_pac completion is bit-exact" ~count:40
    QCheck.small_int (fun seed ->
      let g = Prng.of_int (seed + 101) in
      let gen_config = Helpers.gen_config ~size in
      let program = Oppsla.Gen.random_program gen_config g in
      let order = Prng.permutation g (Array.length pac_training) in
      let exact =
        Score.evaluate ~max_queries:128 (oracle ()) program pac_training
      in
      match
        Score.evaluate_pac ~max_queries:128 ~pac:aggressive_pac
          ~threshold:infinity ~order (oracle ()) program pac_training
      with
      | Score.Complete e ->
          e.Score.avg_queries = exact.Score.avg_queries
          && e.Score.total_queries = exact.Score.total_queries
          && e.Score.successes = exact.Score.successes
          && Array.for_all2
               (fun (a : Score.image_eval) (b : Score.image_eval) ->
                 a.Score.queries = b.Score.queries
                 && a.Score.success = b.Score.success)
               e.Score.per_image exact.Score.per_image
      | Score.Pruned _ -> false)

let pac_prunes_against_low_threshold () =
  (* Any candidate looks hopeless against an unbeatable incumbent, so
     the certified bound must fire and spend less than a full pass. *)
  let g = Prng.of_int 5 in
  let program = Oppsla.Gen.random_program (Helpers.gen_config ~size) g in
  let order = Prng.permutation g (Array.length pac_training) in
  let full = Score.evaluate ~max_queries:128 (oracle ()) program pac_training in
  match
    Score.evaluate_pac ~max_queries:128 ~pac:aggressive_pac ~threshold:0.5
      ~order (oracle ()) program pac_training
  with
  | Score.Complete _ -> Alcotest.fail "expected pruning against threshold 0.5"
  | Score.Pruned p ->
      Alcotest.(check bool) "spent less than full evaluation" true
        (p.Score.queries_spent < full.Score.total_queries);
      Alcotest.(check bool) "bound exceeds threshold" true
        (p.Score.lower_bound > 0.5);
      Alcotest.(check bool) "saw at least min_images" true
        (p.Score.images_seen >= aggressive_pac.Score.min_images)

let pac_rejects_bad_order () =
  let program = C.const_false_program in
  let bad_order = [| 0; 0; 1; 2; 3; 4; 5; 6 |] in
  Alcotest.(check bool) "duplicate order rejected" true
    (try
       ignore
         (Score.evaluate_pac ~max_queries:128 ~pac:Score.default_pac
            ~threshold:infinity ~order:bad_order (oracle ()) program
            pac_training);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "missing range rejected" true
    (try
       ignore
         (Score.evaluate_pac ~pac:Score.default_pac ~threshold:infinity
            ~order:(Array.init 8 (fun i -> i))
            (oracle ()) program pac_training);
       false
     with Invalid_argument _ -> true)

(* The headline soundness property: on a seeded corpus, every proposal
   the synthesizer prunes is one the full evaluation would have scored
   strictly worse than the incumbent of that round — early stopping
   only ever kills candidates exact scoring would not have kept. *)
let pac_never_prunes_keepers () =
  let cfg =
    {
      Islands.default_config with
      islands = 1;
      rounds = 40;
      max_queries_per_image = Some 128;
      early_stop = Some aggressive_pac;
    }
  in
  let out =
    Islands.synthesize ~config:cfg (Prng.of_int 21) (oracle ())
      ~training:pac_training
  in
  let pruned_total = ref 0 in
  let incumbent = ref nan in
  List.iter
    (fun (e : Islands.entry) ->
      if e.Islands.round = 0 then incumbent := e.Islands.avg_queries
      else if e.Islands.pruned then begin
        incr pruned_total;
        Alcotest.(check bool) "pruned implies rejected" false
          e.Islands.accepted;
        let full =
          Score.evaluate ~max_queries:128 (oracle ()) e.Islands.program
            pac_training
        in
        Alcotest.(check bool)
          (Printf.sprintf
             "round %d: full avg %.3f must beat incumbent %.3f to be \
              wrongly pruned"
             e.Islands.round full.Score.avg_queries !incumbent)
          true
          (full.Score.avg_queries > !incumbent)
      end
      else if e.Islands.accepted then incumbent := e.Islands.avg_queries)
    out.Islands.trace;
  (* The property must not hold vacuously. *)
  Alcotest.(check bool) "at least one proposal was pruned" true
    (!pruned_total > 0);
  Alcotest.(check int) "report counts the pruned entries" !pruned_total
    (chain out).Islands.pruned

(* With early stopping off every proposal is scored exactly: each trace
   entry's average is what a fresh Score.evaluate of its program gives,
   and the run's spend is the sum of those evaluations' totals. *)
let exact_scoring_matches_evaluate () =
  let out =
    Islands.synthesize ~config:(config 8) (Prng.of_int 7) (oracle ())
      ~training
  in
  let spent =
    List.fold_left
      (fun spent (e : Islands.entry) ->
        Alcotest.(check bool) "nothing pruned" false e.Islands.pruned;
        let full =
          Score.evaluate ~max_queries:64 (oracle ()) e.Islands.program training
        in
        Alcotest.(check (float 0.))
          (Printf.sprintf "round %d average" e.Islands.round)
          full.Score.avg_queries e.Islands.avg_queries;
        let spent = spent + full.Score.total_queries in
        Alcotest.(check int)
          (Printf.sprintf "round %d cumulative spend" e.Islands.round)
          spent e.Islands.queries_total;
        spent)
      0 out.Islands.trace
  in
  Alcotest.(check int) "spend is the sum of evaluations" spent
    out.Islands.synth_queries

let early_stop_deterministic_and_cheaper () =
  let cfg early_stop =
    {
      Islands.default_config with
      islands = 1;
      rounds = 40;
      max_queries_per_image = Some 128;
      early_stop;
    }
  in
  let run es =
    Islands.synthesize ~config:(cfg es) (Prng.of_int 21) (oracle ())
      ~training:pac_training
  in
  let a = run (Some aggressive_pac) and b = run (Some aggressive_pac) in
  Alcotest.(check int) "deterministic spend" a.Islands.synth_queries
    b.Islands.synth_queries;
  Alcotest.(check bool) "same final" true
    (C.equal_program (chain a).Islands.final (chain b).Islands.final);
  let exact = run None in
  Alcotest.(check bool) "early stopping saves queries" true
    (a.Islands.synth_queries < exact.Islands.synth_queries)

let suite =
  [
    Alcotest.test_case "score shape" `Quick score_function_shape;
    Alcotest.test_case "acceptance ratio" `Quick acceptance_ratio_shape;
    Alcotest.test_case "evaluate counts" `Quick evaluate_counts;
    Alcotest.test_case "evaluate respects cap" `Quick evaluate_respects_cap;
    Alcotest.test_case "evaluate no successes" `Quick evaluate_no_successes;
    Alcotest.test_case "trace well formed" `Quick trace_well_formed;
    Alcotest.test_case "initial iteration accepted" `Quick
      initial_iteration_accepted;
    Alcotest.test_case "final is last accepted" `Quick final_is_last_accepted;
    Alcotest.test_case "best <= final" `Quick best_not_worse_than_final;
    Alcotest.test_case "deterministic" `Quick deterministic_given_seed;
    Alcotest.test_case "max synth queries" `Quick max_synth_queries_stops_early;
    Alcotest.test_case "empty training raises" `Quick empty_training_raises;
    Alcotest.test_case "on_round hook" `Quick on_round_hook_called;
    QCheck_alcotest.to_alcotest qcheck_pac_complete_is_exact;
    Alcotest.test_case "pac prunes against low threshold" `Quick
      pac_prunes_against_low_threshold;
    Alcotest.test_case "pac rejects bad order" `Quick pac_rejects_bad_order;
    Alcotest.test_case "pac never prunes keepers" `Quick
      pac_never_prunes_keepers;
    Alcotest.test_case "exact scoring matches Score.evaluate" `Quick
      exact_scoring_matches_evaluate;
    Alcotest.test_case "early stop deterministic and cheaper" `Quick
      early_stop_deterministic_and_cheaper;
  ]
