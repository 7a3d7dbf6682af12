(* Tests for the extensions beyond the paper's core setting: targeted
   attacks and the naive reference queue. *)

module C = Oppsla.Condition
module Sketch = Oppsla.Sketch
module Pair = Oppsla.Pair
module Location = Oppsla.Location
module PQ = Oppsla.Pair_queue
module PQN = Oppsla.Pair_queue_naive

(* A 3-class toy classifier: scores proportional to the per-channel
   means (red / green / blue). *)
let channel_oracle () =
  Oracle.of_fn ~name:"channel-means" ~num_classes:3 (fun x ->
      let c = Tensor.dim x 0 and h = Tensor.dim x 1 and w = Tensor.dim x 2 in
      assert (c = 3);
      let mean ch =
        let acc = ref 0. in
        for i = 0 to (h * w) - 1 do
          acc := !acc +. Tensor.get_flat x ((ch * h * w) + i)
        done;
        !acc /. float_of_int (h * w)
      in
      Tensor.softmax (Tensor.of_array [| 3 |] [| mean 0; mean 1; mean 2 |]))

(* 2x2 image dominated by red: one pixel painted a pure color flips the
   winner to that color's class. *)
let reddish =
  let img = Tensor.zeros [| 3; 2; 2 |] in
  for i = 0 to 3 do
    Tensor.set_flat img i 0.30;          (* red *)
    Tensor.set_flat img (4 + i) 0.20;    (* green *)
    Tensor.set_flat img (8 + i) 0.28     (* blue *)
  done;
  img

let targeted_attack_reaches_target () =
  let oracle = channel_oracle () in
  Alcotest.(check int) "clean class is red" 0
    (Oracle.unmetered_classify oracle reddish);
  List.iter
    (fun target ->
      let r =
        Sketch.attack ~goal:(Sketch.Targeted target) oracle
          C.const_false_program ~image:reddish ~true_class:0
      in
      match r.Sketch.adversarial with
      | None -> Alcotest.failf "no targeted example for class %d" target
      | Some (_, adv) ->
          Alcotest.(check int) "prediction is the target" target
            (Oracle.unmetered_classify oracle adv))
    [ 1; 2 ]

let targeted_needs_more_or_equal_queries () =
  (* The targeted success set is a subset of the untargeted one, so with
     the same program the targeted attack can never need fewer queries. *)
  let oracle = channel_oracle () in
  let untargeted =
    Sketch.attack oracle C.const_false_program ~image:reddish ~true_class:0
  in
  List.iter
    (fun target ->
      let targeted =
        Sketch.attack ~goal:(Sketch.Targeted target) (channel_oracle ())
          C.const_false_program ~image:reddish ~true_class:0
      in
      Alcotest.(check bool) "subset property" true
        (targeted.Sketch.queries >= untargeted.Sketch.queries))
    [ 1; 2 ]

let targeted_impossible_exhausts () =
  (* Target = the true class: "success" would require predicting the true
     class, but candidates only count when the goal test passes; since
     every perturbed image that still predicts class 0 *does* satisfy
     Targeted 0, the first query succeeds trivially.  The interesting
     impossible case is a class that can never win: use the
     mean-threshold oracle where class 1 is unreachable from a dark
     image. *)
  let oracle = Helpers.mean_threshold_oracle () in
  let image = Helpers.flat_image ~size:4 0.30 in
  let r =
    Sketch.attack ~goal:(Sketch.Targeted 1) oracle C.const_false_program
      ~image ~true_class:0
  in
  Alcotest.(check bool) "no success" true (r.Sketch.adversarial = None);
  Alcotest.(check int) "full enumeration" (8 * 4 * 4) r.Sketch.queries

let success_exists_targeted () =
  let oracle = channel_oracle () in
  Alcotest.(check bool) "green reachable" true
    (Sketch.success_exists ~goal:(Sketch.Targeted 1) oracle ~image:reddish
       ~true_class:0);
  let dark_oracle = Helpers.mean_threshold_oracle () in
  Alcotest.(check bool) "bright class unreachable" false
    (Sketch.success_exists ~goal:(Sketch.Targeted 1) dark_oracle
       ~image:(Helpers.flat_image ~size:4 0.30) ~true_class:0)

let targeted_score_evaluate () =
  let e =
    Oppsla.Score.evaluate ~goal:(Sketch.Targeted 2) (channel_oracle ())
      C.const_false_program
      [| (reddish, 0) |]
  in
  Alcotest.(check int) "one success" 1 e.Oppsla.Score.successes

let targeted_synthesis_runs () =
  let cfg =
    {
      Oppsla.Islands.default_config with
      islands = 1;
      rounds = 3;
      goal = Sketch.Targeted 2;
      max_queries_per_image = Some 16;
    }
  in
  let out =
    Oppsla.Islands.synthesize ~config:cfg (Prng.of_int 5)
      (channel_oracle ())
      ~training:[| (reddish, 0) |]
  in
  Alcotest.(check bool) "finite avg" true
    (out.Oppsla.Islands.islands.(0).Oppsla.Islands.final_avg_queries < 1e6)

(* Few-pixel Sparse-RS *)

let multi_pixel_validates () =
  Alcotest.(check bool) "k = 0 raises" true
    (try
       ignore
         (Baselines.Sparse_rs.attack_multi ~k:0 (Prng.of_int 1)
            (Helpers.mean_threshold_oracle ())
            ~image:(Helpers.flat_image ~size:4 0.4) ~true_class:0);
       false
     with Invalid_argument _ -> true)

let multi_pixel_beats_single () =
  (* Brightness 0.45 on a 4x4 image: one white pixel moves the mean by
     3*0.55/48 = 0.034 (not enough to cross 0.5), two white pixels by
     0.069 (enough).  So k=1 must fail and k=2 can succeed. *)
  let image = Helpers.flat_image ~size:4 0.45 in
  let single =
    Baselines.Sparse_rs.attack (Prng.of_int 3)
      (Helpers.mean_threshold_oracle ())
      ~image ~true_class:0
  in
  Alcotest.(check bool) "k=1 impossible" true
    (single.Sketch.adversarial = None);
  let config = Baselines.Sparse_rs.default_config ~max_queries:2000 in
  let multi =
    Baselines.Sparse_rs.attack_multi ~config ~k:2 (Prng.of_int 3)
      (Helpers.mean_threshold_oracle ())
      ~image ~true_class:0
  in
  match multi.Baselines.Sparse_rs.adversarial with
  | None -> Alcotest.fail "k=2 should succeed"
  | Some (pairs, adv) ->
      Alcotest.(check int) "two pixels" 2 (List.length pairs);
      (match pairs with
      | [ a; b ] ->
          Alcotest.(check bool) "distinct locations" false
            (Location.equal a.Pair.loc b.Pair.loc)
      | _ -> Alcotest.fail "wrong arity");
      Alcotest.(check int) "flips" 1
        (Oracle.unmetered_classify (Helpers.mean_threshold_oracle ()) adv)

let multi_pixel_respects_budget () =
  let config = Baselines.Sparse_rs.default_config ~max_queries:11 in
  let r =
    Baselines.Sparse_rs.attack_multi ~config ~k:3 (Prng.of_int 4)
      (Helpers.mean_threshold_oracle ())
      ~image:(Helpers.flat_image ~size:4 0.2) ~true_class:0
  in
  Alcotest.(check int) "budget" 11 r.Baselines.Sparse_rs.queries

(* Naive queue equivalence *)

let naive_full_space_matches () =
  let image = Tensor.rand_uniform (Prng.of_int 9) [| 3; 4; 4 |] in
  let a = PQ.full_space ~d1:4 ~d2:4 ~image in
  let b = PQN.full_space ~d1:4 ~d2:4 ~image in
  Alcotest.(check bool) "same order" true (PQ.to_list a = PQN.to_list b)

type op = Pop | Push_back of int | Remove of int | First of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Pop);
        (3, map (fun i -> Push_back i) (int_bound 31));
        (2, map (fun i -> Remove i) (int_bound 31));
        (2, map (fun i -> First i) (int_bound 3));
      ])

let arbitrary_ops = QCheck.make QCheck.Gen.(list_size (int_range 1 50) op_gen)

let qcheck_naive_equivalence =
  QCheck.Test.make ~name:"indexed and naive queues agree" ~count:200
    arbitrary_ops (fun ops ->
      let d2 = 2 in
      let all = List.init 32 (fun id -> Pair.of_id ~d2 id) in
      let a = PQ.init ~d1:2 ~d2 all and b = PQN.init ~d1:2 ~d2 all in
      (* The indexed queue answers ids, -1 for none. *)
      let same_id id p =
        match p with None -> id = -1 | Some p -> id = Pair.id ~d2 p
      in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Pop -> if not (same_id (PQ.pop a) (PQN.pop b)) then ok := false
          | Push_back id ->
              let p = Pair.of_id ~d2 id in
              if PQ.mem a id <> PQN.mem b p then ok := false
              else if PQ.mem a id then begin
                PQ.push_back a id;
                PQN.push_back b p
              end
          | Remove id ->
              let p = Pair.of_id ~d2 id in
              if PQ.mem a id then begin
                PQ.remove a id;
                PQN.remove b p
              end
          | First li ->
              let loc = Location.of_index ~d2 li in
              if
                not
                  (same_id (PQ.first_with_location a li)
                     (PQN.first_with_location b loc))
              then ok := false);
          if PQ.to_list a <> PQN.to_list b then ok := false)
        ops;
      !ok)

let suite =
  [
    Alcotest.test_case "targeted attack reaches target" `Quick
      targeted_attack_reaches_target;
    Alcotest.test_case "targeted needs >= queries" `Quick
      targeted_needs_more_or_equal_queries;
    Alcotest.test_case "targeted impossible exhausts" `Quick
      targeted_impossible_exhausts;
    Alcotest.test_case "success_exists targeted" `Quick success_exists_targeted;
    Alcotest.test_case "targeted score evaluate" `Quick targeted_score_evaluate;
    Alcotest.test_case "targeted synthesis" `Quick targeted_synthesis_runs;
    Alcotest.test_case "multi-pixel validates" `Quick multi_pixel_validates;
    Alcotest.test_case "multi-pixel beats single" `Quick
      multi_pixel_beats_single;
    Alcotest.test_case "multi-pixel respects budget" `Quick
      multi_pixel_respects_budget;
    Alcotest.test_case "naive full_space matches" `Quick
      naive_full_space_matches;
    QCheck_alcotest.to_alcotest qcheck_naive_equivalence;
  ]
