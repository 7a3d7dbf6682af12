(* Tests for the condition language: evaluation semantics and the
   concrete syntax (lexer/parser/printer). *)

module C = Oppsla.Condition
module Dsl = Oppsla.Dsl
module Location = Oppsla.Location
module Pair = Oppsla.Pair

(* A hand-built context: 4x4 image, pixel (1,2) = (0.2, 0.4, 0.9),
   perturbation = white, clean score of the true class 0.8, perturbed
   0.5. *)
let ctx =
  let image = Tensor.create [| 3; 4; 4 |] 0.5 in
  Tensor.set image [| 0; 1; 2 |] 0.2;
  Tensor.set image [| 1; 1; 2 |] 0.4;
  Tensor.set image [| 2; 1; 2 |] 0.9;
  {
    C.d1 = 4;
    d2 = 4;
    image;
    true_class = 1;
    (* 0.75 and 0.5 are exactly representable, so score_diff is exactly
       0.25 (comparisons below rely on this). *)
    clean_scores = Tensor.of_array [| 3 |] [| 0.125; 0.75; 0.125 |];
    pair = Pair.make ~loc:(Location.make ~row:1 ~col:2) ~corner:7;
    perturbed_scores = Tensor.of_array [| 3 |] [| 0.25; 0.5; 0.25 |];
  }

let eval_funcs () =
  let check name expected func =
    Alcotest.(check (float 1e-9)) name expected (C.eval_func func ctx)
  in
  check "max orig" 0.9 (C.Max C.Orig);
  check "min orig" 0.2 (C.Min C.Orig);
  check "avg orig" 0.5 (C.Avg C.Orig);
  check "max pert" 1. (C.Max C.Pert);
  check "min pert" 1. (C.Min C.Pert);
  check "avg pert" 1. (C.Avg C.Pert);
  check "score diff" 0.25 C.Score_diff;
  (* (1,2) in a 4x4 image: center (1.5,1.5), Linf distance 0.5. *)
  check "center" 0.5 C.Center

let eval_cmp () =
  let cond cmp threshold = C.Cmp { func = C.Score_diff; cmp; threshold } in
  Alcotest.(check bool) "lt true" true (C.eval (cond C.Lt 0.4) ctx);
  Alcotest.(check bool) "lt false" false (C.eval (cond C.Lt 0.2) ctx);
  Alcotest.(check bool) "gt true" true (C.eval (cond C.Gt 0.2) ctx);
  Alcotest.(check bool) "gt strict" false (C.eval (cond C.Gt 0.25) ctx);
  Alcotest.(check bool) "lt strict" false (C.eval (cond C.Lt 0.25) ctx)

let eval_const () =
  Alcotest.(check bool) "true" true (C.eval (C.Const true) ctx);
  Alcotest.(check bool) "false" false (C.eval (C.Const false) ctx)

let const_false_program () =
  let b1, b2, b3, b4 = C.conditions C.const_false_program in
  List.iter
    (fun c -> Alcotest.(check bool) "all false" false (C.eval c ctx))
    [ b1; b2; b3; b4 ]

let program_array_roundtrip () =
  let p = C.const_false_program in
  Alcotest.(check bool) "roundtrip" true
    (C.equal_program p (C.program_of_array (C.program_to_array p)));
  Alcotest.(check bool) "wrong arity raises" true
    (try
       ignore (C.program_of_array [| C.Const true |]);
       false
     with Invalid_argument _ -> true)

(* Parsing *)

let parse_ok src expected =
  match Dsl.parse_condition src with
  | Ok c -> Alcotest.(check bool) src true (C.equal c expected)
  | Error e -> Alcotest.failf "%s" (Dsl.describe_error src e)

let parse_conditions () =
  parse_ok "max(orig) > 0.5"
    (C.Cmp { func = C.Max C.Orig; cmp = C.Gt; threshold = 0.5 });
  parse_ok "min(pert) < .25"
    (C.Cmp { func = C.Min C.Pert; cmp = C.Lt; threshold = 0.25 });
  parse_ok "avg ( orig ) < 1e-3"
    (C.Cmp { func = C.Avg C.Orig; cmp = C.Lt; threshold = 1e-3 });
  parse_ok "score_diff > -0.5"
    (C.Cmp { func = C.Score_diff; cmp = C.Gt; threshold = -0.5 });
  parse_ok "center < 8" (C.Cmp { func = C.Center; cmp = C.Lt; threshold = 8. });
  parse_ok "true" (C.Const true);
  parse_ok "false" (C.Const false)

let parse_program_with_labels () =
  let p =
    Dsl.parse_program_exn
      "B1: score_diff < 0.21; B2: max(orig) > 0.19; B3: score_diff > 0.25; \
       B4: center < 8"
  in
  Alcotest.(check bool) "b2" true
    (C.equal p.C.b2 (C.Cmp { func = C.Max C.Orig; cmp = C.Gt; threshold = 0.19 }))

let parse_program_without_labels () =
  let p = Dsl.parse_program_exn "true; false; center > 1; score_diff < 0" in
  Alcotest.(check bool) "b1" true (C.equal p.C.b1 (C.Const true));
  Alcotest.(check bool) "b4" true
    (C.equal p.C.b4 (C.Cmp { func = C.Score_diff; cmp = C.Lt; threshold = 0. }))

let parse_program_newline_separated () =
  let p = Dsl.parse_program_exn "B1: true\nB2: false\nB3: true\nB4: false" in
  Alcotest.(check bool) "b3" true (C.equal p.C.b3 (C.Const true))

let parse_error_cases () =
  let expect_error src =
    match Dsl.parse_program src with
    | Ok _ -> Alcotest.failf "expected failure on %S" src
    | Error e ->
        (* describe_error must render without raising and mention the
           offset. *)
        let msg = Dsl.describe_error src e in
        Alcotest.(check bool) "position in range" true
          (e.Dsl.position >= 0 && e.Dsl.position <= String.length src);
        Alcotest.(check bool) "describes" true (String.length msg > 0)
  in
  List.iter expect_error
    [
      "";
      "true; true; true";
      "true; true; true; true; true";
      "mox(orig) > 1; true; true; true";
      "max(blue) > 1; true; true; true";
      "max(orig) >= 1; true; true; true";
      "max(orig) > foo; true; true; true";
      "max(orig > 1; true; true; true";
      "B2: true; B1: true; B3: true; B4: true";
      "true; true; true; true extra";
      "score_diff 0.5; true; true; true";
      "center < 1 2; true; true; true";
    ]

let error_position_points_at_problem () =
  let src = "B1: true; B2: wrong(orig) > 1; B3: true; B4: true" in
  match Dsl.parse_program src with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error e ->
      Alcotest.(check int) "points at 'wrong'" (String.index src 'w')
        e.Dsl.position

let print_parse_roundtrip_example () =
  let p =
    Dsl.parse_program_exn
      "B1: score_diff < 0.21; B2: max(orig) > 0.19; B3: score_diff > 0.25; \
       B4: center < 8"
  in
  let p' = Dsl.parse_program_exn (Dsl.print_program p) in
  Alcotest.(check bool) "roundtrip" true (C.equal_program p p')

let qcheck_roundtrip =
  let config = { Oppsla.Gen.d1 = 16; d2 = 16 } in
  QCheck.Test.make ~name:"print/parse roundtrip on random programs"
    ~count:300 QCheck.small_int (fun seed ->
      let g = Prng.of_int seed in
      let p = Oppsla.Gen.random_program config g in
      let p' = Dsl.parse_program_exn (Dsl.print_program p) in
      C.equal_program p p')

let qcheck_roundtrip_with_consts =
  QCheck.Test.make ~name:"roundtrip with const conditions" ~count:50
    QCheck.(pair bool bool) (fun (a, b) ->
      let p =
        C.program_of_array [| C.Const a; C.Const b; C.Const a; C.Const b |]
      in
      C.equal_program p (Dsl.parse_program_exn (Dsl.print_program p)))

(* Compiled holes against the spec.  Pixel values, thresholds and
   scores are drawn from a small dyadic set (exact sums and differences,
   so ties at the threshold are real ties) plus NaN and -0; a few
   pixels are set to exact thresholds too, and centre distances are
   half-integers, so every comparison meets its threshold somewhere. *)
let specials = [| 0.; -0.; 0.25; 0.5; 0.75; 1.; 1.5; Float.nan |]

let arbitrary_compile_case =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun (d, seed, t, cls) ->
      Printf.sprintf "%dx%d seed %d threshold %h true class %d" d d seed t cls)
    (quad (oneofl [ 16; 24 ]) (int_bound 10_000)
       (oneof [ oneofa specials; float_range (-1.) 2. ])
       (int_bound 2))

let all_funcs =
  [
    C.Max C.Orig; C.Min C.Orig; C.Avg C.Orig; C.Max C.Pert; C.Min C.Pert;
    C.Avg C.Pert; C.Score_diff; C.Center;
  ]

let compiled_equals_eval (d, seed, threshold, true_class) =
  let g = Prng.of_int seed in
  let image = Tensor.rand_uniform g [| 3; d; d |] in
  (* Half the channel values come from [specials]. *)
  Array.iteri
    (fun i _ ->
      if Prng.int g 2 = 0 then
        image.Tensor.data.(i) <- specials.(Prng.int g (Array.length specials)))
    image.Tensor.data;
  let vector () =
    Tensor.of_array [| 3 |]
      (Array.init 3 (fun _ -> specials.(Prng.int g (Array.length specials))))
  in
  let clean_scores = vector () in
  let vectors = List.init 6 (fun _ -> vector ()) in
  List.for_all
    (fun func ->
      List.for_all
        (fun cmp ->
          let c = C.Cmp { func; cmp; threshold } in
          let compiled = C.compile c ~image ~true_class ~clean_scores in
          List.for_all
            (fun id ->
              List.for_all
                (fun scores ->
                  let ctx =
                    {
                      C.d1 = d;
                      d2 = d;
                      image;
                      true_class;
                      clean_scores;
                      pair = Pair.of_id ~d2:d id;
                      perturbed_scores = scores;
                    }
                  in
                  C.holds compiled ~id ~scores = C.eval c ctx)
                vectors)
            (List.init (8 * d * d) Fun.id))
        [ C.Lt; C.Gt ])
    all_funcs
  && List.for_all
       (fun b ->
         C.holds (C.compile (C.Const b) ~image ~true_class ~clean_scores) ~id:0
           ~scores:clean_scores
         = b)
       [ true; false ]

let qcheck_compiled_equals_eval =
  QCheck.Test.make ~name:"compiled holes equal eval" ~count:20
    arbitrary_compile_case compiled_equals_eval

let suite =
  [
    Alcotest.test_case "eval funcs" `Quick eval_funcs;
    Alcotest.test_case "eval cmp" `Quick eval_cmp;
    Alcotest.test_case "eval const" `Quick eval_const;
    Alcotest.test_case "const false program" `Quick const_false_program;
    Alcotest.test_case "program array roundtrip" `Quick program_array_roundtrip;
    Alcotest.test_case "parse conditions" `Quick parse_conditions;
    Alcotest.test_case "parse labeled program" `Quick parse_program_with_labels;
    Alcotest.test_case "parse unlabeled program" `Quick
      parse_program_without_labels;
    Alcotest.test_case "parse newline separated" `Quick
      parse_program_newline_separated;
    Alcotest.test_case "parse errors" `Quick parse_error_cases;
    Alcotest.test_case "error position" `Quick error_position_points_at_problem;
    Alcotest.test_case "print/parse roundtrip" `Quick
      print_parse_roundtrip_example;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_roundtrip_with_consts;
    QCheck_alcotest.to_alcotest qcheck_compiled_equals_eval;
  ]
