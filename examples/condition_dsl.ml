(* The condition DSL: parsing, printing, errors, and what a hand-written
   program does to attack cost.

     dune exec examples/condition_dsl.exe

   This example needs no synthesis: it parses the program from Section
   3.2 of the paper, shows the parser's error reporting, and compares the
   hand-written program against the fixed prioritization on a batch of
   test images. *)

module Workbench = Evalharness.Workbench

(* The example program of Section 3.2, with the center radius scaled to
   our 16x16 images (the paper's 8 was for 32x32 CIFAR). *)
let paper_example =
  "B1: score_diff < 0.21; B2: max(orig) > 0.19;\n\
   B3: score_diff > 0.25; B4: center < 4"

let () =
  (* Round-trip: parse, print, re-parse. *)
  let program = Oppsla.Dsl.parse_program_exn paper_example in
  let printed = Oppsla.Dsl.print_program program in
  Printf.printf "parsed : %s\n" printed;
  assert (
    Oppsla.Condition.equal_program program (Oppsla.Dsl.parse_program_exn printed));
  print_endline "round-trip: ok\n";

  (* Parse errors carry positions and a caret. *)
  let bad = "B1: score_diff < 0.21; B2: mox(orig) > 0.19; B3: true; B4: true" in
  (match Oppsla.Dsl.parse_program bad with
  | Ok _ -> assert false
  | Error e -> Printf.printf "%s\n\n" (Oppsla.Dsl.describe_error bad e));

  (* Attack cost comparison on real test images. *)
  let config = Workbench.default_config in
  let classifier =
    Workbench.load_classifier config Dataset.synth_cifar "vgg_tiny"
  in
  let batch = Array.sub classifier.test 0 (min 40 (Array.length classifier.test)) in
  let evaluate name program =
    let e =
      Domain_pool.Pool.with_pool (fun pool ->
          Oppsla.Score.evaluate ~pool
            (Workbench.oracle_factory classifier ())
            program batch)
    in
    Printf.printf "%-13s %d/%d successes, avg %.1f queries\n" name
      e.Oppsla.Score.successes e.attempts e.avg_queries
  in
  Printf.printf "attacking %d test images:\n" (Array.length batch);
  evaluate "hand-written" program;
  evaluate "Sketch+False" Oppsla.Condition.const_false_program
