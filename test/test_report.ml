(* Rendering tests for the experiment reports. *)

module Report = Evalharness.Report
module Experiments = Evalharness.Experiments

let fig3_rows : Experiments.fig3_row list =
  [
    {
      classifier = "vgg_tiny";
      dataset = "synth_cifar";
      attacker = "OPPSLA";
      attacked_images = 66;
      cells =
        [
          { Experiments.budget = 50; success_rate = 0.25 };
          { Experiments.budget = 2048; success_rate = 0.4 };
        ];
      avg_queries = Some 123.4;
    };
    {
      classifier = "vgg_tiny";
      dataset = "synth_cifar";
      attacker = "Sparse-RS";
      attacked_images = 66;
      cells =
        [
          { Experiments.budget = 50; success_rate = 0.2 };
          { Experiments.budget = 2048; success_rate = 0.3 };
        ];
      avg_queries = None;
    };
  ]

let render_fig3_contents () =
  let s = Report.render_fig3 fig3_rows in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (Helpers.contains s needle))
    [ "<=50"; "<=2048"; "25.0%"; "OPPSLA"; "Sparse-RS"; "123.40"; "-" ]

let render_fig3_empty () =
  Alcotest.(check string) "placeholder" "(no data)" (Report.render_fig3 [])

let render_table1_contents () =
  let t =
    {
      Experiments.classifiers = [ "a"; "b" ];
      avg_queries = [| [| Some 1.5; None |]; [| Some 2.25; Some 3. |] |];
    }
  in
  let s = Report.render_table1 t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (Helpers.contains s needle))
    [ "1.50"; "2.25"; "3.00"; "-"; "target" ]

let render_fig4_contents () =
  let f =
    {
      Experiments.series =
        [
          { Experiments.iteration = 0; synth_queries = 100; test_avg_queries = 50. };
          { Experiments.iteration = 3; synth_queries = 400; test_avg_queries = 20. };
        ];
      baseline_avg_queries = 42.5;
    }
  in
  let s = Report.render_fig4 f in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (Helpers.contains s needle))
    [ "Sketch+False"; "42.50"; "400"; "20.00" ]

let render_table2_contents () =
  let rows : Experiments.table2_row list =
    [
      {
        classifier = "vgg_tiny";
        approach = "OPPSLA";
        success_rate = 0.333;
        avg_queries = Some 100.;
        median_queries = Some 9.;
      };
      {
        classifier = "vgg_tiny";
        approach = "Sparse-RS";
        success_rate = 0.25;
        avg_queries = None;
        median_queries = None;
      };
    ]
  in
  let s = Report.render_table2 rows in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (Helpers.contains s needle))
    [ "33.3%"; "100.00"; "9.00"; "success"; "Sparse-RS" ]

let render_islands_contents () =
  (* A real (tiny) archipelago run rather than a hand-built record: the
     renderer must agree with whatever shape the synthesis produces. *)
  let training =
    [|
      (Helpers.flat_image ~size:4 0.49, 0); (Helpers.flat_image ~size:4 0.52, 1);
    |]
  in
  let cfg =
    {
      Oppsla.Islands.default_config with
      Oppsla.Islands.islands = 2;
      rounds = 3;
      migration_period = 2;
      max_queries_per_image = Some 64;
    }
  in
  let out =
    Oppsla.Islands.synthesize ~config:cfg (Prng.of_int 3)
      (Helpers.mean_threshold_oracle ()) ~training
  in
  let s = Report.render_islands out in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (Helpers.contains s needle))
    [
      "Island synthesis";
      "3 rounds";
      "island";
      "beta";
      "migrations in";
      "pruned";
      "best: B1";
      Printf.sprintf "%d queries" out.Oppsla.Islands.synth_queries;
    ];
  Alcotest.(check bool) "one row per island" true
    (Helpers.contains s "| 0 " && Helpers.contains s "| 1 ")

(* Targeted-attack table: the byte-exact format is pinned by the golden
   file report_targeted_golden_v1.txt (a test/dune dep).  The rows are a
   literal fixture — no network, no attack — so the golden only moves
   when the renderer itself does; regenerate it deliberately (and bump
   the version suffix) when the format changes on purpose. *)
let targeted_rows : Experiments.targeted_row list =
  [
    {
      classifier = "vgg_tiny";
      attacker = "Sketch+False";
      target = 0;
      target_name = "airplane";
      attacked_images = 54;
      cells =
        [
          { Experiments.budget = 50; success_rate = 0.125 };
          { Experiments.budget = 200; success_rate = 0.25 };
          { Experiments.budget = 2048; success_rate = 0.5 };
        ];
      avg_queries = Some 321.5;
      median_queries = Some 123.;
    };
    {
      classifier = "vgg_tiny";
      attacker = "Sparse-RS";
      target = 1;
      target_name = "automobile";
      attacked_images = 54;
      cells =
        [
          { Experiments.budget = 50; success_rate = 0. };
          { Experiments.budget = 200; success_rate = 0.1 };
          { Experiments.budget = 2048; success_rate = 0.3333 };
        ];
      avg_queries = None;
      median_queries = None;
    };
  ]

let render_targeted_golden () =
  let expected =
    In_channel.with_open_bin "report_targeted_golden_v1.txt"
      In_channel.input_all
  in
  Alcotest.(check string) "byte-exact" expected
    (Report.render_targeted targeted_rows)

let render_targeted_empty () =
  Alcotest.(check string) "placeholder" "(no data)"
    (Report.render_targeted [])

(* The β-sweep table, byte for byte: [%g] betas, one-decimal averages
   and accepted programs out of rounds + 1 (the seed program counts). *)
let render_beta_sweep_exact () =
  let sweep =
    {
      Experiments.arch = "vgg_tiny";
      class_id = 0;
      rounds = 25;
      rows =
        [
          {
            Experiments.beta = 0.005;
            final_avg_queries = 81.25;
            best_avg_queries = 40.04;
            accepted = 3;
          };
          {
            Experiments.beta = 0.32;
            final_avg_queries = 1024.;
            best_avg_queries = 212.5;
            accepted = 26;
          };
        ];
    }
  in
  Alcotest.(check string) "byte-exact"
    "Beta sweep - MH temperature (vgg_tiny, class 0, 25 iterations)\n\
     +-------+--------------+-------------+----------+\n\
     | beta  | final avg #q | best avg #q | accepted |\n\
     +-------+--------------+-------------+----------+\n\
     | 0.005 | 81.2         | 40.0        | 3/26     |\n\
     | 0.32  | 1024.0       | 212.5       | 26/26    |\n\
     +-------+--------------+-------------+----------+"
    (Report.render_beta_sweep sweep)

let suite =
  [
    Alcotest.test_case "render fig3" `Quick render_fig3_contents;
    Alcotest.test_case "render islands" `Quick render_islands_contents;
    Alcotest.test_case "render fig3 empty" `Quick render_fig3_empty;
    Alcotest.test_case "render table1" `Quick render_table1_contents;
    Alcotest.test_case "render fig4" `Quick render_fig4_contents;
    Alcotest.test_case "render table2" `Quick render_table2_contents;
    Alcotest.test_case "render targeted (golden)" `Quick
      render_targeted_golden;
    Alcotest.test_case "render targeted empty" `Quick render_targeted_empty;
    Alcotest.test_case "render beta sweep" `Quick render_beta_sweep_exact;
  ]
