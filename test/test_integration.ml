(* Integration tests: the full pipeline on a real (but tiny) trained
   network, plus workbench artifact caching. *)

module Workbench = Evalharness.Workbench

(* A fast workbench configuration: a couple of epochs on little data,
   caching into a temp directory that is wiped afterwards. *)
let with_workbench f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "oppsla_test_%d" (Unix.getpid ()))
  in
  let config =
    {
      Workbench.default_config with
      artifacts_dir = Some dir;
      train_per_class = 16;
      test_per_class = 3;
      synth_per_class = 3;
      epochs = 4;
      seed = 7;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f config)

let classifier_pipeline () =
  with_workbench (fun config ->
      let c = Workbench.load_classifier config Dataset.synth_cifar "vgg_tiny" in
      Alcotest.(check bool) "better than chance" true (c.Workbench.test_accuracy > 0.15);
      Alcotest.(check int) "10 synth sets" 10
        (Array.length c.Workbench.synth_sets);
      (* Every test image really is correctly classified. *)
      Array.iter
        (fun (x, label) ->
          Alcotest.(check int) "correct" label
            (Nn.Network.classify c.Workbench.net x))
        c.Workbench.test;
      (* Weights were cached; a reload produces identical logits. *)
      let c2 = Workbench.load_classifier config Dataset.synth_cifar "vgg_tiny" in
      match c.Workbench.test with
      | [||] -> ()
      | test ->
          let x, _ = test.(0) in
          Alcotest.(check bool) "cache roundtrip" true
            (Tensor.equal
               (Nn.Network.logits c.Workbench.net x)
               (Nn.Network.logits c2.Workbench.net x)))

let attack_on_real_network () =
  with_workbench (fun config ->
      let c = Workbench.load_classifier config Dataset.synth_cifar "vgg_tiny" in
      match c.Workbench.test with
      | [||] -> Alcotest.fail "no attackable images"
      | test ->
          let image, true_class = test.(0) in
          let oracle = Workbench.oracle_factory c () in
          let r =
            Oppsla.Sketch.attack oracle Oppsla.Condition.const_false_program
              ~image ~true_class
          in
          Alcotest.(check bool) "bounded queries" true
            (r.Oppsla.Sketch.queries >= 1
            && r.Oppsla.Sketch.queries <= 8 * 16 * 16);
          Alcotest.(check int) "oracle counted the same" r.Oppsla.Sketch.queries
            (Oracle.queries oracle);
          (match r.Oppsla.Sketch.adversarial with
          | Some (_, adv) ->
              Alcotest.(check bool) "really adversarial" true
                (Oracle.unmetered_classify oracle adv <> true_class)
          | None -> ());
          (* Deterministic attack on a deterministic network. *)
          let r2 =
            Oppsla.Sketch.attack
              (Workbench.oracle_factory c ())
              Oppsla.Condition.const_false_program ~image ~true_class
          in
          Alcotest.(check int) "repeatable" r.Oppsla.Sketch.queries
            r2.Oppsla.Sketch.queries)

let program_cache_roundtrip () =
  with_workbench (fun config ->
      let c = Workbench.load_classifier config Dataset.synth_cifar "vgg_tiny" in
      let params =
        {
          Workbench.default_synth_params with
          iters = 2;
          synth_max_queries_per_image = 128;
        }
      in
      let a = Workbench.synthesize_programs ~params config c in
      Alcotest.(check int) "one program per class" 10 (Array.length a);
      (* Second call must hit the DSL cache and return equal programs. *)
      let b = Workbench.synthesize_programs ~params config c in
      Array.iteri
        (fun i p ->
          Alcotest.(check bool)
            (Printf.sprintf "class %d identical" i)
            true
            (Oppsla.Condition.equal_program p b.(i)))
        a)

let parallel_evaluator_agrees_with_sequential () =
  with_workbench (fun config ->
      let c = Workbench.load_classifier config Dataset.synth_cifar "vgg_tiny" in
      let samples =
        Array.sub c.Workbench.test 0 (min 6 (Array.length c.Workbench.test))
      in
      let program = Oppsla.Condition.const_false_program in
      let par =
        Domain_pool.Pool.with_pool ~domains:2 (fun pool ->
            Oppsla.Score.evaluate ~max_queries:256 ~pool
              (Workbench.oracle_factory c ())
              program samples)
      in
      let seq =
        Oppsla.Score.evaluate ~max_queries:256
          (Workbench.oracle_factory c ())
          program samples
      in
      Alcotest.(check int) "same successes" seq.Oppsla.Score.successes
        par.Oppsla.Score.successes;
      Alcotest.(check int) "same totals" seq.Oppsla.Score.total_queries
        par.Oppsla.Score.total_queries;
      Alcotest.(check (float 1e-9)) "same average" seq.Oppsla.Score.avg_queries
        par.Oppsla.Score.avg_queries)

let suite =
  [
    Alcotest.test_case "classifier pipeline" `Slow classifier_pipeline;
    Alcotest.test_case "attack on real network" `Slow attack_on_real_network;
    Alcotest.test_case "program cache roundtrip" `Slow program_cache_roundtrip;
    Alcotest.test_case "parallel evaluator agrees" `Slow
      parallel_evaluator_agrees_with_sequential;
  ]
