(* Aggregated test runner: `dune runtest`. *)

let () =
  Alcotest.run "oppsla"
    [
      ("prng", Test_prng.suite);
      ("telemetry", Test_telemetry.suite);
      ("journal", Test_journal.suite);
      ("tensor", Test_tensor.suite);
      ("backend", Test_backend.suite);
      ("nn", Test_nn.suite);
      ("dataset", Test_dataset.suite);
      ("oracle", Test_oracle.suite);
      ("geometry", Test_geometry.suite);
      ("pair_queue", Test_pair_queue.suite);
      ("condition_dsl", Test_condition_dsl.suite);
      ("gen", Test_gen.suite);
      ("sketch", Test_sketch.suite);
      ("synthesizer", Test_synth.suite);
      ("islands", Test_islands.suite);
      ("baselines", Test_baselines.suite);
      ("scenarios", Test_scenarios.suite);
      ("evalharness", Test_evalharness.suite);
      ("traceprof", Test_traceprof.suite);
      ("truncation", Test_truncation.suite);
      ("parallel_eval", Test_parallel_eval.suite);
      ("cache_eval", Test_cache_eval.suite);
      ("batch_eval", Test_batch_eval.suite);
      ("metered_queries", Test_metered_queries.suite);
      ("stats", Test_stats.suite);
      ("report", Test_report.suite);
      ("image", Test_image.suite);
      ("analysis", Test_analysis.suite);
      ("extensions", Test_extensions.suite);
      ("integration", Test_integration.suite);
    ]
