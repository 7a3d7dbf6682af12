type outcome = {
  best : Oppsla.Condition.program;
  best_avg_queries : float;
  synth_queries : int;
}

let synthesize ?(samples = 210) ?max_queries_per_image ?caches ?batch ?pool
    g oracle ~training =
  if Array.length training = 0 then
    invalid_arg "Random_search.synthesize: empty training set";
  if samples <= 0 then invalid_arg "Random_search.synthesize: samples <= 0";
  let gen_config = Oppsla.Gen.config_for_image (fst training.(0)) in
  let spent = ref 0 in
  let best = ref None in
  (* One heartbeat per sampled program: each draw evaluates the whole
     training set, so this is the coarse outer-progress signal (the
     per-query beats in Sketch.attack cover the inner loop). *)
  let wd = Telemetry.Watchdog.loop "baseline.random_search" in
  Telemetry.Journal.with_site "baseline/random_search" @@ fun () ->
  Telemetry.Watchdog.with_loop wd @@ fun () ->
  for i = 1 to samples do
    let program = Oppsla.Gen.random_program gen_config g in
    let e =
      Oppsla.Score.evaluate ?max_queries:max_queries_per_image ?caches ?batch
        ?pool oracle program training
    in
    spent := !spent + e.Oppsla.Score.total_queries;
    Telemetry.Watchdog.beat ~iteration:i ~queries:!spent wd;
    match !best with
    | Some (_, avg) when avg <= e.Oppsla.Score.avg_queries -> ()
    | _ -> best := Some (program, e.Oppsla.Score.avg_queries)
  done;
  match !best with
  | None -> assert false (* samples >= 1 *)
  | Some (best, best_avg_queries) ->
      { best; best_avg_queries; synth_queries = !spent }
