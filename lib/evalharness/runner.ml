type record = { true_class : int; success : bool; queries : int }

let run ?domains ?pool ?caches ?(batch = Oppsla.Sketch.default_batch)
    ?(goal = Oppsla.Sketch.Untargeted) ~seed ~max_queries
    (attacker : Attackers.t) ~oracle_factory samples =
  (match caches with
  | Some store when Score_cache.store_size store <> Array.length samples ->
      invalid_arg
        (Printf.sprintf "Runner.run: cache store has %d slots for %d samples"
           (Score_cache.store_size store)
           (Array.length samples))
  | _ -> ());
  let indexed = Array.mapi (fun i s -> (i, s)) samples in
  (* Stamp the image index onto the harness heartbeat so /healthz shows
     which sample a wedged run was on (the attackers themselves beat
     per query under their own loop names). *)
  let wd = Telemetry.Watchdog.loop "runner.attack" in
  let attack_one (i, (image, true_class)) =
    Telemetry.Watchdog.beat ~image:i wd;
    Telemetry.Journal.with_image i @@ fun () ->
    let g =
      Prng.named_stream (Prng.of_int seed)
        (Printf.sprintf "run/%s/%d" attacker.Attackers.name i)
    in
    let oracle = oracle_factory () in
    (* Attach the image's own slot to the image's own fresh oracle: the
       attacker signature takes only an oracle, so attachment is how the
       cache travels.  Slot i is only ever touched by the one worker
       attacking image i, so the ownership rule holds under the pool. *)
    (match caches with
    | Some store ->
        Oracle.set_cache oracle (Some (Score_cache.image_cache store i))
    | None -> ());
    let r =
      attacker.Attackers.run g oracle ~goal ~max_queries ~batch ~image
        ~true_class
    in
    {
      true_class;
      success = r.Oppsla.Sketch.adversarial <> None;
      queries = r.Oppsla.Sketch.queries;
    }
  in
  Telemetry.Watchdog.with_loop wd @@ fun () ->
  match pool with
  | Some pool -> Domain_pool.Pool.map pool attack_one indexed
  | None -> Domain_pool.map ?domains attack_one indexed

let success_rate_at records budget =
  if Array.length records = 0 then 0.
  else begin
    let hits = ref 0 in
    Array.iter
      (fun r -> if r.success && r.queries <= budget then incr hits)
      records;
    float_of_int !hits /. float_of_int (Array.length records)
  end

let success_rate records = success_rate_at records max_int

let successful_queries records =
  Array.to_list records
  |> List.filter_map (fun r -> if r.success then Some r.queries else None)

let avg_queries records =
  match successful_queries records with
  | [] -> None
  | qs ->
      Some
        (float_of_int (List.fold_left ( + ) 0 qs)
        /. float_of_int (List.length qs))

let median_queries records =
  match List.sort compare (successful_queries records) with
  | [] -> None
  | qs ->
      let n = List.length qs in
      let nth i = float_of_int (List.nth qs i) in
      if n mod 2 = 1 then Some (nth (n / 2))
      else Some ((nth ((n / 2) - 1) +. nth (n / 2)) /. 2.)
