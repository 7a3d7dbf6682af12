type record = { true_class : int; success : bool; queries : int }

let run ?domains ?pool ?caches ?(batch = Oppsla.Sketch.default_batch)
    ?(goal = Oppsla.Sketch.Untargeted) ~seed ~max_queries
    (attacker : Attackers.t) ~oracle_factory samples =
  Oppsla.Sketch.require_default_batch "Runner.run" batch;
  let attack i ~cache ~image ~true_class =
    let g =
      Prng.named_stream (Prng.of_int seed)
        (Printf.sprintf "run/%s/%d" attacker.Attackers.name i)
    in
    (* The attacker signature takes only an oracle, so the image's own
       cache slot travels attached to the image's own fresh oracle. *)
    let oracle = oracle_factory () in
    Option.iter (fun c -> Oracle.set_cache oracle (Some c)) cache;
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
  let attack_each pool =
    Oppsla.Score.attack_each ?pool ?caches attack samples
  in
  match pool with
  | Some _ -> attack_each pool
  | None ->
      (* A transient pool, no wider than the sample count; one domain or
         one sample runs inline. *)
      let domains =
        Option.value domains ~default:(Domain_pool.domain_count ())
      and n = Array.length samples in
      if domains <= 1 || n < 2 then attack_each None
      else
        Domain_pool.Pool.with_pool ~domains:(min domains n) (fun pool ->
            attack_each (Some pool))

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
