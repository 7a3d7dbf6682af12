(* The score-cache differential suite.

   The cache's contract is absolute: because metering sits above the memo
   table, every observable — query counts, success flags, adversarial
   pairs, score vectors, cap points, synthesizer traces —
   is bit-identical with the cache on and off.  These tests drive the
   sketch, all four baselines, a full synthesizer run (sequential and
   over a 4-domain pool) and a program chain on a conv-net oracle both
   ways and compare, plus property tests of the cached query path
   (Batcher.query at widths 1 and 16) against a fresh uncached oracle
   call-for-call, the clone-drops-cache rule, cache statistics, and the
   aliasing guards. *)

module Score = Oppsla.Score
module Sketch = Oppsla.Sketch
module Islands = Oppsla.Islands
module C = Oppsla.Condition

let size = 4

let training_set g n =
  Array.init n (fun i ->
      match i mod 4 with
      | 0 -> (Helpers.flat_image ~size (0.45 +. Prng.float g 0.1), 0)
      | 1 -> (Helpers.flat_image ~size 0.30, 0)
      | 2 -> (Tensor.rand_uniform g ~lo:0.35 ~hi:0.65 [| 3; size; size |], 0)
      | _ -> (Tensor.rand_uniform g ~lo:0.4 ~hi:0.6 [| 3; size; size |], 1))

let check_result name (off : Sketch.result) (on : Sketch.result) =
  Alcotest.(check int) (name ^ ": queries") off.Sketch.queries on.Sketch.queries;
  match (off.Sketch.adversarial, on.Sketch.adversarial) with
  | None, None -> ()
  | Some (p_off, x_off), Some (p_on, x_on) ->
      Alcotest.(check bool)
        (name ^ ": same adversarial pair")
        true
        (Oppsla.Pair.equal p_off p_on);
      Alcotest.(check (array (float 0.)))
        (name ^ ": same adversarial tensor")
        x_off.Tensor.data x_on.Tensor.data
  | _ -> Alcotest.fail (name ^ ": success flag diverged")

(* Sketch: result AND the full per-query (index, pair, scores) trace. *)

let sketch_differential () =
  let gen_config = Helpers.gen_config ~size in
  for trial = 0 to 9 do
    let g = Prng.of_int (100 + trial) in
    let image, true_class =
      (training_set (Prng.split g) 4).(Prng.int g 4)
    in
    let program = Oppsla.Gen.random_program gen_config g in
    let max_queries = if Prng.bool g then None else Some (1 + Prng.int g 60) in
    let trace oracle cache =
      let log = ref [] in
      Oracle.set_cache oracle cache;
      let r =
        Sketch.attack ?max_queries
          ~on_query:(fun i pair scores ->
            log := (i, pair, Array.copy scores.Tensor.data) :: !log)
          oracle program ~image ~true_class
      in
      (r, List.rev !log)
    in
    let off, off_log = trace (Helpers.mean_threshold_oracle ()) None in
    let on, on_log =
      trace (Helpers.mean_threshold_oracle ()) (Some (Score_cache.create ()))
    in
    let name = Printf.sprintf "sketch trial %d" trial in
    check_result name off on;
    Alcotest.(check int) (name ^ ": trace length") (List.length off_log)
      (List.length on_log);
    List.iter2
      (fun (i_off, p_off, s_off) (i_on, p_on, s_on) ->
        Alcotest.(check int) (name ^ ": query index") i_off i_on;
        Alcotest.(check bool) (name ^ ": queried pair") true
          (Oppsla.Pair.equal p_off p_on);
        Alcotest.(check (array (float 0.))) (name ^ ": score vector") s_off
          s_on)
      off_log on_log
  done

(* A warm cache (populated by a previous attack on the same image) must
   not change the next attack's observables either. *)

let sketch_warm_cache_differential () =
  let gen_config = Helpers.gen_config ~size in
  let g = Prng.of_int 4242 in
  let image = Helpers.flat_image ~size 0.47 in
  let cache = Score_cache.create () in
  for trial = 0 to 4 do
    let program = Oppsla.Gen.random_program gen_config g in
    let off =
      Sketch.attack (Helpers.mean_threshold_oracle ()) program ~image
        ~true_class:0
    in
    let oracle = Helpers.mean_threshold_oracle () in
    Oracle.set_cache oracle (Some cache);
    let on = Sketch.attack oracle program ~image ~true_class:0 in
    check_result (Printf.sprintf "warm trial %d" trial) off on
  done;
  let s = Score_cache.stats cache in
  Alcotest.(check bool) "warm cache actually hit" true
    (s.Score_cache.hits > 0)

(* The attached cache (Oracle.set_cache) is the one way an attack is
   given its cache; a fresh one leaves the attack's observables as they
   are without it. *)

let attached_cache_differential () =
  let image = Helpers.flat_image ~size 0.46 in
  let off =
    Sketch.attack (Helpers.mean_threshold_oracle ()) C.const_false_program
      ~image ~true_class:0
  in
  let oracle = Helpers.mean_threshold_oracle () in
  Oracle.set_cache oracle (Some (Score_cache.create ()));
  let on =
    Sketch.attack oracle C.const_false_program ~image ~true_class:0
  in
  check_result "attached cache" off on

(* Baselines: Fixed, Random_search, Su_opa, Sparse_rs (k = 1 and k = 2),
   each bit-identical with the cache on and off. *)

let fixed_differential () =
  let image = Helpers.flat_image ~size 0.47 in
  let off =
    Baselines.Fixed.attack (Helpers.mean_threshold_oracle ()) ~image
      ~true_class:0
  in
  let cache = Score_cache.create () in
  let oracle = Helpers.mean_threshold_oracle () in
  Oracle.set_cache oracle (Some cache);
  let on = Baselines.Fixed.attack oracle ~image ~true_class:0 in
  check_result "fixed" off on;
  Alcotest.(check bool) "fixed populated the cache" true
    ((Score_cache.stats cache).Score_cache.entries > 0)

let random_search_differential () =
  let training = training_set (Prng.of_int 5) 4 in
  let run caches =
    Baselines.Random_search.synthesize ~samples:6 ~max_queries_per_image:48
      ?caches (Prng.of_int 9)
      (Helpers.mean_threshold_oracle ())
      ~training
  in
  let off = run None in
  let caches = Score_cache.store (Array.length training) in
  let on = run (Some caches) in
  Alcotest.(check bool) "same best program" true
    (C.equal_program off.Baselines.Random_search.best
       on.Baselines.Random_search.best);
  Alcotest.(check (float 0.)) "same best average"
    off.Baselines.Random_search.best_avg_queries
    on.Baselines.Random_search.best_avg_queries;
  Alcotest.(check int) "same synthesis spend"
    off.Baselines.Random_search.synth_queries
    on.Baselines.Random_search.synth_queries;
  Alcotest.(check bool) "random search hit the cache" true
    ((Score_cache.store_stats caches).Score_cache.hits > 0)

let su_opa_differential () =
  (* DE revisits elite candidates across generations, so even a short run
     exercises hits; the RNG stream is identical on both sides because
     the cache never consumes randomness. *)
  for trial = 0 to 2 do
    let g = Prng.of_int (50 + trial) in
    let image =
      Tensor.rand_uniform (Prng.split g) ~lo:0.42 ~hi:0.58
        [| 3; size; size |]
    in
    let config = { Baselines.Su_opa.population = 6; f = 0.5; max_queries = 80 } in
    let off =
      Baselines.Su_opa.attack ~config (Prng.of_int (7 + trial))
        (Helpers.mean_threshold_oracle ())
        ~image ~true_class:0
    in
    let oracle = Helpers.mean_threshold_oracle () in
    Oracle.set_cache oracle (Some (Score_cache.create ()));
    let on =
      Baselines.Su_opa.attack ~config (Prng.of_int (7 + trial)) oracle ~image
        ~true_class:0
    in
    check_result (Printf.sprintf "su_opa trial %d" trial) off on
  done

let sparse_rs_differential () =
  for trial = 0 to 2 do
    let g = Prng.of_int (60 + trial) in
    let image =
      Tensor.rand_uniform (Prng.split g) ~lo:0.42 ~hi:0.58
        [| 3; size; size |]
    in
    let config = { Baselines.Sparse_rs.max_queries = 96; min_explore = 0.1 } in
    let off =
      Baselines.Sparse_rs.attack ~config (Prng.of_int (3 + trial))
        (Helpers.mean_threshold_oracle ())
        ~image ~true_class:0
    in
    let oracle = Helpers.mean_threshold_oracle () in
    Oracle.set_cache oracle (Some (Score_cache.create ()));
    let on =
      Baselines.Sparse_rs.attack ~config (Prng.of_int (3 + trial)) oracle
        ~image ~true_class:0
    in
    check_result (Printf.sprintf "sparse_rs trial %d" trial) off on;
    (* k = 2: the multi-pixel Custom key path. *)
    let off_multi =
      Baselines.Sparse_rs.attack_multi ~config ~k:2 (Prng.of_int (3 + trial))
        (Helpers.mean_threshold_oracle ())
        ~image ~true_class:0
    in
    let oracle = Helpers.mean_threshold_oracle () in
    Oracle.set_cache oracle (Some (Score_cache.create ()));
    let on_multi =
      Baselines.Sparse_rs.attack_multi ~config ~k:2 (Prng.of_int (3 + trial))
        oracle ~image ~true_class:0
    in
    Alcotest.(check int)
      (Printf.sprintf "sparse_rs k=2 trial %d: queries" trial)
      off_multi.Baselines.Sparse_rs.queries
      on_multi.Baselines.Sparse_rs.queries;
    Alcotest.(check bool)
      (Printf.sprintf "sparse_rs k=2 trial %d: success flag" trial)
      (off_multi.Baselines.Sparse_rs.adversarial <> None)
      (on_multi.Baselines.Sparse_rs.adversarial <> None)
  done

(* Full synthesizer runs, sequential and over a 4-domain pool: the
   accepted-program trace is the paper's artifact, so it gets the
   strictest comparison. *)

let synthesizer_differential () =
  let training = training_set (Prng.of_int 42) 5 in
  let config =
    {
      Islands.default_config with
      islands = 1;
      rounds = 6;
      max_queries_per_image = Some 64;
    }
  in
  let run ?pool ?caches () =
    Islands.synthesize ~config ?pool ?caches (Prng.of_int 11)
      (Helpers.mean_threshold_oracle ())
      ~training
  in
  let reference = run () in
  let check name (out : Islands.outcome) =
    Alcotest.(check int) (name ^ ": synthesis spend")
      reference.Islands.synth_queries out.Islands.synth_queries;
    Alcotest.(check bool) (name ^ ": final program") true
      (C.equal_program reference.Islands.islands.(0).Islands.final
         out.Islands.islands.(0).Islands.final);
    Alcotest.(check int) (name ^ ": trace length")
      (List.length reference.Islands.trace)
      (List.length out.Islands.trace);
    List.iter2
      (fun (a : Islands.entry) (b : Islands.entry) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: round %d" name a.Islands.round)
          true
          (a.Islands.accepted = b.Islands.accepted
          && a.Islands.avg_queries = b.Islands.avg_queries
          && a.Islands.queries_total = b.Islands.queries_total
          && C.equal_program a.Islands.program b.Islands.program))
      reference.Islands.trace out.Islands.trace
  in
  let caches () = Score_cache.store (Array.length training) in
  check "cached sequential" (run ~caches:(caches ()) ());
  List.iter
    (fun domains ->
      Domain_pool.Pool.with_pool ~domains (fun pool ->
          check
            (Printf.sprintf "uncached pool-%d" domains)
            (run ~pool ());
          check
            (Printf.sprintf "cached pool-%d" domains)
            (run ~pool ~caches:(caches ()) ())))
    [ 1; 4 ]

(* Score.evaluate over a synthesis-shaped workload on a real conv-net
   oracle: a chain of mutated programs re-poses mostly the same
   perturbations on the same images.  Cached and uncached evaluations
   must be bit-identical, and the store's hit/miss split is pinned
   exactly — a query charged on the hit path, or a hit counted twice,
   moves one of the counts. *)

let network_mutation_chain ~batch ~hits ~misses () =
  let g = Prng.of_int 11 in
  let net = Nn.Zoo.vgg_tiny (Prng.split g) ~image_size:8 ~num_classes:4 in
  (* Random images labelled with the network's own prediction, so every
     attack does real search work. *)
  let samples =
    Array.init 3 (fun _ ->
        let image = Tensor.rand_uniform (Prng.split g) [| 3; 8; 8 |] in
        (image, Nn.Network.classify net image))
  in
  let gen_config = Oppsla.Gen.config_for_image (fst samples.(0)) in
  let chain_rng = Prng.split g in
  let rec chain p n =
    if n = 1 then [ p ]
    else p :: chain (Oppsla.Gen.mutate gen_config chain_rng p) (n - 1)
  in
  let programs = chain (Oppsla.Gen.random_program gen_config chain_rng) 4 in
  (* Inline evaluation attacks every image against the caller's oracle,
     so its meter holds every query charged. *)
  let evaluate caches program =
    let oracle = Oracle.of_network net in
    let e =
      Score.evaluate ~max_queries:64 ?caches ~batch oracle program samples
    in
    (e, Oracle.queries oracle)
  in
  let store = Score_cache.store (Array.length samples) in
  let chunks = Telemetry.Metrics.counter "oracle.batch_forwards" in
  let cached_chunks = ref 0 in
  List.iteri
    (fun i program ->
      let off, off_metered = evaluate None program in
      let before = Telemetry.Counter.get chunks in
      let on, on_metered = evaluate (Some store) program in
      cached_chunks := !cached_chunks + Telemetry.Counter.get chunks - before;
      let name = Printf.sprintf "program %d" i in
      Alcotest.(check int) (name ^ ": total queries") off.Score.total_queries
        on.Score.total_queries;
      Alcotest.(check int) (name ^ ": metered = total") off.Score.total_queries
        off_metered;
      Alcotest.(check int) (name ^ ": metered queries") off_metered on_metered;
      Alcotest.(check int) (name ^ ": successes") off.Score.successes
        on.Score.successes;
      Alcotest.(check bool) (name ^ ": per-image records") true
        (off.Score.per_image = on.Score.per_image))
    programs;
  let s = Score_cache.store_stats store in
  Alcotest.(check int) "store hits" hits s.Score_cache.hits;
  Alcotest.(check int) "store misses" misses s.Score_cache.misses;
  (* Each image's clean vector is the one miss computed outside a
     chunk; every other miss at width 1 is a one-image chunk. *)
  if batch = 1 then
    Alcotest.(check int) "one forward pass per miss" misses
      (!cached_chunks + Array.length samples)

(* The cached query path under test: [cands] posed in order through a
   cached batcher of the given width whose speculation is the true
   future of the sequence, so a width-16 chunk resolves up to 16
   upcoming queries (repeats included) in one forward pass. *)
let batched_asker ~width oracle cache cands =
  Oracle.set_cache oracle (Some cache);
  let t = Helpers.batcher ~width oracle in
  let n = Array.length cands in
  fun p ->
    Batcher.query t
      ~speculate:(fun i -> if p + 1 + i < n then Some cands.(p + 1 + i) else None)
      ~input:cands.(p).Batcher.input cands.(p).Batcher.key

let widths = [ 1; 16 ]

(* Property test: Batcher.query vs a fresh uncached oracle queried one
   candidate at a time through width-1 batchers, call for call, over
   random pair sequences with repeats — same vectors, same counter. *)

let qcheck_batcher_matches_uncached =
  QCheck.Test.make ~name:"Batcher.query = scores per call" ~count:60
    QCheck.(
      pair (int_range 0 9999)
        (small_list
           (triple (int_range 0 (size - 1)) (int_range 0 (size - 1))
              (int_range 0 7))))
    (fun (seed, pairs) ->
      (* Replay the sequence twice so the second half is all cache hits. *)
      let seq = pairs @ pairs in
      let image =
        Tensor.rand_uniform (Prng.of_int seed) ~lo:0.3 ~hi:0.7
          [| 3; size; size |]
      in
      let cands =
        Array.of_list
          (List.map
             (fun (row, col, corner) ->
               let pair =
                 Oppsla.Pair.make ~loc:(Oppsla.Location.make ~row ~col) ~corner
               in
               {
                 Batcher.key = Sketch.cache_key pair;
                 input = (fun () -> Sketch.perturb image pair);
               })
             seq)
      in
      List.for_all
        (fun width ->
          let cached = Helpers.mean_threshold_oracle () in
          let uncached = Helpers.mean_threshold_oracle () in
          let cache = Score_cache.create () in
          let ask = batched_asker ~width cached cache cands in
          let ok = ref true in
          Array.iteri
            (fun p cand ->
              let on = ask p in
              let off =
                Helpers.query ~key:cand.Batcher.key uncached
                  (cand.Batcher.input ())
              in
              if on.Tensor.data <> off.Tensor.data then ok := false;
              if Oracle.queries cached <> Oracle.queries uncached then
                ok := false)
            cands;
          let s = Score_cache.stats cache in
          (* Every charged lookup is a hit or a miss; distinct keys bound
             the misses. *)
          !ok
          && s.Score_cache.hits + s.Score_cache.misses = Oracle.queries cached
          && s.Score_cache.misses = s.Score_cache.entries)
        widths)

(* Every re-posed query is charged even though the cache answers it:
   metering sits above the cache. *)

let budget_charged_on_hits () =
  let image = Helpers.flat_image ~size 0.5 in
  let pair =
    Oppsla.Pair.make ~loc:(Oppsla.Location.make ~row:0 ~col:0) ~corner:0
  in
  let cands =
    Array.make 4
      {
        Batcher.key = Sketch.cache_key pair;
        input = (fun () -> Sketch.perturb image pair);
      }
  in
  List.iter
    (fun width ->
      let name = Printf.sprintf "width %d: " width in
      let oracle = Helpers.mean_threshold_oracle () in
      let cache = Score_cache.create () in
      let ask = batched_asker ~width oracle cache cands in
      ignore (ask 0);
      ignore (ask 1);
      ignore (ask 2);
      Alcotest.(check int)
        (name ^ "three charged queries, one forward pass")
        3 (Oracle.queries oracle);
      Alcotest.(check int) (name ^ "single entry") 1
        (Score_cache.stats cache).Score_cache.entries;
      ignore (ask 3);
      Alcotest.(check int) (name ^ "a fourth hit is charged too") 4
        (Oracle.queries oracle);
      Alcotest.(check int) (name ^ "three hits") 3
        (Score_cache.stats cache).Score_cache.hits)
    widths

let clone_drops_cache () =
  let oracle = Helpers.mean_threshold_oracle () in
  let cache = Score_cache.create () in
  Oracle.set_cache oracle (Some cache);
  let c = Oracle.clone oracle in
  Alcotest.(check bool) "clone has no cache" true (Oracle.cache c = None);
  Alcotest.(check bool) "original keeps its cache" true
    (match Oracle.cache oracle with Some c' -> c' == cache | None -> false)

(* Cache mechanics: stats and bytes accounting. *)

let cache_stats () =
  let cache = Score_cache.create () in
  let vec i = Tensor.of_array [| 2 |] [| float_of_int i; 0. |] in
  let key i = Score_cache.Corner { row = i; col = 0; corner = 0 } in
  ignore (Score_cache.find_or_add cache (key 0) ~compute:(fun () -> vec 0));
  ignore (Score_cache.find_or_add cache (key 1) ~compute:(fun () -> vec 1));
  ignore (Score_cache.find_or_add cache (key 0) ~compute:(fun () -> vec 9));
  ignore (Score_cache.find_or_add cache (key 2) ~compute:(fun () -> vec 2));
  let s = Score_cache.stats cache in
  Alcotest.(check int) "hits" 1 s.Score_cache.hits;
  Alcotest.(check int) "misses" 3 s.Score_cache.misses;
  Alcotest.(check int) "entries" 3 s.Score_cache.entries;
  Alcotest.(check bool) "bytes accounted" true (s.Score_cache.bytes > 0);
  Alcotest.(check (option (float 0.01))) "hit rate" (Some 0.25)
    (Score_cache.hit_rate s);
  Alcotest.(check (option (float 0.))) "empty cache has no rate" None
    (Score_cache.hit_rate Score_cache.zero_stats)

let store_accounting () =
  let store = Score_cache.store 3 in
  Alcotest.(check int) "size" 3 (Score_cache.store_size store);
  let vec = Tensor.of_array [| 2 |] [| 1.; 0. |] in
  ignore
    (Score_cache.find_or_add
       (Score_cache.image_cache store 0)
       Score_cache.Clean
       ~compute:(fun () -> vec));
  ignore
    (Score_cache.find_or_add
       (Score_cache.image_cache store 0)
       Score_cache.Clean
       ~compute:(fun () -> vec));
  ignore
    (Score_cache.find_or_add
       (Score_cache.image_cache store 2)
       Score_cache.Clean
       ~compute:(fun () -> vec));
  let s = Score_cache.store_stats store in
  Alcotest.(check int) "aggregated hits" 1 s.Score_cache.hits;
  Alcotest.(check int) "aggregated misses" 2 s.Score_cache.misses;
  Alcotest.(check int) "aggregated entries" 2 s.Score_cache.entries;
  Alcotest.(check bool) "slots are distinct" true
    (Score_cache.image_cache store 0 != Score_cache.image_cache store 1);
  Alcotest.(check bool) "out of bounds raises" true
    (try
       ignore (Score_cache.image_cache store 3);
       false
     with Invalid_argument _ -> true)

(* Aliasing guards: a store must match the sample count, and an oracle
   with an attached (per-image) cache must not be fanned over a batch. *)

let evaluator_guards () =
  let samples = training_set (Prng.of_int 3) 3 in
  let program = C.const_false_program in
  Alcotest.(check bool) "store size mismatch raises" true
    (try
       ignore
         (Score.evaluate ~caches:(Score_cache.store 2)
            (Helpers.mean_threshold_oracle ())
            program samples);
       false
     with Invalid_argument _ -> true);
  let oracle = Helpers.mean_threshold_oracle () in
  Oracle.set_cache oracle (Some (Score_cache.create ()));
  Alcotest.(check bool) "attached cache rejected by evaluate" true
    (try
       ignore (Score.evaluate oracle program samples);
       false
     with Invalid_argument _ -> true);
  Domain_pool.Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.(check bool) "attached cache rejected by pooled evaluate"
        true
        (try
           ignore (Score.evaluate ~pool oracle program samples);
           false
         with Invalid_argument _ -> true))

let suite =
  [
    Alcotest.test_case "sketch: cache off = on (results + query traces)"
      `Quick sketch_differential;
    Alcotest.test_case "sketch: warm cache changes nothing" `Quick
      sketch_warm_cache_differential;
    Alcotest.test_case "sketch: attached cache = explicit cache" `Quick
      attached_cache_differential;
    Alcotest.test_case "fixed baseline differential" `Quick fixed_differential;
    Alcotest.test_case "random search differential" `Quick
      random_search_differential;
    Alcotest.test_case "su_opa differential" `Quick su_opa_differential;
    Alcotest.test_case "sparse_rs differential (k=1, k=2)" `Quick
      sparse_rs_differential;
    Alcotest.test_case "synthesizer differential (seq + pools 1/4)" `Quick
      synthesizer_differential;
    (* At width 16 the pins measure speculation: slots prepared ahead
       of their query count as misses and later hits.  At width 1 every
       miss is one forward pass. *)
    Alcotest.test_case "network mutation chain: cache off = on, exact hits"
      `Quick
      (network_mutation_chain ~batch:16 ~hits:542 ~misses:283);
    Alcotest.test_case
      "network mutation chain at width 1: cache off = on, exact hits" `Quick
      (network_mutation_chain ~batch:1 ~hits:502 ~misses:278);
    QCheck_alcotest.to_alcotest qcheck_batcher_matches_uncached;
    Alcotest.test_case "budget charged on hits" `Quick budget_charged_on_hits;
    Alcotest.test_case "clone drops cache" `Quick clone_drops_cache;
    Alcotest.test_case "cache stats" `Quick cache_stats;
    Alcotest.test_case "store accounting" `Quick store_accounting;
    Alcotest.test_case "evaluator aliasing guards" `Quick evaluator_guards;
  ]
