(* The repository benchmark: four closed-loop workloads over the attack
   stack, measured end to end (untraced passes) and per layer (traced
   passes).  Build and run it through run.py:

     python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

   A pass is a fixed unit of work made from the seed: a query budget
   spent by the attack sweep, island syntheses, or a query budget spent
   by each of the four baselines.  A run repeats
   passes for the requested seconds and reports medians over them.  The
   per-attack records of every pass are compared with the stored
   reference for the seed, or, when none is stored, with a reference
   pass run with batching, caching and parallelism off.  GLOSSARY.md
   defines every metric and says why each workload exists. *)

module Attackers = Evalharness.Attackers
module Runner = Evalharness.Runner
module Workbench = Evalharness.Workbench
module Islands = Oppsla.Islands
module Score = Oppsla.Score
module Pool = Domain_pool.Pool

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let ratio a b = if b = 0. then 0. else a /. b

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list (List.sort compare xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ----- host speed -----

   The shared machines this runs on change speed by up to 2x from one
   second to the next, for every kind of code.  Each timed section is
   therefore bracketed by a fixed kernel written here (no change under
   lib/ can alter it), and its times are reported scaled by
   [reference_s] over the kernel's time (for passes, its mean over the
   run): seconds on a host that runs the kernel in [reference_s]. *)

let reference_s = 0.012

let kernel () =
  let n = 96 in
  let a = Array.init (n * n) (fun i -> float_of_int (i mod 17) *. 0.1) in
  let b = Array.init (n * n) (fun i -> float_of_int (i mod 13) *. 0.2) in
  let c = Array.make (n * n) 0. in
  let t0 = now () in
  for _ = 1 to 8 do
    for i = 0 to n - 1 do
      for k = 0 to n - 1 do
        let aik = a.((i * n) + k) in
        for j = 0 to n - 1 do
          c.((i * n) + j) <- c.((i * n) + j) +. (aik *. b.((k * n) + j))
        done
      done
    done
  done;
  ignore (Sys.opaque_identity c);
  now () -. t0

(* The kernel's time on every domain of [pool] at once (the domains a
   pass runs on may not slow down together): the mean over domains of
   the median of three runs. *)
let kernel_s pool =
  let per_domain =
    Pool.map pool
      (fun _ -> median (List.init 3 (fun _ -> kernel ())))
      (Array.make (Pool.size pool) ())
  in
  Array.fold_left ( +. ) 0. per_domain /. float_of_int (Array.length per_domain)

(* [timed_scaled pool f] is [f ()] with its wall time in reference
   seconds. *)
let timed_scaled pool f =
  let k0 = kernel_s pool in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  (r, dt *. reference_s /. ((k0 +. kernel_s pool) /. 2.))

(* ----- probes -----

   The traced passes time three public boundaries from this file: each
   attacker's [run] and each synthesis call, the island rounds (through
   [on_round]), and the batched forward pass behind [Oracle.of_fn].
   Untraced passes run the same code with the clock reads skipped. *)

let tracing = ref false
let forward_ns = Atomic.make 0
let pack_ns = Atomic.make 0
let attack_ns = Atomic.make 0
let forward_calls = Atomic.make 0
let forward_images = Atomic.make 0

let reset_probes () =
  List.iter
    (fun a -> Atomic.set a 0)
    [ forward_ns; pack_ns; attack_ns; forward_calls; forward_images ]

let add a n = ignore (Atomic.fetch_and_add a n)
let probe_s a = float_of_int (Atomic.get a) *. 1e-9

let timed a f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    let r = f () in
    add a (int_of_float ((now () -. t0) *. 1e9));
    r
  end

(* ----- the forward pass ----- *)

(* Stack the batch into one NCHW tensor, score it and split the rows back
   out, as [Oracle.of_network] does; the packing is timed apart from the
   scoring call. *)
let batch_fn score xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    if !tracing then begin
      add forward_calls 1;
      add forward_images n
    end;
    let batch =
      timed pack_ns (fun () ->
          let size = Tensor.numel xs.(0) in
          let b = Tensor.zeros (Array.append [| n |] (Tensor.shape xs.(0))) in
          Array.iteri
            (fun i x -> Array.blit x.Tensor.data 0 b.Tensor.data (i * size) size)
            xs;
          b)
    in
    let out = timed forward_ns (fun () -> score batch) in
    timed pack_ns (fun () ->
        let classes = Tensor.dim out 1 in
        Array.init n (fun i ->
            Tensor.init [| classes |] (fun j ->
                Tensor.get_flat out ((i * classes) + j))))
  end

let oracle_factory ~classes score () =
  let batch_fn = batch_fn score in
  Oracle.of_fn ~batch_fn ~name:"perfbench" ~num_classes:classes (fun x ->
      (batch_fn [| x |]).(0))

let engine kind net =
  match kind with
  | Nn.Backend.Boxed ->
      let plan = Nn.Backend.Boxed_engine.compile net in
      fun batch -> Nn.Backend.Boxed_engine.scores_batch plan batch
  | Nn.Backend.F32 ->
      let plan = Nn.Backend.F32_engine.compile net in
      fun batch -> Nn.Backend.F32_engine.scores_batch plan batch

(* The closed-form classifier of [bench synth]: class 1 iff the image
   mean is above 1/2, through a steep logistic. *)
let mean_threshold batch =
  let n = Tensor.dim batch 0 in
  let size = Tensor.numel batch / n in
  let d = batch.Tensor.data in
  let out = Array.make (2 * n) 0. in
  for i = 0 to n - 1 do
    let s = ref 0. in
    for j = i * size to ((i + 1) * size) - 1 do
      s := !s +. d.(j)
    done;
    let p1 = 1. /. (1. +. exp (-40. *. ((!s /. float_of_int size) -. 0.5))) in
    out.(2 * i) <- 1. -. p1;
    out.((2 * i) + 1) <- p1
  done;
  Tensor.of_array [| n; 2 |] out

(* ----- inputs ----- *)

type sizes = {
  train_per_class : int;
  epochs : int;
  test_per_class : int;
  synth_per_class : int;
  sweep_images : int;
  sweep_budget : int;  (** queries per sweep stream per pass *)
  synth_images : int;
  synth_budget : int;  (** synthesis queries per synth pass *)
  baseline_images : int;
  baseline_budget : int;  (** queries per baseline attacker per pass *)
  fn_images : int;
  fn_budget : int;  (** synthesis queries per synth_fn synthesis *)
}

let full =
  {
    train_per_class = 40;
    epochs = 4;
    test_per_class = 6;
    synth_per_class = 5;
    sweep_images = 24;
    sweep_budget = 4_096;
    synth_images = 16;
    synth_budget = 100_000;
    baseline_images = 64;
    baseline_budget = 15_000;
    fn_images = 6;
    fn_budget = 20_000;
  }

(* The benchmark's own tests run this size: every code path, in seconds. *)
let small =
  {
    train_per_class = 8;
    epochs = 1;
    test_per_class = 3;
    synth_per_class = 3;
    sweep_images = 3;
    sweep_budget = 1_500;
    synth_images = 4;
    synth_budget = 2_000;
    baseline_images = 4;
    baseline_budget = 500;
    fn_images = 4;
    fn_budget = 3_000;
  }

let classifier sizes ~seed backend =
  Workbench.load_classifier
    {
      Workbench.default_config with
      artifacts_dir = None;
      seed;
      train_per_class = sizes.train_per_class;
      test_per_class = sizes.test_per_class;
      synth_per_class = sizes.synth_per_class;
      epochs = sizes.epochs;
      backend;
    }
    Dataset.synth_cifar "vgg_tiny"

(* Test sets come grouped by class; take them round-robin so that a
   prefix covers every class. *)
let interleave samples =
  let seen = Hashtbl.create 16 in
  let keyed =
    Array.mapi
      (fun i ((_, c) as s) ->
        let k = Option.value (Hashtbl.find_opt seen c) ~default:0 in
        Hashtbl.replace seen c (k + 1);
        ((k, i), s))
      samples
  in
  Array.stable_sort (fun (a, _) (b, _) -> compare a b) keyed;
  Array.map snd keyed

let take n samples =
  let samples = Array.sub samples 0 (min n (Array.length samples)) in
  if Array.length samples = 0 then failwith "no attackable image";
  samples

(* The [n] correctly classified images with the smallest clean margin
   (true-class score minus the best other score).  A one-pixel attack
   can flip most of them, so the pass is not dominated by failed attacks,
   which spend the whole cap whatever the program, and the work of a pass
   varies less from seed to seed. *)
let most_vulnerable n factory samples =
  let oracle = factory () in
  let margin (x, c) =
    let s = Oracle.unmetered_scores oracle x in
    let other = ref neg_infinity in
    for j = 0 to Tensor.numel s - 1 do
      if j <> c then other := Float.max !other (Tensor.get_flat s j)
    done;
    Tensor.get_flat s c -. !other
  in
  let keyed = Array.mapi (fun i s -> ((margin s, i), s)) samples in
  Array.stable_sort (fun (a, _) (b, _) -> compare a b) keyed;
  take n (Array.map snd keyed)

(* The special-pixel corpus of [bench synth] with the special pixel's
   location drawn from the seed: flat images whose one off-value pixel is
   the only single-pixel flip, so a program's cost on an image is the
   position at which its queue edits surface that pixel. *)
let special_pixel_images n ~seed =
  let d = 16 in
  let f = 1. /. float_of_int (d * d) in
  let b_high = (0.5 -. (0.25 *. f)) /. (1. -. f) in
  let g = Prng.named_stream (Prng.of_int seed) "perfbench/synth_fn" in
  Array.init n (fun i ->
      let row = Prng.int_in g 3 12 in
      let col = Prng.int_in g 3 12 in
      let flip = i mod 2 = 1 in
      let img =
        Tensor.create [| 3; d; d |] (if flip then 1. -. b_high else b_high)
      in
      for c = 0 to 2 do
        Tensor.set img [| c; row; col |] (if flip then 0. else 1.)
      done;
      (img, if flip then 0 else 1))

(* ----- passes ----- *)

type pass = {
  records : string array;  (** per-attack lines, compared with the reference *)
  attempts : int;  (** per-image attacks run *)
  queries : int;
  successes : int;
  attacked : int;  (** the denominator of the success rate *)
  avg_success : float;
  best_avg : float;
  best_s : float;  (** seconds into the pass at which the best result was in hand *)
  best_queries : int;
  cache : Score_cache.stats;
  layers : (string * float) list;  (** workload-specific per-layer values *)
}

type mode = { batch : int; cached : bool; pool : Pool.t }

let traced_attacker (a : Attackers.t) =
  {
    a with
    Attackers.run =
      (fun g oracle ~goal ~max_queries ~batch ~image ~true_class ->
        timed attack_ns (fun () ->
            a.Attackers.run g oracle ~goal ~max_queries ~batch ~image
              ~true_class));
  }

let store_for m n = if m.cached then Some (Score_cache.store n) else None

let cache_stats = function
  | Some s -> Score_cache.store_stats s
  | None -> Score_cache.zero_stats

let runner_lines tag records =
  Array.map
    (fun (r : Runner.record) ->
      Printf.sprintf "%s %d %d %b" tag r.true_class r.queries r.success)
    records

let sum_queries records =
  Array.fold_left (fun acc (r : Runner.record) -> acc + r.queries) 0 records

let count_successes records =
  Array.fold_left
    (fun acc (r : Runner.record) -> if r.success then acc + 1 else acc)
    0 records

let avg_or default records =
  Option.value (Runner.avg_queries records) ~default

(* A sweep pass is [sweep_streams] streams of attacks, mapped over the
   pool (run one after the other on a pool of one).  Stream k attacks the
   images k, k + streams, k + 2 streams, ... in turn, cycling, one at a
   time, each with a fresh cache store and capped at the whole pair space
   or at what is left of the stream's [budget], until the budget is
   spent.  So every pass spends exactly [streams * budget] queries
   whatever the seed (over a fixed image list, the number of attacks that
   fail at the cap swung pass times by a third from seed to seed), and
   the domains get the same work. *)
let sweep_streams = 2

let sweep_pass ~seed ~program ~budget ~factory samples m =
  let t0 = now () in
  let n = Array.length samples in
  let image = fst samples.(0) in
  let cap = 8 * Tensor.dim image 1 * Tensor.dim image 2 in
  let attacker = traced_attacker (Attackers.oppsla_single program) in
  let stream k =
    let rec go j spent acc =
      if spent >= budget then List.rev acc
      else
        let i = k + (j * sweep_streams) in
        let caches = store_for m 1 in
        let r =
          (Runner.run ~domains:1 ?caches ~batch:m.batch
             ~seed:((seed * 1_000_003) + i)
             ~max_queries:(min cap (budget - spent))
             attacker ~oracle_factory:factory
             [| samples.(i mod n) |]).(0)
        in
        go (j + 1) (spent + r.Runner.queries) ((r, cache_stats caches) :: acc)
    in
    go 0 0 []
  in
  let attacks =
    List.concat
      (Array.to_list (Pool.map m.pool stream (Array.init sweep_streams Fun.id)))
  in
  let records = Array.of_list (List.map fst attacks) in
  let queries = sum_queries records in
  let avg = avg_or 0. records in
  {
    records = runner_lines "sweep" records;
    attempts = Array.length records;
    queries;
    successes = count_successes records;
    attacked = Array.length records;
    avg_success = avg;
    best_avg = avg;
    best_s = now () -. t0;
    best_queries = queries;
    cache =
      List.fold_left
        (fun acc (_, st) -> Score_cache.add_stats acc st)
        Score_cache.zero_stats attacks;
    layers = [];
  }

let baseline_attackers =
  [
    ("sparse_rs", Attackers.sparse_rs);
    ("sparse_rs_k3", Attackers.sparse_rs_space (Oppsla.Space.Kpixel 3));
    ("su_opa", Attackers.su_opa ());
    ("sparse_rs_decision", Attackers.decision Attackers.sparse_rs);
  ]

let attack_cap = 1024

(* Each attacker attacks the images in turn, one attack at a time, until
   it has spent [budget] queries: about the same work for every seed,
   however many attacks succeed early.  The images' caches are shared by
   the four attackers. *)
let baselines_pass ~seed ~budget ~factory samples m =
  let t0 = now () in
  let n = Array.length samples in
  let stores = Array.init n (fun _ -> store_for m 1) in
  let spent = ref 0 in
  let rows =
    List.map
      (fun (tag, attacker) ->
        let a0 = now () in
        let attacker = traced_attacker attacker in
        let rec go i own acc =
          if own >= budget then Array.of_list (List.rev acc)
          else
            let r =
              Runner.run ~pool:m.pool ?caches:stores.(i mod n) ~batch:m.batch
                ~seed:((seed * 1_000_003) + i) ~max_queries:attack_cap
                attacker ~oracle_factory:factory
                [| samples.(i mod n) |]
            in
            go (i + 1) (own + r.(0).Runner.queries) (r.(0) :: acc)
        in
        let records = go 0 0 [] in
        let t = now () in
        spent := !spent + sum_queries records;
        (tag, records, t -. a0, t -. t0, !spent))
      baseline_attackers
  in
  let all = Array.concat (List.map (fun (_, r, _, _, _) -> r) rows) in
  (* The best attacker is the one with the lowest mean queries per
     success; its result is in hand when its run ends. *)
  let _, best, _, best_s, best_queries =
    List.fold_left
      (fun ((_, b, _, _, _) as acc) ((_, r, _, _, _) as row) ->
        if avg_or infinity r < avg_or infinity b then row else acc)
      (List.hd rows) (List.tl rows)
  in
  {
    records =
      Array.concat (List.map (fun (tag, r, _, _, _) -> runner_lines tag r) rows);
    attempts = Array.length all;
    queries = !spent;
    successes = count_successes all;
    attacked = Array.length all;
    avg_success = avg_or 0. all;
    best_avg = avg_or 0. best;
    best_s;
    best_queries;
    cache =
      Array.fold_left
        (fun acc st -> Score_cache.add_stats acc (cache_stats st))
        Score_cache.zero_stats stores;
    layers =
      List.concat_map
        (fun (tag, r, wall, _, _) ->
          let name leaf = Printf.sprintf "baselines.%s.%s" tag leaf in
          [
            (name "wall_s", wall);
            (name "queries", float_of_int (sum_queries r));
            ( name "success_rate",
              ratio
                (float_of_int (count_successes r))
                (float_of_int (Array.length r)) );
          ])
        rows;
  }

let attack_attempts = Telemetry.Metrics.counter "attack.attempts"

let synth_pass ~seed ~budget ~cap ~factory training m =
  let t0 = now () in
  let marks = ref [] in
  let config =
    {
      Islands.default_config with
      Islands.islands = 4;
      rounds = max_int;
      max_synth_queries = Some budget;
      migration_period = 2;
      max_queries_per_image = Some cap;
      batch = m.batch;
      early_stop = Some Score.default_pac;
      on_round = (fun r -> marks := (r, now () -. t0) :: !marks);
    }
  in
  let caches = store_for m (Array.length training) in
  let attempts0 = Telemetry.Counter.get attack_attempts in
  let o =
    timed attack_ns (fun () ->
        Islands.synthesize ~config ~pool:m.pool ?caches (Prng.of_int seed)
          (factory ()) ~training)
  in
  (* Validate the winner on the training set: its per-image records join
     the trace in the reference check, and give the success rate. *)
  let final =
    timed attack_ns (fun () ->
        Score.evaluate_parallel ~max_queries:cap ?caches ~batch:m.batch
          ~pool:m.pool (factory ()) o.Islands.best training)
  in
  let trace = o.Islands.trace in
  (* The first round whose trace holds the final best program.  Round 0
     (the seed programs) ends inside round 1's interval. *)
  let best_round =
    List.fold_left
      (fun acc (e : Islands.entry) ->
        if
          (not e.Islands.pruned)
          && e.Islands.avg_queries = o.Islands.best_avg_queries
          && Oppsla.Condition.equal_program e.Islands.program o.Islands.best
        then min acc e.Islands.round
        else acc)
      max_int trace
  in
  let best_queries =
    List.fold_left
      (fun acc (e : Islands.entry) ->
        if e.Islands.round = best_round then max acc e.Islands.queries_total
        else acc)
      0 trace
  in
  let marks = List.rev !marks in
  let at r = Option.value (List.assoc_opt r marks) ~default:(now () -. t0) in
  let round_s =
    snd
      (List.fold_left
         (fun (prev, acc) (_, t) -> (t, (t -. prev) :: acc))
         (0., []) marks)
  in
  let total f =
    float_of_int
      (Array.fold_left (fun acc r -> acc + f r) 0 o.Islands.islands)
  in
  let proposals = total (fun r -> r.Islands.proposals) in
  let pruned = total (fun r -> r.Islands.pruned) in
  {
    records =
      Array.append
        (Array.of_list
           (List.map
              (fun (e : Islands.entry) ->
                Printf.sprintf "entry %d %d %b %b %h %d" e.Islands.round
                  e.Islands.island e.Islands.accepted e.Islands.pruned
                  e.Islands.avg_queries e.Islands.queries_total)
              trace))
        (Array.mapi
           (fun i (r : Score.image_eval) ->
             Printf.sprintf "best %d %d %b" i r.Score.queries r.Score.success)
           final.Score.per_image);
    attempts = Telemetry.Counter.get attack_attempts - attempts0;
    queries = o.Islands.synth_queries + final.Score.total_queries;
    successes = final.Score.successes;
    attacked = final.Score.attempts;
    avg_success = final.Score.avg_queries;
    best_avg = o.Islands.best_avg_queries;
    best_s = at (max 1 best_round);
    best_queries;
    cache = cache_stats caches;
    layers =
      [
        ("islands.round_s_p50", median round_s);
        ("islands.round_s_max", List.fold_left Float.max 0. round_s);
        ("islands.proposals", proposals);
        ("islands.accepted", total (fun r -> r.Islands.accepted));
        ("islands.pruned", pruned);
        ("islands.pruned_fraction", ratio pruned proposals);
        ("islands.migrations", float_of_int o.Islands.migrations);
      ];
  }

(* Several independent syntheses as one pass: their sum varies less from
   seed to seed than any one of them. *)
let merge_synth passes =
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 passes in
  let fsum f = List.fold_left (fun acc p -> acc +. f p) 0. passes in
  let layer name p = List.assoc name p.layers in
  let successes = sum (fun p -> p.successes) in
  let proposals = fsum (layer "islands.proposals") in
  let pruned = fsum (layer "islands.pruned") in
  {
    records =
      Array.concat
        (List.mapi
           (fun k p -> Array.map (Printf.sprintf "%d %s" k) p.records)
           passes);
    attempts = sum (fun p -> p.attempts);
    queries = sum (fun p -> p.queries);
    successes;
    attacked = sum (fun p -> p.attacked);
    avg_success =
      ratio
        (fsum (fun p -> p.avg_success *. float_of_int p.successes))
        (float_of_int successes);
    best_avg = fsum (fun p -> p.best_avg) /. float_of_int (List.length passes);
    best_s = fsum (fun p -> p.best_s);
    best_queries = sum (fun p -> p.best_queries);
    cache =
      List.fold_left
        (fun acc p -> Score_cache.add_stats acc p.cache)
        Score_cache.zero_stats passes;
    layers =
      [
        ("islands.round_s_p50", median (List.map (layer "islands.round_s_p50") passes));
        ( "islands.round_s_max",
          List.fold_left Float.max 0.
            (List.map (layer "islands.round_s_max") passes) );
        ("islands.proposals", proposals);
        ("islands.accepted", fsum (layer "islands.accepted"));
        ("islands.pruned", pruned);
        ("islands.pruned_fraction", ratio pruned proposals);
        ("islands.migrations", fsum (layer "islands.migrations"));
      ];
  }

(* ----- workloads -----

   Each set-up makes the workload's inputs from the seed and returns its
   pass.  The classifier workloads train vgg_tiny from the seed with the
   artifact cache off, so every set-up does the same work. *)

let sweep_program = Filename.concat "perfbench" "sweep.dsl"

let network_factory (c : Workbench.classifier) kind =
  oracle_factory ~classes:c.Workbench.spec.Dataset.num_classes
    (engine kind c.Workbench.net)

let setup_sweep sizes ~seed =
  let c = classifier sizes ~seed Nn.Backend.F32 in
  let factory = network_factory c Nn.Backend.F32 in
  let samples = take sizes.sweep_images (interleave c.Workbench.test) in
  let program =
    Oppsla.Dsl.parse_program_exn
      (In_channel.with_open_text sweep_program In_channel.input_all)
  in
  sweep_pass ~seed ~program ~budget:sizes.sweep_budget ~factory samples

let setup_synth sizes ~seed =
  let c = classifier sizes ~seed Nn.Backend.Boxed in
  let factory = network_factory c Nn.Backend.Boxed in
  let training =
    most_vulnerable sizes.synth_images factory
      (Array.concat (Array.to_list c.Workbench.synth_sets))
  in
  synth_pass ~seed ~budget:sizes.synth_budget ~cap:attack_cap
    ~factory training

(* Sixteen syntheses per pass, each on its own corpus and chain seed and
   each stopped at a synthesis query budget.  The work behind a query
   (speculated candidates, cache lookups) follows the programs a chain
   visits: with four syntheses of six rounds each, pass times spread by
   0.21 over ten seeds, and with four at a budget by 0.10 over five.  The
   cap is the whole pair space, so every special pixel is found and no
   query is spent on a failed attack; set-up checks, by an unmetered scan
   of the pair space, that every image is classified correctly and can
   be flipped. *)
let fn_instances = 16

let check_attackable factory samples =
  let oracle = factory () in
  Array.iter
    (fun (image, true_class) ->
      if
        Oracle.unmetered_classify oracle image <> true_class
        || not (Oppsla.Sketch.success_exists oracle ~image ~true_class)
      then failwith "a special-pixel image cannot be attacked")
    samples

let setup_synth_fn sizes ~seed =
  let factory = oracle_factory ~classes:2 mean_threshold in
  let instances =
    List.init fn_instances (fun k ->
        let seed = (seed * fn_instances) + k in
        let training = special_pixel_images sizes.fn_images ~seed in
        check_attackable factory training;
        synth_pass ~seed ~budget:sizes.fn_budget ~cap:(8 * 16 * 16) ~factory
          training)
  in
  fun m -> merge_synth (List.map (fun pass -> pass m) instances)

(* The baselines attack the special-pixel corpus through the closed-form
   oracle: on the classifier their cost per query follows the seed's
   cache hit rate, which spread pass times by more than a quarter over
   ten seeds. *)
let setup_baselines sizes ~seed =
  let factory = oracle_factory ~classes:2 mean_threshold in
  let samples = special_pixel_images sizes.baseline_images ~seed in
  check_attackable factory samples;
  baselines_pass ~seed ~budget:sizes.baseline_budget ~factory samples

(* name -> (pool width of measured passes, backend, set-up) *)
let workloads ~nproc =
  [
    ("sweep", (min 2 nproc, "f32", setup_sweep));
    ("synth", (1, "boxed", setup_synth));
    ("synth_fn", (1, "fn", setup_synth_fn));
    ("baselines", (1, "fn", setup_baselines));
  ]

(* ----- measurement ----- *)

let layer_unit name =
  let ends s = Filename.check_suffix name s in
  if ends "_s" || ends "_s_p50" || ends "_s_max" then "s"
  else if ends "rate" || ends "fraction" then "ratio"
  else "count"

(* Times in a sample are raw seconds until [scale_sample] turns them
   into reference seconds (see [reference_s]). *)
type sample = {
  p : pass;
  kernel : float;  (** the host-speed kernel's time around the pass *)
  wall : float;
  cpu : float;
  forward : float;
  pack : float;
  attack : float;
  calls : int;
  images : int;
  flops : int;
  batcher : Batcher.stats;
  jobs : int;
  tasks : int;
  steals : int;
  busy : float;
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
}

let measure ~traced ~delay ~flops pool run m =
  let k0 = kernel_s pool in
  reset_probes ();
  Batcher.reset_global_stats ();
  let flops0 = Option.fold ~none:0 ~some:Telemetry.Counter.get flops in
  let pool0 = Pool.stats pool in
  let profiler = if traced then Some (Telemetry.Profiler.start ()) else None in
  let gc0 = Gc.quick_stat () in
  tracing := traced;
  let c0 = cpu_now () in
  let t0 = now () in
  if delay > 0. then Unix.sleepf delay;
  let p = run m in
  let wall = now () -. t0 in
  let cpu = cpu_now () -. c0 in
  tracing := false;
  let gc1 = Gc.quick_stat () in
  Option.iter Telemetry.Profiler.stop profiler;
  let pool1 = Pool.stats pool in
  let k1 = kernel_s pool in
  {
    p;
    kernel = (k0 +. k1) /. 2.;
    wall;
    cpu;
    forward = probe_s forward_ns;
    pack = probe_s pack_ns;
    attack = probe_s attack_ns;
    calls = Atomic.get forward_calls;
    images = Atomic.get forward_images;
    flops = Option.fold ~none:0 ~some:Telemetry.Counter.get flops - flops0;
    batcher = Batcher.global_stats ();
    jobs = pool1.Pool.jobs - pool0.Pool.jobs;
    tasks = pool1.Pool.tasks - pool0.Pool.tasks;
    steals = pool1.Pool.steals - pool0.Pool.steals;
    busy = pool1.Pool.busy_seconds -. pool0.Pool.busy_seconds;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* The run's speed: [reference_s] over the mean of the kernel's times
   around all of its passes.  One bracket's kernel time swings more than
   the pass it brackets (it read 11 to 20 ms around passes whose times
   stayed within 10%), so scaling each pass by its own brackets added
   noise; the mean over a run still follows the host from run to run. *)
let run_speed samples =
  reference_s
  /. (List.fold_left (fun acc s -> acc +. s.kernel) 0. samples
     /. float_of_int (List.length samples))

(* [s] with its times in reference seconds. *)
let scale_sample speed s =
  let scale (name, v) = (name, if layer_unit name = "s" then v *. speed else v) in
  {
    s with
    p =
      { s.p with best_s = s.p.best_s *. speed; layers = List.map scale s.p.layers };
    wall = s.wall *. speed;
    cpu = s.cpu *. speed;
    forward = s.forward *. speed;
    pack = s.pack *. speed;
    attack = s.attack *. speed;
    busy = s.busy *. speed;
  }

(* The end-to-end metrics: the ones a user of the workload sees whose
   spread from seed to seed stays within their bounds.  The outcome of
   the pass (how many queries, how many successes) depends on the inputs
   the seed makes, so it is reported with the per-layer metrics. *)
let end_to_end ~setup_s samples =
  let med f = median (List.map f samples) in
  let heap = Gc.quick_stat () in
  [
    ("setup_s", "s", setup_s);
    ("wall_s", "s", med (fun s -> s.wall));
    ("cpu_s", "s", med (fun s -> s.cpu));
    ( "peak_heap_mb",
      "MB",
      float_of_int (heap.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
  ]

(* The pass's outcome, from the untraced passes of a traced run. *)
let outcome samples =
  let p = (List.hd samples).p in
  let med f = median (List.map f samples) in
  [
    ("attacks_per_s", "1/s", med (fun s -> float_of_int s.p.attempts /. s.wall));
    ("queries_per_s", "1/s", med (fun s -> float_of_int s.p.queries /. s.wall));
    ("total_queries", "count", float_of_int p.queries);
    ("avg_queries_success", "queries", p.avg_success);
    ( "success_rate",
      "ratio",
      ratio (float_of_int p.successes) (float_of_int p.attacked) );
    ("best_avg_queries", "queries", p.best_avg);
    ("time_to_best_s", "s", med (fun s -> s.p.best_s));
    ("queries_to_best", "count", float_of_int p.best_queries);
  ]

let layer_names =
  [
    "islands.round_s_p50";
    "islands.round_s_max";
    "islands.proposals";
    "islands.accepted";
    "islands.pruned";
    "islands.pruned_fraction";
    "islands.migrations";
  ]
  @ List.concat_map
      (fun (tag, _) ->
        List.map
          (fun leaf -> Printf.sprintf "baselines.%s.%s" tag leaf)
          [ "wall_s"; "queries"; "success_rate" ])
      baseline_attackers

let per_layer ~width ~speed ~overhead ~failed_fraction samples =
  let p = (List.hd samples).p in
  let med f = median (List.map f samples) in
  let first f = f (List.hd samples) in
  let fl = float_of_int in
  let queries = fl p.queries in
  let self s = s.attack -. s.forward -. s.pack in
  let b = first (fun s -> s.batcher) in
  let c = p.cache in
  let gc = Telemetry.Profiler.summary () in
  [
    ("backend.forward_s", "s", med (fun s -> s.forward));
    ("oracle.pack_s", "s", med (fun s -> s.pack));
    ("backend.calls", "count", first (fun s -> fl s.calls));
    ("backend.images", "count", first (fun s -> fl s.images));
    ( "backend.mean_batch",
      "images",
      first (fun s -> ratio (fl s.images) (fl s.calls)) );
    ( "backend.images_per_s",
      "1/s",
      med (fun s -> ratio (fl s.images) s.forward) );
    ("backend.gemm_flops", "flop", first (fun s -> fl s.flops));
    ("oracle.queries", "count", queries);
    ( "oracle.forwards_per_query",
      "ratio",
      first (fun s -> ratio (fl s.images) queries) );
    ("score_cache.hits", "count", fl c.Score_cache.hits);
    ("score_cache.misses", "count", fl c.Score_cache.misses);
    ( "score_cache.hit_rate",
      "ratio",
      Option.value (Score_cache.hit_rate c) ~default:0. );
    ("score_cache.entries", "count", fl c.Score_cache.entries);
    ("score_cache.bytes", "B", fl c.Score_cache.bytes);
    ("batcher.chunks", "count", fl b.Batcher.batches);
    ("batcher.prepared", "count", fl b.Batcher.prepared);
    ("batcher.buffer_hits", "count", fl b.Batcher.buffer_hits);
    ("batcher.discarded", "count", fl b.Batcher.discarded);
    ( "batcher.useful_ratio",
      "ratio",
      ratio
        (fl (b.Batcher.prepared - b.Batcher.discarded))
        (fl b.Batcher.prepared) );
    ("sketch.attack_s", "s", med (fun s -> s.attack));
    ("sketch.self_s", "s", med self);
    ( "sketch.self_us_per_query",
      "us",
      med (fun s -> ratio (self s *. 1e6) queries) );
  ]
  @ List.map
      (fun name ->
        (* Layers the workload does not exercise read 0. *)
        let v =
          if List.mem_assoc name p.layers then
            med (fun s -> List.assoc name s.p.layers)
          else 0.
        in
        (name, layer_unit name, v))
      layer_names
  @ [
      ("domain_pool.jobs", "count", first (fun s -> fl s.jobs));
      ("domain_pool.tasks", "count", first (fun s -> fl s.tasks));
      ("domain_pool.steals", "events", med (fun s -> fl s.steals));
      ("domain_pool.busy_s", "s", med (fun s -> s.busy));
      ( "domain_pool.steal_fraction",
        "ratio",
        med (fun s -> ratio (fl s.steals) (fl s.tasks)) );
      ( "gc.minor_words_per_query",
        "words",
        med (fun s -> ratio s.minor_words queries) );
      ("gc.minor_collections", "events", med (fun s -> fl s.minor_gcs));
      ("gc.major_collections", "events", med (fun s -> fl s.major_gcs));
      ( "gc.pause_s",
        "s",
        speed
        *. List.fold_left (fun acc g -> acc +. g.Telemetry.Profiler.total_s) 0. gc
        /. fl (List.length samples) );
      ( "gc.pause_p99_ms",
        "ms",
        1e3 *. speed
        *. List.fold_left
             (fun acc g -> Float.max acc g.Telemetry.Profiler.p99_s)
             0. gc );
      ("host.kernel_ms", "ms", 1e3 *. med (fun s -> s.kernel));
      ("trace.overhead_fraction", "ratio", overhead);
      ( "trace.attributed_fraction",
        "ratio",
        med (fun s -> ratio s.attack (s.wall *. fl width)) );
      ("failed_fraction", "ratio", failed_fraction);
    ]

(* ----- references ----- *)

let ref_path dir workload seed =
  Filename.concat (Filename.concat dir workload) (Printf.sprintf "%d.txt" seed)

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> Array.of_list

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_lines path lines =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc ->
      Array.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)

let mismatches reference records =
  let n = max (Array.length reference) (Array.length records) in
  let bad = ref 0 in
  for i = 0 to n - 1 do
    if
      i >= Array.length reference
      || i >= Array.length records
      || reference.(i) <> records.(i)
    then incr bad
  done;
  !bad

(* ----- output ----- *)

let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number v) unit)
          metrics))

let fail msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10. in
  let trace = ref 0 and size = ref "full" and refs = ref "" in
  let write_ref = ref "" and code = ref "unknown" and delay_ms = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME sweep, synth, synth_fn or baselines" );
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 untraced end-to-end run, or traced per-layer run" );
      ( "--size",
        Arg.Symbol ([ "full"; "small" ], fun s -> size := s),
        " workload size" );
      ( "--refs",
        Arg.Set_string refs,
        "DIR stored references, DIR/<workload>/<seed>.txt" );
      ( "--write-ref",
        Arg.Set_string write_ref,
        "DIR compute the reference records and store them under DIR" );
      ("--code", Arg.Set_string code, "ID code identity, for the result tags");
      ( "--untraced-delay-ms",
        Arg.Set_int delay_ms,
        "MS sleep inside every untraced pass of a traced run (tests)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N [--seconds S] [--trace 0|1]";
  let nproc = Domain.recommended_domain_count () in
  let width, backend, setup =
    match List.assoc_opt !workload (workloads ~nproc) with
    | Some w -> w
    | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seed < 0 then fail "--seed must be given and >= 0";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if !seconds <= 0. then fail "--seconds must be positive";
  let sizes = if !size = "small" then small else full in
  let pool = Pool.create ~domains:width () in
  let ref_pool = Pool.create ~domains:1 () in
  Fun.protect ~finally:(fun () ->
      Pool.shutdown pool;
      Pool.shutdown ref_pool)
  @@ fun () ->
  (* Set up several times and keep the median, so that set-up time is
     measured as steadily as the passes. *)
  let setup_started = now () in
  let rec set_up times =
    let r, dt = timed_scaled pool (fun () -> setup sizes ~seed:!seed) in
    let times = dt :: times in
    let n = List.length times in
    (* At least three set-ups, and for millisecond-scale ones up to a
       fifth of a second's worth. *)
    if !write_ref = "" && (n < 3 || (n < 200 && now () -. setup_started < 0.2))
    then set_up times
    else (r, times)
  in
  let run, setup_times = set_up [] in
  Gc.compact ();
  (* The reference configuration: one domain, batch 1 and no score cache,
     except that synthesis on the classifier keeps its cache (without it
     the same forward passes would be recomputed many times over). *)
  let reference_mode =
    { batch = 1; cached = !workload = "synth"; pool = ref_pool }
  in
  if !write_ref <> "" then begin
    let path = ref_path !write_ref !workload !seed in
    let p = run reference_mode in
    write_lines path p.records;
    Printf.printf "wrote %s (%d records)\n" path (Array.length p.records)
  end
  else begin
    let reference, ref_source =
      let path = ref_path !refs !workload !seed in
      if !refs <> "" && Sys.file_exists path then (read_lines path, "stored")
      else ((run reference_mode).records, "computed")
    in
    let flops =
      if backend = "fn" then None
      else
        Some (Telemetry.Metrics.counter ("backend." ^ backend ^ ".gemm_flops"))
    in
    let measured =
      { batch = Oppsla.Sketch.default_batch; cached = true; pool }
    in
    Telemetry.Metrics.reset ();
    let failed = ref 0 and attempted = ref 0 and consistent = ref true in
    let first = ref None in
    let one ~traced =
      let delay =
        if !trace = 1 && not traced then float_of_int !delay_ms /. 1e3 else 0.
      in
      match measure ~traced ~delay ~flops pool run measured with
      | s ->
          let r = s.p.records in
          attempted :=
            !attempted + max (Array.length r) (Array.length reference);
          failed := !failed + mismatches reference r;
          (match !first with
          | None -> first := Some r
          | Some f -> if f <> r then consistent := false);
          [ s ]
      | exception e ->
          prerr_endline ("perfbench: pass raised " ^ Printexc.to_string e);
          attempted := !attempted + Array.length reference;
          failed := !failed + Array.length reference;
          []
    in
    (* Closed loop: the next pass starts when the previous one ends.  A
       traced run alternates untraced and traced passes, so that both arms
       of the overhead see the same machine. *)
    let start = now () in
    let untraced = ref [] and traced = ref [] in
    let rec loop () =
      let t0 = now () in
      untraced := !untraced @ one ~traced:false;
      if !trace = 1 then traced := !traced @ one ~traced:true;
      (* Start another round only if it should end within the time. *)
      let t1 = now () in
      if t1 +. (t1 -. t0) -. start <= !seconds then loop ()
    in
    loop ();
    if !untraced = [] || (!trace = 1 && !traced = []) then
      fail "no pass completed";
    Printf.printf
      "tags {\"workload\": %S, \"seed\": %d, \"size\": %S, \"backend\": %S, \
       \"pool_width\": %d, \"nproc\": %d, \"ocaml\": %S, \"code\": %S, \
       \"reference\": %S, \"passes\": %d, \"traced_passes\": %d, \
       \"kernel_ms\": %.4f}\n"
      !workload !seed !size backend width nproc Sys.ocaml_version !code
      ref_source (List.length !untraced) (List.length !traced)
      (1e3 *. median (List.map (fun s -> s.kernel) (!untraced @ !traced)));
    let speed = run_speed (!untraced @ !traced) in
    let untraced = List.map (scale_sample speed) !untraced in
    let traced = List.map (scale_sample speed) !traced in
    let metrics =
      if !trace = 0 then end_to_end ~setup_s:(median setup_times) untraced
      else
        let wall l = median (List.map (fun s -> s.wall) l) in
        outcome untraced
        @ per_layer ~width ~speed
            ~overhead:((wall traced /. wall untraced) -. 1.)
            ~failed_fraction:
              (ratio (float_of_int !failed) (float_of_int !attempted))
            traced
    in
    print_result
      ~correct:(!failed = 0 && !consistent)
      ~attempted:!attempted ~failed:!failed metrics
  end
