type image_eval = { queries : int; success : bool }

type evaluation = {
  avg_queries : float;
  successes : int;
  attempts : int;
  total_queries : int;
  per_image : image_eval array;
}

let no_success_penalty = 1e9

(* Merging attack results into an evaluation always walks the results in
   image (index) order, so the parallel evaluator is bit-identical to the
   sequential one: same integer sums, same float division, same flags. *)
let of_results results =
  let per_image =
    Array.map
      (fun (r : Sketch.result) ->
        { queries = r.Sketch.queries; success = r.Sketch.adversarial <> None })
      results
  in
  let successes = ref 0 and success_queries = ref 0 and total = ref 0 in
  Array.iter
    (fun r ->
      total := !total + r.queries;
      if r.success then begin
        incr successes;
        success_queries := !success_queries + r.queries
      end)
    per_image;
  let avg_queries =
    if !successes = 0 then no_success_penalty
    else float_of_int !success_queries /. float_of_int !successes
  in
  {
    avg_queries;
    successes = !successes;
    attempts = Array.length results;
    total_queries = !total;
    per_image;
  }

(* An oracle handle carrying an *attached* per-image cache must not be
   fanned over a batch — that would alias one image's table across every
   sample.  Fail loudly instead of silently returning wrong scores. *)
let check_oracle name oracle =
  if Oracle.cache oracle <> None then
    invalid_arg
      (name
     ^ ": oracle has an attached per-image cache (Oracle.set_cache); pass \
        ~caches so each sample gets its own slot")

(* Stamped with the image index on every attack so the watchdog
   snapshot (and a stall's post-mortem bundle) shows which sample a
   wedged evaluation was working on (last-writer-wins across
   domains).  The slot is never entered, so it never reports a stall:
   the attackers enter their own slots and beat them per query. *)
let wd_image = Telemetry.Watchdog.loop "eval.image"

(* The one per-image evaluation loop.  It attacks the images in [order]
   in stages of [stage] — inline, or one [Pool.map] per stage over
   [pool] — keeps the results at their image index and, after every
   stage but the last, asks [check] (images done, results so far)
   whether to stop.  A store is strictly per-image: slot i memoizes
   sample i and is handed to the one attack on image i, so under a pool
   a cache is only ever touched by the domain attacking its image.
   Journal context is domain-local and a pool worker starts with an
   empty one, so the caller's charge-site tag is captured here and
   re-applied around every attack: pooled charges attribute exactly like
   inline ones. *)
let staged ?pool ?caches ~order ~stage ~check attack samples =
  let n = Array.length samples in
  (match caches with
  | Some store when Score_cache.store_size store <> n ->
      invalid_arg
        (Printf.sprintf "Score: cache store has %d slots for %d samples"
           (Score_cache.store_size store)
           n)
  | _ -> ());
  let site = Telemetry.Journal.site () in
  let attack_one i =
    let image, true_class = samples.(i) in
    let cache = Option.map (fun s -> Score_cache.image_cache s i) caches in
    Telemetry.Watchdog.beat ~image:i wd_image;
    Telemetry.Journal.with_site site @@ fun () ->
    Telemetry.Journal.with_image i @@ fun () ->
    attack i ~cache ~image ~true_class
  in
  let results = Array.make n None in
  let rec from lo =
    let hi = min n (lo + stage) in
    let ids = Array.sub order lo (hi - lo) in
    let rs =
      match pool with
      | None -> Array.map attack_one ids
      | Some pool -> Domain_pool.Pool.map pool attack_one ids
    in
    Array.iteri (fun j r -> results.(ids.(j)) <- Some r) rs;
    if hi = n then Ok (Array.map Option.get results)
    else match check hi results with Some v -> Error v | None -> from hi
  in
  from 0

let attack_each ?pool ?caches attack samples =
  let n = Array.length samples in
  match
    staged ?pool ?caches ~order:(Array.init n Fun.id) ~stage:n
      ~check:(fun _ _ -> None)
      attack samples
  with
  | Ok results -> results
  | Error () -> assert false (* one stage: [check] never runs *)

(* Inline, every image is attacked against the caller's oracle; over a
   pool each gets its own [Oracle.clone] so metering is race-free.  The
   image's own cache slot is attached to that handle for the one attack
   and detached afterwards, so the caller's oracle leaves as it came
   ([check_oracle] rules out an attached cache on entry). *)
let sketch_attack ?max_queries ?goal ?pool oracle program _i ~cache ~image
    ~true_class =
  let o = match pool with None -> oracle | Some _ -> Oracle.clone oracle in
  Oracle.set_cache o cache;
  Fun.protect
    ~finally:(fun () -> Oracle.set_cache o None)
    (fun () ->
      Sketch.attack ?max_queries ?goal o program ~image ~true_class)

let evaluate ?max_queries ?goal ?caches ?pool oracle program samples =
  check_oracle "Score.evaluate" oracle;
  of_results
    (attack_each ?pool ?caches
       (sketch_attack ?max_queries ?goal ?pool oracle program)
       samples)

let evaluate_parallel ?max_queries ?goal ?caches ?batch ~pool =
  Option.iter (Sketch.require_default_batch "Score.evaluate_parallel") batch;
  evaluate ?max_queries ?goal ?caches ~pool

(* PAC early stopping: evaluate a candidate on a
   permuted prefix of the training set and abandon it as soon as a lower
   bound on its final average exceeds the incumbent's.  Two bounds are
   combined; whichever is larger prunes:

   - a *certified* optimistic-completion bound: every unevaluated image
     could still succeed in one query, so the final average over
     successes is at least (sq + n_rem) / (succ + n_rem) — monotone
     algebra, no probability involved;
   - a Hoeffding bound on the mean over successes: with [succ] success
     samples in [0, range], the empirical mean overestimates the true
     mean by more than range * sqrt(ln(1/delta) / (2 succ)) with
     probability at most delta.

   A candidate that is never pruned completes on every image, and the
   integer per-image results are merged in input order by [of_results],
   so [Complete] is bit-identical to the exact evaluators regardless of
   the visiting order. *)

type pac = { delta : float; min_images : int; stage : int; range : float option }

let default_pac = { delta = 0.05; min_images = 10; stage = 10; range = None }

type pruned_stats = {
  lower_bound : float;
  images_seen : int;
  queries_spent : int;
}

type staged = Complete of evaluation | Pruned of pruned_stats

let evaluate_pac ?max_queries ?goal ?caches ?pool ~pac ~threshold ~order oracle
    program samples =
  check_oracle "Score.evaluate_pac" oracle;
  let n = Array.length samples in
  if Array.length order <> n then
    invalid_arg
      (Printf.sprintf "Score.evaluate_pac: order has %d entries for %d samples"
         (Array.length order) n);
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then
        invalid_arg "Score.evaluate_pac: order is not a permutation";
      seen.(i) <- true)
    order;
  let range =
    match (pac.range, max_queries) with
    | Some r, _ -> r
    | None, Some cap -> float_of_int cap
    | None, None ->
        invalid_arg
          "Score.evaluate_pac: the Hoeffding bound needs pac.range or \
           max_queries"
  in
  if pac.stage <= 0 then invalid_arg "Score.evaluate_pac: stage must be positive";
  let check evaluated results =
    if evaluated < pac.min_images then None
    else begin
      let succ = ref 0 and sq = ref 0 and spent = ref 0 in
      for k = 0 to evaluated - 1 do
        match results.(order.(k)) with
        | Some (r : Sketch.result) ->
            spent := !spent + r.Sketch.queries;
            if r.Sketch.adversarial <> None then begin
              incr succ;
              sq := !sq + r.Sketch.queries
            end
        | None -> assert false
      done;
      let n_rem = n - evaluated in
      let certified =
        (* succ + n_rem > 0 here because n_rem >= 1. *)
        float_of_int (!sq + n_rem) /. float_of_int (!succ + n_rem)
      in
      let statistical =
        if !succ = 0 then neg_infinity
        else
          (float_of_int !sq /. float_of_int !succ)
          -. (range
             *. sqrt (log (1. /. pac.delta) /. (2. *. float_of_int !succ)))
      in
      let lower_bound = Float.max certified statistical in
      if lower_bound > threshold then
        Some { lower_bound; images_seen = evaluated; queries_spent = !spent }
      else None
    end
  in
  match
    staged ?pool ?caches ~order ~stage:pac.stage ~check
      (sketch_attack ?max_queries ?goal ?pool oracle program)
      samples
  with
  | Ok results -> Complete (of_results results)
  | Error pruned -> Pruned pruned

let score ~beta avg_queries = exp (-.beta *. avg_queries)

let acceptance_ratio ~beta ~current ~proposal =
  exp (beta *. (current -. proposal))
