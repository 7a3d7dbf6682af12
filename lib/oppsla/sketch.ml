type goal = Untargeted | Targeted of int

type result = {
  adversarial : (Pair.t * Tensor.t) option;
  queries : int;
}

let goal_reached goal ~true_class predicted =
  match goal with
  | Untargeted -> predicted <> true_class
  | Targeted target -> predicted = target

let perturb x (pair : Pair.t) =
  let x' = Tensor.copy x in
  Rgb.write_to_image x' ~row:pair.loc.Location.row ~col:pair.loc.Location.col
    (Pair.rgb pair);
  x'

(* In-place candidate slots: at most [n] copies of the attacked image,
   made on first use.  [slot_input] takes the next slot round-robin,
   restores the pixel its previous candidate wrote and writes the new
   pair, so a slot differs from the image in at most one pixel and
   equals [perturb image pair] when handed out.  The batcher
   materializes at most [n] inputs per chunk and the oracle consumes
   them before the next chunk (it borrows its inputs), so no live input
   is overwritten.  [rewind] restarts the cycle at slot 0 between
   chunks, so a chunk of [k] candidates touches only the first [k]
   slots and the arena grows only to the widest chunk. *)
type slot = { x : Tensor.t; mutable at : Location.t }
type arena = { base : Tensor.t; slots : slot option array; mutable next : int }

let arena ~n base = { base; slots = Array.make n None; next = 0 }
let rewind a = a.next <- 0

let slot_input a (pair : Pair.t) =
  let i = a.next in
  a.next <- (if i + 1 = Array.length a.slots then 0 else i + 1);
  let s =
    match a.slots.(i) with
    | Some s ->
        let { Location.row; col } = s.at in
        Rgb.write_to_image s.x ~row ~col (Rgb.of_image a.base ~row ~col);
        s
    | None ->
        let s = { x = Tensor.copy a.base; at = pair.loc } in
        a.slots.(i) <- Some s;
        s
  in
  Rgb.write_to_image s.x ~row:pair.loc.row ~col:pair.loc.col (Pair.rgb pair);
  s.at <- pair.loc;
  s.x

exception Found of Pair.t * Tensor.t
exception Out_of_queries

(* The in-queue neighbours of [pair] with the same corner — the paper's
   "closest pairs with respect to the location". *)
let closest_loc queue ~d1 ~d2 (pair : Pair.t) =
  Location.neighbors ~d1 ~d2 pair.loc
  |> List.filter_map (fun loc ->
         let candidate = Pair.make ~loc ~corner:pair.corner in
         if Pair_queue.mem queue candidate then Some candidate else None)

let cache_key (pair : Pair.t) =
  Score_cache.Corner
    {
      row = pair.loc.Location.row;
      col = pair.loc.Location.col;
      corner = pair.corner;
    }

let default_batch = 16

(* Attack-level telemetry: outcome counters plus the
   queries-to-success/-failure distributions — the histogram form of the
   paper's objective (average queries per successful attack).  All
   observation, no accounting: query counts and success flags stay
   bit-identical with telemetry on or off. *)
let m_attacks = Telemetry.Metrics.counter "attack.attempts"
let m_successes = Telemetry.Metrics.counter "attack.successes"
let m_failures = Telemetry.Metrics.counter "attack.failures"
let h_queries_to_success =
  Telemetry.Metrics.histogram "attack.queries_to_success"
let h_queries_to_failure =
  Telemetry.Metrics.histogram "attack.queries_to_failure"

(* Stall-watchdog heartbeat: every metered query beats, so a sketch
   attack that stops beating has genuinely wedged (or the oracle has). *)
let wd_attack = Telemetry.Watchdog.loop "sketch.attack"

let attack ?max_queries ?(goal = Untargeted) ?cache ?(batch = default_batch)
    ?(on_query = fun _ _ _ -> ()) oracle program ~image ~true_class =
  let run () =
  let cache =
    match cache with Some _ as c -> c | None -> Oracle.cache oracle
  in
  let d1 = Tensor.dim image 1 and d2 = Tensor.dim image 2 in
  let limit =
    match max_queries with Some q -> q | None -> Pair.count ~d1 ~d2
  in
  (* Unmetered by design; see the interface comment.  The clean scores
     share the per-image cache (key [Clean]) so repeated attacks on the
     same image pay the clean forward pass once.  The cache stores the
     raw vector; what the attack sees passes through the oracle's
     observation point, so under a label-only oracle the clean context
     is the one-hot of the clean label. *)
  let clean_scores =
    Oracle.observe oracle
      (match cache with
      | None -> Oracle.unmetered_scores oracle image
      | Some c ->
          Score_cache.find_or_add c Score_cache.Clean ~compute:(fun () ->
              Oracle.unmetered_scores oracle image))
  in
  let spent = ref 0 in
  let batcher = Batcher.create ?cache ~width:batch oracle in
  let slots = arena ~n:batch image in
  let candidate_of pair =
    { Batcher.key = cache_key pair; input = (fun () -> slot_input slots pair) }
  in
  (* Query a candidate pair, possibly served from the batcher's
     speculative buffer.  Raises [Found] on success and [Out_of_queries]
     when the [max_queries] cap is hit.  The perturbed tensor is only
     materialized on a cache/buffer miss (or on success, for the
     result). *)
  let check ?speculate pair =
    if !spent >= limit then raise Out_of_queries;
    (* A query builds at most one chunk, consumed before it returns. *)
    rewind slots;
    (* [observe] is the threat-model boundary: the batcher resolves the
       raw score vector (cache and keys are mode-blind), and everything
       downstream of this point — conditions, [on_query], the success
       test — only sees what the oracle's mode reveals.  The argmax of a
       one-hot is the argmax of the raw vector, so success detection is
       mode-independent; [Score_diff] on one-hot contexts becomes the
       label-flip indicator. *)
    let scores =
      Oracle.observe oracle (Batcher.query batcher ?speculate (candidate_of pair))
    in
    incr spent;
    Telemetry.Watchdog.beat ~queries:!spent wd_attack;
    on_query !spent pair scores;
    if goal_reached goal ~true_class (Tensor.argmax scores) then
      raise (Found (pair, perturb image pair));
    scores
  in
  let ctx_of pair perturbed_scores : Condition.ctx =
    { d1; d2; image; true_class; clean_scores; pair; perturbed_scores }
  in
  let queue =
    Telemetry.Trace.span "sketch.queue_init" ~cat:"attack" (fun () ->
        Pair_queue.full_space ~d1 ~d2 ~image)
  in
  let b1, b2, b3, b4 = Condition.conditions program in
  (* Speculation for the main loop: if no condition fires on this pair
     (the common case — and the only case for the Sketch+False baseline),
     the next candidates are exactly the queue's front entries.  Any
     condition that does fire mutates the queue or detours through the
     eager phase, which changes the next key and makes the batcher
     discard its buffer — accounting stays exact either way.  Filling is
     capped by the local query budget so the tail of an attack never
     over-prepares. *)
  let speculate_from_queue i =
    if i >= limit - !spent - 1 then None
    else Option.map candidate_of (Pair_queue.front_nth queue i)
  in
  try
    let rec main_loop () =
      match Pair_queue.pop queue with
      | None -> { adversarial = None; queries = !spent }
      | Some pair ->
          let ctx = ctx_of pair (check ~speculate:speculate_from_queue pair) in
          if Condition.eval b1 ctx then
            List.iter (Pair_queue.push_back queue)
              (closest_loc queue ~d1 ~d2 pair);
          if Condition.eval b2 ctx then begin
            match Pair_queue.first_with_location queue pair.loc with
            | Some next_pair -> Pair_queue.push_back queue next_pair
            | None -> ()
          end;
          eager_phase ctx;
          main_loop ()
    (* Eager checking (lines 7-24): pairs pulled out of the queue and
       queried immediately, breadth-first through both closeness
       relations. *)
    and eager_phase seed_ctx =
      let loc_q = Queue.create () and pert_q = Queue.create () in
      Queue.add seed_ctx loc_q;
      Queue.add seed_ctx pert_q;
      let expand_into ctx'' =
        Queue.add ctx'' loc_q;
        Queue.add ctx'' pert_q
      in
      while not (Queue.is_empty loc_q && Queue.is_empty pert_q) do
        while not (Queue.is_empty loc_q) do
          let ctx' = Queue.pop loc_q in
          if Condition.eval b3 ctx' then
            List.iter
              (fun pair'' ->
                Pair_queue.remove queue pair'';
                expand_into (ctx_of pair'' (check pair'')))
              (closest_loc queue ~d1 ~d2 ctx'.Condition.pair)
        done;
        while not (Queue.is_empty pert_q) do
          let ctx' = Queue.pop pert_q in
          if Condition.eval b4 ctx' then begin
            match
              Pair_queue.first_with_location queue
                ctx'.Condition.pair.Pair.loc
            with
            | None -> ()
            | Some pair'' ->
                Pair_queue.remove queue pair'';
                expand_into (ctx_of pair'' (check pair''))
          end
        done
      done
    in
    main_loop ()
  with
  | Found (pair, candidate) ->
      { adversarial = Some (pair, candidate); queries = !spent }
  | Out_of_queries -> { adversarial = None; queries = !spent }
  in
  Telemetry.Counter.incr m_attacks;
  let outcome = ref None in
  Telemetry.Trace.span "sketch.attack" ~cat:"attack"
    ~args:(fun () ->
      match !outcome with
      | None -> []
      | Some r ->
          [
            ("queries", Telemetry.Trace.Int r.queries);
            ("success", Telemetry.Trace.Bool (r.adversarial <> None));
            ("true_class", Telemetry.Trace.Int true_class);
            ("batch", Telemetry.Trace.Int batch);
          ])
    (fun () ->
      (* Journal charge site: "sketch" unless an outer tag (synth, an
         island chain) already claimed the charges. *)
      let r =
        Telemetry.Journal.with_default_site "sketch" @@ fun () ->
        Telemetry.Watchdog.with_loop wd_attack run
      in
      outcome := Some r;
      let q = float_of_int r.queries in
      (match r.adversarial with
      | Some _ ->
          Telemetry.Counter.incr m_successes;
          Telemetry.Histogram.observe h_queries_to_success q
      | None ->
          Telemetry.Counter.incr m_failures;
          Telemetry.Histogram.observe h_queries_to_failure q);
      r)

let success_exists ?(goal = Untargeted) oracle ~image ~true_class =
  let d1 = Tensor.dim image 1 and d2 = Tensor.dim image 2 in
  (* One scratch copy, perturbed in place; each pair restores the pixel
     the previous one wrote. *)
  let scratch = arena ~n:1 image in
  let flips pair =
    goal_reached goal ~true_class
      (Oracle.unmetered_classify oracle (slot_input scratch pair))
  in
  List.exists
    (fun loc ->
      let rec any corner =
        corner < 8 && (flips (Pair.make ~loc ~corner) || any (corner + 1))
      in
      any 0)
    (Location.all ~d1 ~d2)
