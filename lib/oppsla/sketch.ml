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

exception Found of int

let cache_key (pair : Pair.t) =
  Score_cache.Corner
    {
      row = pair.loc.Location.row;
      col = pair.loc.Location.col;
      corner = pair.corner;
    }

(* One immutable key table per image geometry, shared by every attack
   (and domain) on that geometry, so a query names its key by a table
   read instead of building it. *)
let corner_keys =
  Location.per_geometry (fun ~d1 ~d2 ->
      Array.init (Pair.count ~d1 ~d2) (fun id -> cache_key (Pair.of_id ~d2 id)))

let default_batch = 1

let require_default_batch fn b =
  if b <> default_batch then
    invalid_arg
      (Printf.sprintf
         "%s: batch width %d; every attack poses one candidate per query \
          (width %d)"
         fn b default_batch)

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

(* Stall-watchdog heartbeat: the batcher beats it on every metered
   query, so a sketch attack that stops beating has genuinely wedged (or
   the oracle has). *)
let wd_attack = Telemetry.Watchdog.loop "sketch.attack"

let attack ?max_queries ?(goal = Untargeted) ?on_query oracle program ~image
    ~true_class =
  let run () =
  let cache = Oracle.cache oracle in
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
  let batcher = Batcher.create ~max_queries:limit ~watchdog:wd_attack oracle in
  let slot = Arena.create image in
  let keys = corner_keys ~d1 ~d2 in
  (* The pair id [check] is posing: the one [input] closure of this
     attack materializes it (on a miss only). *)
  let pending = ref (-1) in
  let input () = Arena.corner slot !pending in
  (* Query pair [id].  Raises [Found] on success; the batcher raises
     [Out_of_queries] at the [max_queries] cap.  The perturbed tensor is
     only materialized on a cache miss (or on success, for the result);
     a query answered from the cache allocates nothing here.  The scores
     are what the oracle's mode reveals: the argmax of a one-hot is the
     argmax of the raw vector, so success detection is mode-independent,
     and [Score_diff] on one-hot contexts becomes the label-flip
     indicator. *)
  let check id =
    pending := id;
    let scores = Batcher.query batcher ~input keys.(id) in
    (match on_query with
    | None -> ()
    | Some f -> f (Batcher.spent batcher) (Pair.of_id ~d2 id) scores);
    if goal_reached goal ~true_class (Tensor.argmax scores) then
      raise (Found id);
    scores
  in
  let queue =
    Telemetry.Trace.span "sketch.queue_init" ~cat:"attack" (fun () ->
        Pair_queue.full_space ~d1 ~d2 ~image)
  in
  let compile c = Condition.compile c ~image ~true_class ~clean_scores in
  let b1, b2, b3, b4 =
    let b1, b2, b3, b4 = Condition.conditions program in
    (compile b1, compile b2, compile b3, compile b4)
  in
  (* Eager checking (lines 7-24): pairs pulled out of the queue and
     queried immediately, breadth-first through both closeness
     relations.  The algorithm's two FIFO queues receive every checked
     pair, in the same order, so one buffer of (id, scores) entries with
     a read cursor per relation holds both.  It is made the first time
     B3 or B4 fires and reused for the rest of the attack. *)
  let eager_ids = ref [||] and eager_scores = ref [||] and eager_len = ref 0 in
  let eager_push id scores =
    let n = !eager_len in
    if n = Array.length !eager_ids then begin
      let cap = max 64 (2 * n) in
      let ids = Array.make cap 0 and ss = Array.make cap scores in
      Array.blit !eager_ids 0 ids 0 n;
      Array.blit !eager_scores 0 ss 0 n;
      eager_ids := ids;
      eager_scores := ss
    end;
    !eager_ids.(n) <- id;
    !eager_scores.(n) <- scores;
    eager_len := n + 1
  in
  let eager_check id =
    Pair_queue.remove queue id;
    eager_push id (check id)
  in
  let eager_phase seed seed_scores =
    eager_len := 0;
    eager_push seed seed_scores;
    let loc_next = ref 0 and pert_next = ref 0 in
    while !loc_next < !eager_len || !pert_next < !eager_len do
      while !loc_next < !eager_len do
        let i = !loc_next in
        loc_next := i + 1;
        let id = !eager_ids.(i) in
        if Condition.holds b3 ~id ~scores:!eager_scores.(i) then
          Pair_queue.iter_neighbors queue id eager_check
      done;
      while !pert_next < !eager_len do
        let i = !pert_next in
        pert_next := i + 1;
        let id = !eager_ids.(i) in
        if Condition.holds b4 ~id ~scores:!eager_scores.(i) then begin
          let next = Pair_queue.first_with_location queue (id / 8) in
          if next >= 0 then eager_check next
        end
      done
    done
  in
  let push_back id = Pair_queue.push_back queue id in
  try
    let rec main_loop () =
      let id = Pair_queue.pop queue in
      if id < 0 then { adversarial = None; queries = Batcher.spent batcher }
      else begin
        let scores = check id in
        if Condition.holds b1 ~id ~scores then
          Pair_queue.iter_neighbors queue id push_back;
        if Condition.holds b2 ~id ~scores then begin
          let next = Pair_queue.first_with_location queue (id / 8) in
          if next >= 0 then push_back next
        end;
        (* Conditions are pure, so testing B3 and B4 on the seed before
           entering changes nothing: the phase does no work unless one
           of them holds there. *)
        if Condition.holds b3 ~id ~scores || Condition.holds b4 ~id ~scores
        then eager_phase id scores;
        main_loop ()
      end
    in
    main_loop ()
  with
  | Found id ->
      let pair = Pair.of_id ~d2 id in
      {
        adversarial = Some (pair, perturb image pair);
        queries = Batcher.spent batcher;
      }
  | Batcher.Out_of_queries ->
      { adversarial = None; queries = Batcher.spent batcher }
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
  (* One slot, perturbed in place; each pair restores the pixel the
     previous one wrote.  Ids ascend row-major by location, corners 0..7
     within one. *)
  let scratch = Arena.create image in
  let rec any id =
    id < Pair.count ~d1 ~d2
    && (goal_reached goal ~true_class
          (Oracle.unmetered_classify oracle (Arena.corner scratch id))
       || any (id + 1))
  in
  any 0
