(* Each attack's one metered query step: refuse past the cap, answer
   from the cache or forward the posed candidate once, charge, count,
   beat and observe.  Metering sits above the cache, so a cached answer
   costs the same one query as a forwarded one. *)

type t = {
  oracle : Oracle.t;
  cache : Score_cache.t option;
  max_queries : int;
  watchdog : Telemetry.Watchdog.t;
  mutable spent : int;
}

exception Out_of_queries

type stats = {
  batches : int;
  prepared : int;
  buffer_hits : int;
  discarded : int;
}

(* Global forward-pass counter, aggregated across every batcher (and
   every domain — attacks under the pool run concurrently, hence an
   atomic).  It lives in the process-wide telemetry registry, so
   `--metrics FILE` reads the same number [global_stats] returns. *)
let g_forwards = Telemetry.Metrics.counter "batcher.forwards"

let global_stats () =
  let forwards = Telemetry.Counter.get g_forwards in
  {
    batches = forwards;
    prepared = forwards;
    buffer_hits = 0;
    discarded = 0;
  }

let reset_global_stats () = Telemetry.Counter.reset g_forwards

let create ~max_queries ~watchdog oracle =
  { oracle; cache = Oracle.cache oracle; max_queries; watchdog; spent = 0 }

let spent t = t.spent

(* A miss: one forward pass of the posed candidate, stored under its key
   and then charged, so a forward that raises charges nothing. *)
let forward t ~input key =
  Telemetry.Counter.incr g_forwards;
  let score =
    Telemetry.Trace.span "batcher.forward" ~cat:"oracle" (fun () ->
        Oracle.forward t.oracle (input ()))
  in
  Option.iter (fun c -> Score_cache.add c key score) t.cache;
  Oracle.charge t.oracle key ~hit:false;
  score

(* Cache-first: the probe is uncounted, and the hit is counted after
   [charge]: metering sits above the cache.  A hit allocates nothing. *)
let resolve t ~input key =
  match t.cache with
  | None -> forward t ~input key
  | Some c -> (
      match Score_cache.find c key with
      | score ->
          Oracle.charge t.oracle key ~hit:true;
          Score_cache.count_hit c;
          score
      | exception Not_found -> forward t ~input key)

(* The cache holds raw vectors (keys and accounting are mode-blind);
   [Oracle.observe] is the identity in score mode, so a warm query
   allocates nothing. *)
let query t ~input key =
  if t.spent >= t.max_queries then raise Out_of_queries;
  let score = resolve t ~input key in
  t.spent <- t.spent + 1;
  Telemetry.Watchdog.beat_queries t.watchdog t.spent;
  Oracle.observe t.oracle score
