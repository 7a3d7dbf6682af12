(* Speculative candidate batching over a metered oracle: each attack's
   one metered query step.

   Attackers are sequential decision processes: candidate [j+1] may
   depend on the answer to candidate [j].  Posing candidates one by one
   keeps accounting trivial but wastes the batched forward pass.  The
   batcher closes the gap speculatively: when the attacker asks for a
   candidate, it also asks the attacker (via [speculate]) which
   candidates it WOULD pose next if nothing interesting happens, resolves
   the whole chunk in one unmetered batched forward pass, and buffers the
   results.  Subsequent queries are served from the buffer as long as the
   requested key matches the buffered head.  A deviation (the attacker
   reacted to an answer) is answered from the cache when the cache holds
   it — synthesis re-runs programs on the same images, so most queries
   are re-posed — and only a cache miss discards the buffer and rebuilds
   it from the attacker's true state.

   Accounting is exact by construction, not by rollback: the forward
   passes are speculative and unmetered ({!Oracle.eval_batch}), while the
   query counter is charged at consumption time only, one query per
   served candidate, in the exact order the attacker poses them.  Query
   counts, success flags and synthesizer traces are therefore
   bit-identical to the sequential path at every batch width —
   mis-speculation costs wall-clock, never queries.  The batcher also
   owns the rest of the attack's query step: the cap, the spent count,
   the heartbeat and the observation of every answer. *)

type candidate = { key : Score_cache.key; input : unit -> Tensor.t }

(* One buffered answer: the key it was prepared under, the resolved
   score vector, whether the cache already held it, and its slot
   position inside the speculative chunk (journal provenance). *)
type slot = {
  skey : Score_cache.key;
  score : Tensor.t;
  shit : bool;
  spos : int;
}

type t = {
  oracle : Oracle.t;
  cache : Score_cache.t option;
  width : int;
  max_queries : int;
  watchdog : Telemetry.Watchdog.t;
  mutable spent : int;
  mutable buf : slot list; (* head = next expected *)
}

exception Out_of_queries

type stats = {
  queries : int;
  batches : int;
  prepared : int;
  buffer_hits : int;
  discarded : int;
}

(* Global counters, aggregated across every batcher (and every domain —
   attacks under the pool run concurrently, hence atomics).  They live
   in the process-wide telemetry registry: [global_stats] is now a view
   over the registry, so `--metrics FILE` and the consolidated report
   section read the same numbers the legacy stats API returns. *)
let g_queries = Telemetry.Metrics.counter "batcher.queries"
let g_batches = Telemetry.Metrics.counter "batcher.chunks"
let g_prepared = Telemetry.Metrics.counter "batcher.prepared"
let g_buffer_hits = Telemetry.Metrics.counter "batcher.buffer_hits"
let g_discarded = Telemetry.Metrics.counter "batcher.discarded"

(* Chunk-width and mis-speculation distributions: how wide the
   speculative forward passes actually run, and how much prepared work
   each deviation throws away. *)
let h_chunk_width =
  Telemetry.Metrics.histogram
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]
    "batcher.chunk_width"

let h_discarded =
  Telemetry.Metrics.histogram
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]
    "batcher.discarded_per_misspeculation"

let bump = Telemetry.Counter.add

let global_stats () =
  {
    queries = Telemetry.Counter.get g_queries;
    batches = Telemetry.Counter.get g_batches;
    prepared = Telemetry.Counter.get g_prepared;
    buffer_hits = Telemetry.Counter.get g_buffer_hits;
    discarded = Telemetry.Counter.get g_discarded;
  }

let reset_global_stats () =
  Telemetry.Counter.reset g_queries;
  Telemetry.Counter.reset g_batches;
  Telemetry.Counter.reset g_prepared;
  Telemetry.Counter.reset g_buffer_hits;
  Telemetry.Counter.reset g_discarded;
  Telemetry.Histogram.reset h_chunk_width;
  Telemetry.Histogram.reset h_discarded

let zero_stats =
  { queries = 0; batches = 0; prepared = 0; buffer_hits = 0; discarded = 0 }

let add_stats a b =
  {
    queries = a.queries + b.queries;
    batches = a.batches + b.batches;
    prepared = a.prepared + b.prepared;
    buffer_hits = a.buffer_hits + b.buffer_hits;
    discarded = a.discarded + b.discarded;
  }

let create ~max_queries ~watchdog ~width oracle =
  if width < 1 then invalid_arg "Batcher.create: width < 1";
  let cache = Oracle.cache oracle in
  { oracle; cache; width; max_queries; watchdog; spent = 0; buf = [] }

let spent t = t.spent

let drop_buffer t =
  match t.buf with
  | [] -> ()
  | l ->
      let n = List.length l in
      bump g_discarded n;
      Telemetry.Histogram.observe h_discarded (float_of_int n);
      t.buf <- []

(* Resolve a chunk of candidates without metering: cache hits first, then
   one batched forward pass over the misses, results stored under their
   keys.  A key identifies its input, so a key repeated inside the chunk
   is forwarded once and its later slots share the answer.  Every slot
   counts exactly one cache hit or miss, so misses are the forward
   passes computed: a repeated slot costs none and counts as a hit (its
   journal [hit] flag stays false — the cache did not hold it when the
   chunk was resolved). *)
let prepare t chunk =
  let n = Array.length chunk in
  bump g_batches 1;
  bump g_prepared n;
  Telemetry.Histogram.observe h_chunk_width (float_of_int n);
  let resolved = Array.make n None in
  let hits = Array.make n false in
  (* [repeat_of.(i)]: the earlier slot whose forward pass answers a
     repeated slot [i], or -1. *)
  let repeat_of = Array.make n (-1) in
  let missing = ref [] in
  Array.iteri
    (fun i cand ->
      let cached =
        match t.cache with
        | None -> None
        | Some c -> (
            match Score_cache.find c cand.key with
            | s -> Some s
            | exception Not_found -> None)
      in
      match cached with
      | Some _ ->
          Option.iter Score_cache.count_hit t.cache;
          resolved.(i) <- cached;
          hits.(i) <- true
      | None -> (
          match
            List.find_opt
              (fun j -> Score_cache.equal_key chunk.(j).key cand.key)
              !missing
          with
          | Some j ->
              Option.iter Score_cache.count_hit t.cache;
              repeat_of.(i) <- j
          | None -> missing := i :: !missing))
    chunk;
  let missing = Array.of_list (List.rev !missing) in
  if Array.length missing > 0 then begin
    let outs =
      Telemetry.Trace.span "batcher.prepare" ~cat:"oracle"
        ~args:(fun () ->
          [
            ("chunk", Telemetry.Trace.Int n);
            ("forwarded", Telemetry.Trace.Int (Array.length missing));
          ])
        (fun () ->
          Oracle.eval_batch t.oracle
            (Array.map (fun i -> chunk.(i).input ()) missing))
    in
    Array.iteri
      (fun j i ->
        resolved.(i) <- Some outs.(j);
        Option.iter (fun c -> Score_cache.add c chunk.(i).key outs.(j)) t.cache)
      missing;
    Array.iteri
      (fun i j -> if j >= 0 then resolved.(i) <- resolved.(j))
      repeat_of
  end;
  t.buf <-
    List.init n (fun i ->
        {
          skey = chunk.(i).key;
          score = Option.get resolved.(i);
          shit = hits.(i);
          spos = i;
        })

let no_speculation : int -> candidate option = fun _ -> None

(* Charge one served query.  Metering happens here — at consumption,
   never at preparation — so the counter advances in the attacker's true
   query order.  [hit] and [chunk] ride along as journal provenance. *)
let charge t key ~hit ~chunk =
  Oracle.charge t.oracle key ~hit ~chunk;
  bump g_queries 1

let serve_head t key =
  match t.buf with
  | [] -> assert false
  | { skey = _; score; shit; spos } :: rest ->
      charge t key ~hit:shit ~chunk:spos;
      t.buf <- rest;
      score

(* Cache-first: a re-posed candidate needs no forward pass, so it builds
   no chunk and leaves the buffer alone (buffered slots stay valid
   answers for their keys).  The probe is uncounted; the hit is counted
   after [charge]: metering sits above the cache.  The charge is
   journaled as a hit outside any chunk.  Raises [Not_found] on a miss,
   so a hit allocates nothing. *)
let serve_cached t key =
  match t.cache with
  | None -> raise Not_found
  | Some c ->
      let score = Score_cache.find c key in
      charge t key ~hit:true ~chunk:(-1);
      Score_cache.count_hit c;
      score

(* Answer [key] from the buffer, the cache or a fresh chunk.  A miss is
   charged once its chunk is resolved, so a failed forward pass charges
   nothing.  No chunk reaches past the attack's cap: a slot there could
   never be served. *)
let resolve t ~speculate ~input key =
  match t.buf with
  | { skey; _ } :: _ when Score_cache.equal_key skey key ->
      bump g_buffer_hits 1;
      serve_head t key
  | _ -> (
      match serve_cached t key with
      | score -> score
      | exception Not_found ->
          drop_buffer t;
          let cap = min t.width (t.max_queries - t.spent) in
          let chunk = ref [ { key; input } ]
          and filled = ref 1
          and stop = ref false in
          while (not !stop) && !filled < cap do
            match speculate (!filled - 1) with
            | None -> stop := true
            | Some c ->
                chunk := c :: !chunk;
                incr filled
          done;
          prepare t (Array.of_list (List.rev !chunk));
          serve_head t key)

(* The metered query step every attacker takes: refuse past the cap,
   charge and answer, count, beat, and hand back only what the oracle's
   mode reveals.  The cache and the buffer hold raw vectors (keys and
   accounting are mode-blind); [Oracle.observe] is the identity in
   score mode, so a warm query allocates nothing. *)
let query t ~speculate ~input key =
  if t.spent >= t.max_queries then raise Out_of_queries;
  let score = resolve t ~speculate ~input key in
  t.spent <- t.spent + 1;
  Telemetry.Watchdog.beat_queries t.watchdog t.spent;
  Oracle.observe t.oracle score
