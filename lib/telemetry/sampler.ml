(* Background runtime sampler: one dedicated systhread (never a pool
   worker, and deliberately not a separate domain — OCaml 5 minor
   collections are stop-the-world across domains, so even a parked
   observer domain drags every minor GC through a cross-domain wakeup,
   measured at +100-200% on a 1-core host, while a same-domain thread
   asleep in select joins no barrier) that periodically folds
   process-level signals into the metrics registry — GC footprint, CPU
   time, wall clock, oracle query burn-rate — checks the stall
   watchdog, and optionally appends a JSONL snapshot of the whole
   registry per tick.

   Observation-only: every input is an atomic load (registry, watchdog)
   or a process-level syscall (Gc.quick_stat, Unix.times); the sampler
   never touches RNG, metering or cache state.  The attack loops cannot
   tell whether it is running — test/diff_runner asserts exactly that.

   The sleep is a [Unix.select] on a self-pipe so [stop] interrupts it
   immediately instead of waiting out the interval (stdlib [Condition]
   has no timed wait). *)

type config = {
  interval_s : float;
  snapshot_path : string option;  (* append one JSONL line per tick *)
  stall_after_s : float;  (* watchdog threshold *)
  abort_on_stall : bool;  (* exit 3 on a fresh stall *)
}

let default =
  { interval_s = 1.0; snapshot_path = None; stall_after_s = 30.; abort_on_stall = false }

type t = {
  config : config;
  mutex : Mutex.t;  (* serializes [sample] and the mutable fields below *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable stop_requested : bool;
  mutable snapshot_oc : out_channel option;
  mutable stalled_now : string list;  (* loops flagged at the last tick *)
  mutable last_rate_us : float;
  mutable last_rate_queries : int;
  started_us : float;
  mutable thread : Thread.t option;
}

(* The query counter the attack stack already maintains; registering it
   here just fetches the existing handle (or a zero counter when the
   oracle has not run yet — the rate is then a flat 0). *)
let queries_total () = Core.Metrics.counter "oracle.queries.total"

let snapshot_line () =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "{\"ts_us\": %s" (Core.Metrics.json_float (Core.Clock.now_us ())));
  let field kind render =
    let entries =
      Core.Metrics.sorted_metrics ()
      |> List.filter_map (fun (name, m) ->
             Option.map
               (fun v ->
                 Printf.sprintf "\"%s\": %s" (Core.Metrics.json_escape name) v)
               (render m))
    in
    Buffer.add_string b (Printf.sprintf ", \"%s\": {%s}" kind (String.concat ", " entries))
  in
  field "counters" (function
    | Core.C c -> Some (string_of_int (Core.Counter.get c))
    | _ -> None);
  field "gauges" (function
    | Core.G g -> Some (Core.Metrics.json_float (Core.Gauge.get g))
    | _ -> None);
  field "histograms" (function
    | Core.H h ->
        let s = Core.Histogram.snapshot h in
        Some
          (Printf.sprintf "{\"count\": %d, \"sum\": %s}" s.Core.Histogram.count
             (Core.Metrics.json_float s.Core.Histogram.sum))
    | _ -> None);
  Buffer.add_string b "}";
  Buffer.contents b

(* One tick: must be called with [t.mutex] held. *)
let sample_locked t =
  let now = Core.Clock.now_us () in
  let gc = Gc.quick_stat () in
  let tm = Unix.times () in
  Core.Gauge.set (Core.Metrics.gauge "process.uptime_seconds")
    ((now -. t.started_us) /. 1e6);
  Core.Gauge.set (Core.Metrics.gauge "process.cpu_user_seconds") tm.Unix.tms_utime;
  Core.Gauge.set (Core.Metrics.gauge "process.cpu_system_seconds") tm.Unix.tms_stime;
  Core.Gauge.set (Core.Metrics.gauge "process.heap_mb")
    (float_of_int gc.Gc.heap_words *. 8. /. 1048576.);
  Core.Gauge.set (Core.Metrics.gauge "process.minor_collections")
    (float_of_int gc.Gc.minor_collections);
  Core.Gauge.set (Core.Metrics.gauge "process.major_collections")
    (float_of_int gc.Gc.major_collections);
  Core.Gauge.set (Core.Metrics.gauge "process.minor_words") gc.Gc.minor_words;
  (* Oracle burn-rate over the last tick. *)
  let q = Core.Counter.get (queries_total ()) in
  let dt = (now -. t.last_rate_us) /. 1e6 in
  if dt > 0. then
    Core.Gauge.set
      (Core.Metrics.gauge "oracle.query_rate_per_s")
      (float_of_int (q - t.last_rate_queries) /. dt);
  t.last_rate_us <- now;
  t.last_rate_queries <- q;
  (* Watchdog: flag loops with no heartbeat progress. *)
  let statuses = Watchdog.snapshot ~now_us:now () in
  let active = List.filter (fun s -> s.Watchdog.active > 0) statuses in
  let stalled =
    List.filter (fun s -> s.Watchdog.idle_s > t.config.stall_after_s) active
  in
  Core.Gauge.set (Core.Metrics.gauge "watchdog.active_loops")
    (float_of_int (List.length active));
  Core.Gauge.set (Core.Metrics.gauge "watchdog.stalled_loops")
    (float_of_int (List.length stalled));
  let names = List.map (fun s -> s.Watchdog.name) stalled in
  let fresh =
    List.filter (fun s -> not (List.mem s.Watchdog.name t.stalled_now)) stalled
  in
  t.stalled_now <- names;
  List.iter
    (fun (s : Watchdog.status) ->
      Core.Counter.incr (Core.Metrics.counter "watchdog.stalls");
      Core.Trace.instant "watchdog.stall" ~cat:"watchdog" ~args:(fun () ->
          [
            ("loop", Core.Trace.Str s.Watchdog.name);
            ("idle_s", Core.Trace.Float s.Watchdog.idle_s);
            ("beats", Core.Trace.Int s.Watchdog.beats);
          ]);
      Printf.eprintf "[watchdog] loop %s stalled: no heartbeat for %.1fs\n%!"
        s.Watchdog.name s.Watchdog.idle_s)
    fresh;
  Core.Counter.incr (Core.Metrics.counter "sampler.samples");
  (match t.snapshot_oc with
  | None -> ()
  | Some oc ->
      output_string oc (snapshot_line ());
      output_char oc '\n';
      flush oc);
  if fresh <> [] && t.config.abort_on_stall then begin
    Printf.eprintf "[watchdog] aborting: --stall-timeout exceeded by %s\n%!"
      (String.concat ", " (List.map (fun s -> s.Watchdog.name) fresh));
    (* Flush the live sinks and drop the post-mortem bundle BEFORE
       exiting: the stall path must never leave a truncated trace or
       journal behind, and the bundle (watchdog slots, registry,
       journal tail, checkpoint info) is the only evidence a wedged run
       gets. *)
    Core.Trace.flush ();
    Journal.flush ();
    (match Postmortem.dump ~reason:"stall" () with
    | Some dir -> Printf.eprintf "[watchdog] post-mortem bundle: %s\n%!" dir
    | None -> ());
    exit 3
  end

(* Take one sample right now, synchronously.  Used by tests (and the
   final flush in [stop]) for determinism without sleeping. *)
let sample_now t =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) (fun () -> sample_locked t)

(* Scheduled-vs-actual tick skew: how late past its deadline each
   timed tick actually fired.  GC pauses and scheduler pressure stretch
   the select sleep, which silently distorts every per-tick rate the
   sampler derives — so the distortion itself is recorded.  The
   start-up sample, stop-wakeups (they fire early by design) and
   [stop]'s final tick are excluded, so its count is the number of
   ticks that woke on their deadline. *)
let jitter () =
  Core.Metrics.histogram ~buckets:Core.Metrics.time_buckets
    "sampler.tick_jitter_seconds"

let timed_ticks () = (Core.Histogram.snapshot (jitter ())).Core.Histogram.count

let await_timed_tick ~after ~timeout_s =
  let give_up = Unix.gettimeofday () +. timeout_s in
  let rec poll () =
    if timed_ticks () > after then true
    else if Unix.gettimeofday () >= give_up then false
    else begin
      Unix.sleepf 0.005;
      poll ()
    end
  in
  poll ()

let run t =
  (* Sleep until [deadline] (a Clock.now_us value) or until [stop]
     writes to the wake pipe.  The select must be re-armed with the
     remaining time on every early return: the runtime's signals (the
     systhread tick, GC coordination) land as EINTR far more often
     than the interval elapses, and treating any return as "interval
     elapsed" would make the tick rate track the signal rate instead
     of the configured one. *)
  let rec wait deadline_us =
    let remaining = (deadline_us -. Core.Clock.now_us ()) /. 1e6 in
    if remaining <= 0. then `Deadline
    else
      match Unix.select [ t.wake_r ] [] [] remaining with
      | [], _, _ -> wait deadline_us  (* timeout or spurious: re-check *)
      | _ -> `Woken  (* woken by [stop]; return and observe the flag *)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait deadline_us
  in
  let jitter = jitter () in
  let rec loop () =
    let stop =
      Mutex.lock t.mutex;
      let s = t.stop_requested in
      Mutex.unlock t.mutex;
      s
    in
    if not stop then begin
      let deadline = Core.Clock.now_us () +. (t.config.interval_s *. 1e6) in
      (match wait deadline with
      | `Deadline ->
          Core.Histogram.observe jitter
            (Float.max 0. ((Core.Clock.now_us () -. deadline) /. 1e6))
      | `Woken -> ());
      sample_now t;
      loop ()
    end
  in
  sample_now t;  (* at least one sample even for very short runs *)
  loop ()

let start config =
  let wake_r, wake_w = Unix.pipe () in
  let snapshot_oc =
    Option.map
      (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
      config.snapshot_path
  in
  let now = Core.Clock.now_us () in
  let t =
    {
      config;
      mutex = Mutex.create ();
      wake_r;
      wake_w;
      stop_requested = false;
      snapshot_oc;
      stalled_now = [];
      last_rate_us = now;
      last_rate_queries = Core.Counter.get (queries_total ());
      started_us = now;
      thread = None;
    }
  in
  t.thread <- Some (Thread.create run t);
  t

let stop t =
  Mutex.lock t.mutex;
  let already = t.stop_requested in
  t.stop_requested <- true;
  Mutex.unlock t.mutex;
  if not already then begin
    (try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1)
     with Unix.Unix_error _ -> ());
    (match t.thread with Some th -> Thread.join th | None -> ());
    t.thread <- None;
    (* Final tick so the snapshot captures the end-of-run state. *)
    sample_now t;
    Mutex.lock t.mutex;
    (match t.snapshot_oc with Some oc -> close_out oc | None -> ());
    t.snapshot_oc <- None;
    Mutex.unlock t.mutex;
    Unix.close t.wake_r;
    Unix.close t.wake_w
  end
