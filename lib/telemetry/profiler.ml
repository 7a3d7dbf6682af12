(* Live runtime profiler: subscribes to the OCaml 5 [Runtime_events]
   ring from a dedicated systhread and folds GC activity into the
   observability stack — labeled pause histograms and promotion
   counters in the metrics registry, and Chrome-trace events in an
   open trace stream (so pauses line up under application spans in
   Perfetto).  A post-mortem's gc.json reads the pause histograms, so
   it shows whether a stall was a GC death-spiral with or without a
   trace.

   The observer is a systhread of the spawning domain, never a domain
   of its own: OCaml 5 minor collections are stop-the-world across
   domains, so a parked observer domain would drag every minor GC
   through a cross-domain barrier (measured at +100-200% on a 1-core
   host when the sampler was first built).  A thread asleep in select
   joins no barrier.

   Clock calibration: runtime events carry monotonic-clock
   nanoseconds, the trace stream carries [Clock.now_us] wall
   microseconds.  Before every poll the profiler writes a custom user
   event whose payload is the current wall time; when that event comes
   back through the cursor, (wall - mono) gives the exact offset for
   mapping every other event onto the trace timebase.  Pause
   histograms and counters are fed unconditionally; trace events are
   emitted only once the first calibration event has been observed
   (events buffered from before profiling started have no reliable
   wall-clock anchor).

   Observation-only: the consumer never touches RNG, metering or cache
   state, so attack results are bit-identical with the profiler on —
   test/diff_runner --profile and bench profile both assert exactly
   that. *)

module RE = Runtime_events

type RE.User.tag += Calib

(* Registered once per process: registration both names the event and
   makes it decodable on the consumer side. *)
let calib_event = lazy (RE.User.register "oppsla.calib" Calib RE.Type.int)

(* Minor pauses cluster around 0.1-5ms, major slices reach tens of ms;
   the registry's default time buckets are too coarse below 1ms to
   resolve a p50. *)
let pause_buckets =
  [|
    1e-6; 1e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 2.5e-3; 5e-3; 1e-2; 2.5e-2;
    5e-2; 0.1; 0.25; 1.;
  |]

let pause_metric = "gc.pause_seconds"

let pause_hist ~ring ~kind =
  Core.Metrics.histogram ~buckets:pause_buckets
    ~labels:[ ("domain", string_of_int ring); ("gc", kind) ]
    pause_metric

(* Only the top-level collection phases are folded into pauses: every
   other runtime phase ([minor_clear], [major_sweep], ...) nests
   inside one of these two, and counting nested phases would
   double-charge the same wall time. *)
let phase_kind = function
  | RE.EV_MINOR -> Some "minor"
  | RE.EV_MAJOR -> Some "major"
  | _ -> None

type t = {
  mutex : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable stop_requested : bool;
  mutable thread : Thread.t option;
  cursor : RE.cursor;
  callbacks : RE.Callbacks.t;
  interval_s : float;
  started_us : float;
}

(* One profiler per process: the runtime-events ring is a process-wide
   resource and two concurrent cursors would double-count into the
   same registry families. *)
let running_now = Atomic.make false
let runtime_started = ref false

let running () = Atomic.get running_now

let active_seconds () =
  Core.Gauge.get (Core.Metrics.gauge "profiler.active_seconds")

(* Consumer callbacks.  They only ever run inside [read_poll], which
   the profiler serializes (poll loop on the observer thread, final
   drain after the join), so the tables need no locking. *)
let make_callbacks () =
  (* (ring, kind) -> begin timestamp, monotonic ns.  Ring ids are
     reused after domain termination, so entries are cleared on
     EV_DOMAIN_TERMINATE. *)
  let begins : (int * string, int64) Hashtbl.t = Hashtbl.create 16 in
  let offset_us = ref None in
  (* Handle caches: callbacks fire thousands of times per second on a
     systhread that holds the domain's runtime lock, so a registry
     lookup (label rendering + registry mutex) per event is mutator
     time stolen from the workload.  Resolve each (family, ring)
     handle once. *)
  let hists : (int * string, Core.Histogram.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let pause_hist ~ring ~kind =
    match Hashtbl.find_opt hists (ring, kind) with
    | Some h -> h
    | None ->
        let h = pause_hist ~ring ~kind in
        Hashtbl.add hists (ring, kind) h;
        h
  in
  let counters : (string * int, Core.Counter.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let ring_counter name ring =
    match Hashtbl.find_opt counters (name, ring) with
    | Some c -> c
    | None ->
        let c =
          Core.Metrics.counter
            ~labels:[ ("domain", string_of_int ring) ]
            name
        in
        Hashtbl.add counters (name, ring) c;
        c
  in
  let counter ?labels name = Core.Metrics.counter ?labels name in
  let runtime_begin ring ts phase =
    match phase_kind phase with
    | None -> ()
    | Some kind ->
        Hashtbl.replace begins (ring, kind) (RE.Timestamp.to_int64 ts)
  in
  let runtime_end ring ts phase =
    match phase_kind phase with
    | None -> ()
    | Some kind -> (
        match Hashtbl.find_opt begins (ring, kind) with
        | None -> ()  (* begin predates the cursor: not attributable *)
        | Some t0 ->
            Hashtbl.remove begins (ring, kind);
            let dur_ns =
              Int64.to_float (Int64.sub (RE.Timestamp.to_int64 ts) t0)
            in
            if dur_ns >= 0. then begin
              Core.Histogram.observe (pause_hist ~ring ~kind) (dur_ns /. 1e9);
              match !offset_us with
              | Some off when Core.Trace.enabled () ->
                  Core.Trace.emit ~name:("gc." ^ kind) ~cat:"gc" ~ph:"X"
                    ~ts:(off +. (Int64.to_float t0 /. 1e3))
                    ~dur:(dur_ns /. 1e3) ~tid:ring
                    [ ("domain", Core.Trace.Int ring) ]
              | _ -> ()
            end)
  in
  let runtime_counter ring _ts c v =
    match c with
    | RE.EV_C_MINOR_PROMOTED ->
        Core.Counter.add (ring_counter "gc.minor_promoted_words" ring) v
    | RE.EV_C_MINOR_ALLOCATED ->
        Core.Counter.add (ring_counter "gc.minor_allocated_words" ring) v
    | _ -> ()
  in
  let lifecycle ring ts kind _data =
    let instant name =
      match !offset_us with
      | Some off when Core.Trace.enabled () ->
          Core.Trace.emit ~name ~cat:"gc" ~ph:"i"
            ~ts:
              (off
              +. Int64.to_float (RE.Timestamp.to_int64 ts) /. 1e3)
            ~scope:"t" ~tid:ring
            [ ("domain", Core.Trace.Int ring) ]
      | _ -> ()
    in
    match kind with
    | RE.EV_DOMAIN_SPAWN ->
        Core.Counter.incr (counter "gc.domain_spawns.total");
        instant "domain.spawn"
    | RE.EV_DOMAIN_TERMINATE ->
        Core.Counter.incr (counter "gc.domain_terminations.total");
        instant "domain.terminate";
        (* The ring id is reusable from here on; stale begins from the
           dead domain must not pair with the next tenant's ends. *)
        List.iter
          (fun kind -> Hashtbl.remove begins (ring, kind))
          [ "minor"; "major" ]
    | _ -> ()
  in
  let lost_events _ring n =
    Core.Counter.add (counter "profiler.lost_events.total") n
  in
  RE.Callbacks.create ~runtime_begin ~runtime_end ~runtime_counter
    ~lifecycle ~lost_events ()
  |> RE.Callbacks.add_user_event RE.Type.int (fun _ring ts ev wall_us ->
         if RE.User.name ev = "oppsla.calib" then
           offset_us :=
             Some
               (float_of_int wall_us
               -. Int64.to_float (RE.Timestamp.to_int64 ts) /. 1e3))

(* One poll: write a calibration event (payload = wall clock now, so
   the consumer can pair it exactly), then drain the ring. *)
let poll t =
  Core.Gauge.set
    (Core.Metrics.gauge "profiler.active_seconds")
    ((Core.Clock.now_us () -. t.started_us) /. 1e6);
  RE.User.write (Lazy.force calib_event)
    (int_of_float (Core.Clock.now_us ()));
  let n = RE.read_poll t.cursor t.callbacks None in
  Core.Counter.add (Core.Metrics.counter "profiler.events.total") n;
  Core.Counter.incr (Core.Metrics.counter "profiler.polls.total")

let run t =
  (* Same absolute-deadline re-arm as the sampler: EINTR fires far
     more often than the interval elapses, and treating any select
     return as "interval elapsed" would tie the poll rate to the
     signal rate. *)
  let rec wait deadline_us =
    let remaining = (deadline_us -. Core.Clock.now_us ()) /. 1e6 in
    if remaining > 0. then
      match Unix.select [ t.wake_r ] [] [] remaining with
      | [], _, _ -> wait deadline_us
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait deadline_us
  in
  let rec loop () =
    let stop =
      Mutex.lock t.mutex;
      let s = t.stop_requested in
      Mutex.unlock t.mutex;
      s
    in
    if not stop then begin
      wait (Core.Clock.now_us () +. (t.interval_s *. 1e6));
      poll t;
      loop ()
    end
  in
  poll t;
  loop ()

let start ?(interval_s = 0.025) () =
  if not (Atomic.compare_and_set running_now false true) then
    invalid_arg "Telemetry.Profiler.start: profiler already running";
  (* Keep the <pid>.events ring file out of the working directory
     unless the user already chose a location. *)
  if Sys.getenv_opt "OCAML_RUNTIME_EVENTS_DIR" = None then
    Unix.putenv "OCAML_RUNTIME_EVENTS_DIR" (Filename.get_temp_dir_name ());
  if !runtime_started then RE.resume ()
  else begin
    RE.start ();
    runtime_started := true
  end;
  let cursor = RE.create_cursor None in
  (* The ring outlives pause/resume, so a fresh cursor replays whatever
     a previous profiler left behind — pauses that would double-count
     into the histograms and trace events from minutes ago that stretch
     the trace's wall-clock extent.  Drain those into a no-op callback
     set: observation begins now. *)
  let discard = RE.Callbacks.create () in
  while RE.read_poll cursor discard None > 0 do
    ()
  done;
  let wake_r, wake_w = Unix.pipe () in
  let t =
    {
      mutex = Mutex.create ();
      wake_r;
      wake_w;
      stop_requested = false;
      thread = None;
      cursor;
      callbacks = make_callbacks ();
      interval_s;
      started_us = Core.Clock.now_us ();
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
    (* Final drain so pauses between the last tick and [stop] are
       still attributed. *)
    poll t;
    RE.free_cursor t.cursor;
    (* [start] cannot be undone, but a paused ring writes nothing:
       the bare arm of an A/B bench sees zero residual overhead. *)
    RE.pause ();
    Unix.close t.wake_r;
    Unix.close t.wake_w;
    Atomic.set running_now false
  end

(* ------------------------------------------------------------------ *)
(* Summary: rebuilt from the registry (the profiler keeps no private
   aggregate state), so it works from any thread, after [stop], and
   inside the post-mortem writer. *)

type gc_stat = {
  domain : int;
  kind : string;
  pauses : int;
  total_s : float;
  p50_s : float;
  p99_s : float;
}

(* Parse the label block out of a registry key like
   [gc.pause_seconds{domain="3",gc="minor"}].  Values here are digits
   and ASCII identifiers, so splitting on [,] is safe. *)
let parse_labels key =
  match String.index_opt key '{' with
  | None -> []
  | Some i ->
      let body = String.sub key (i + 1) (String.length key - i - 2) in
      String.split_on_char ',' body
      |> List.filter_map (fun kv ->
             match String.index_opt kv '=' with
             | None -> None
             | Some j ->
                 let k = String.sub kv 0 j in
                 let v = String.sub kv (j + 1) (String.length kv - j - 1) in
                 let v =
                   if String.length v >= 2 && v.[0] = '"' then
                     String.sub v 1 (String.length v - 2)
                   else v
                 in
                 Some (k, v))

let summary () =
  let prefix = pause_metric ^ "{" in
  let starts_with p s =
    String.length s >= String.length p
    && String.sub s 0 (String.length p) = p
  in
  Core.Metrics.sorted_metrics ()
  |> List.filter_map (fun (key, m) ->
         match m with
         | Core.H h when starts_with prefix key ->
             let labels = parse_labels key in
             let get k = Option.value ~default:"" (List.assoc_opt k labels) in
             let s = Core.Histogram.snapshot h in
             if s.Core.Histogram.count = 0 then None
             else
               Some
                 {
                   domain =
                     (try int_of_string (get "domain") with _ -> -1);
                   kind = get "gc";
                   pauses = s.Core.Histogram.count;
                   total_s = s.Core.Histogram.sum;
                   p50_s = Core.Histogram.quantile_of_snapshot s 0.5;
                   p99_s = Core.Histogram.quantile_of_snapshot s 0.99;
                 }
         | _ -> None)
