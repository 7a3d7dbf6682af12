(* Tests for the telemetry subsystem: registry semantics, domain-safety
   of the metric primitives, trace emission, and the null-sink identity
   that lets instrumentation live on hot paths.

   The registry is process-global, so every metric here uses a fresh
   "test.*" name — tests must not collide with the production metrics
   (oracle.*, cache.*, ...) that other suites bump as a side effect. *)

let fresh =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "test.%s.%d" prefix !n

let contains_in json sub =
  let n = String.length json and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub json i m = sub || scan (i + 1)) in
  scan 0

(* {1 Registry} *)

let counter_semantics () =
  let name = fresh "counter" in
  let c = Telemetry.Metrics.counter name in
  Alcotest.(check int) "starts at 0" 0 (Telemetry.Counter.get c);
  Telemetry.Counter.incr c;
  Telemetry.Counter.add c 41;
  Alcotest.(check int) "incr + add" 42 (Telemetry.Counter.get c);
  let c' = Telemetry.Metrics.counter name in
  Telemetry.Counter.incr c';
  Alcotest.(check int) "same name, same counter" 43 (Telemetry.Counter.get c);
  Telemetry.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Telemetry.Counter.get c)

let gauge_semantics () =
  let g = Telemetry.Metrics.gauge (fresh "gauge") in
  Alcotest.(check (float 0.)) "starts at 0" 0. (Telemetry.Gauge.get g);
  Telemetry.Gauge.set g 2.5;
  Alcotest.(check (float 0.)) "set" 2.5 (Telemetry.Gauge.get g)

let kind_clash_rejected () =
  let name = fresh "clash" in
  ignore (Telemetry.Metrics.counter name);
  (try
     ignore (Telemetry.Metrics.histogram name);
     Alcotest.fail "histogram under a counter's name should raise"
   with Invalid_argument _ -> ());
  try
    ignore (Telemetry.Metrics.gauge name);
    Alcotest.fail "gauge under a counter's name should raise"
  with Invalid_argument _ -> ()

let histogram_semantics () =
  let h =
    Telemetry.Metrics.histogram ~buckets:[| 1.; 2.; 4. |] (fresh "hist")
  in
  List.iter (Telemetry.Histogram.observe h) [ 0.5; 1.; 1.5; 3.; 100. ];
  let s = Telemetry.Histogram.snapshot h in
  (* Bucket semantics are "le": v <= upper lands in the first matching
     bucket, anything past the last bound overflows. *)
  Alcotest.(check (array (float 0.))) "bounds" [| 1.; 2.; 4. |]
    s.Telemetry.Histogram.uppers;
  Alcotest.(check (array int)) "per-bucket counts" [| 2; 1; 1 |]
    s.Telemetry.Histogram.counts;
  Alcotest.(check int) "overflow" 1 s.Telemetry.Histogram.overflow;
  Alcotest.(check int) "total count" 5 s.Telemetry.Histogram.count;
  Alcotest.(check (float 1e-9)) "sum" 106. s.Telemetry.Histogram.sum;
  Telemetry.Histogram.reset h;
  let s = Telemetry.Histogram.snapshot h in
  Alcotest.(check int) "reset count" 0 s.Telemetry.Histogram.count;
  Alcotest.(check int) "reset overflow" 0 s.Telemetry.Histogram.overflow

let histogram_rejects_bad_buckets () =
  (try
     ignore (Telemetry.Metrics.histogram ~buckets:[||] (fresh "bad"));
     Alcotest.fail "empty bucket array should raise"
   with Invalid_argument _ -> ());
  try
    ignore (Telemetry.Metrics.histogram ~buckets:[| 2.; 1. |] (fresh "bad"));
    Alcotest.fail "non-ascending bounds should raise"
  with Invalid_argument _ -> ()

let dump_json_contains_registered () =
  let cname = fresh "json_counter" in
  let c = Telemetry.Metrics.counter cname in
  Telemetry.Counter.add c 7;
  let hname = fresh "json_hist" in
  let h = Telemetry.Metrics.histogram ~buckets:[| 1.; 2. |] hname in
  Telemetry.Histogram.observe h 1.5;
  let contains = contains_in (Telemetry.Metrics.dump_json ()) in
  Alcotest.(check bool) "counter dumped" true
    (contains (Printf.sprintf "%S: 7" cname));
  Alcotest.(check bool) "histogram dumped" true
    (contains (Printf.sprintf "%S: {\"count\": 1" hname));
  Alcotest.(check bool) "bucket bound dumped" true
    (contains "{\"le\": 1, \"count\": 0}")

(* Labeled keys: the same labels in any order resolve to one handle
   (keys are sorted when the registry key is built), and the dump
   carries each label combination as its own entry. *)
let registry_labels_round_trip () =
  let base = fresh "dim" in
  let c1 =
    Telemetry.Metrics.counter ~labels:[ ("mode", "score"); ("backend", "f32") ]
      base
  in
  let c1' =
    Telemetry.Metrics.counter ~labels:[ ("backend", "f32"); ("mode", "score") ]
      base
  in
  Alcotest.(check bool) "label order is canonicalized" true (c1 == c1');
  let c2 =
    Telemetry.Metrics.counter
      ~labels:[ ("backend", "boxed"); ("mode", "score") ]
      base
  in
  Telemetry.Counter.add c1 7;
  Telemetry.Counter.add c2 2;
  let contains = contains_in (Telemetry.Metrics.dump_json ()) in
  let key labels = Printf.sprintf "%s{%s}" base labels in
  List.iter
    (fun (what, k, v) ->
      Alcotest.(check bool) what true (contains (Printf.sprintf "%S: %d" k v)))
    [
      ("f32 series dumped", key {|backend="f32",mode="score"|}, 7);
      ("boxed series dumped", key {|backend="boxed",mode="score"|}, 2);
    ]

(* Label values escape backslash, double quote and newline inside the
   registry key, and the escaped key reaches the dump. *)
let registry_label_values_escaped () =
  let base = fresh "esc" in
  let c = Telemetry.Metrics.counter ~labels:[ ("path", "a\\b\"c\nd") ] base in
  Telemetry.Counter.incr c;
  let key = Printf.sprintf "%s{%s}" base {|path="a\\b\"c\nd"|} in
  Alcotest.(check bool) "escaped label value dumped" true
    (contains_in (Telemetry.Metrics.dump_json ()) (Printf.sprintf "%S: 1" key))

(* A sink whose open fails must leave its lock free: a later open and
   close of a good path succeed, for the trace and the journal alike. *)
let failed_sink_open_releases_lock () =
  let not_a_dir = Filename.temp_file "oppsla_test_sink" ".file" in
  let bad = Filename.concat not_a_dir "sink.json" in
  let good = Filename.temp_file "oppsla_test_sink" ".json" in
  let raises_sys_error what f =
    match f () with
    | () -> Alcotest.failf "%s: opening %s did not fail" what bad
    | exception Sys_error _ -> ()
  in
  raises_sys_error "trace" (fun () -> Telemetry.Trace.to_file bad);
  Telemetry.Trace.to_file good;
  Telemetry.Trace.flush ();
  Telemetry.Trace.close ();
  Alcotest.(check bool) "trace closed" false (Telemetry.Trace.enabled ());
  raises_sys_error "journal" (fun () -> Telemetry.Journal.to_file bad);
  Telemetry.Journal.to_file good;
  Telemetry.Journal.flush ();
  Telemetry.Journal.close ();
  Alcotest.(check bool) "journal finalized" true
    (Sys.file_exists good && not (Sys.file_exists (good ^ ".tmp")));
  List.iter Sys.remove [ not_a_dir; good ]

(* {1 Domain-safety} *)

(* 4 domains hammer one counter and one histogram concurrently; every
   increment must survive (atomicity), and the histogram's buckets must
   account for every observation. *)
let concurrent_bumps () =
  let c = Telemetry.Metrics.counter (fresh "conc_counter") in
  let h =
    Telemetry.Metrics.histogram ~buckets:[| 1.; 2.; 4.; 8. |]
      (fresh "conc_hist")
  in
  let per_domain = 10_000 and domains = 4 in
  let worker d =
    Domain.spawn (fun () ->
        for i = 0 to per_domain - 1 do
          Telemetry.Counter.incr c;
          Telemetry.Histogram.observe h (float_of_int ((i + d) mod 10))
        done)
  in
  let ds = List.init domains worker in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost counter increments" (domains * per_domain)
    (Telemetry.Counter.get c);
  let s = Telemetry.Histogram.snapshot h in
  Alcotest.(check int) "no lost observations" (domains * per_domain)
    s.Telemetry.Histogram.count;
  Alcotest.(check int) "buckets account for every observation"
    s.Telemetry.Histogram.count
    (Array.fold_left ( + ) s.Telemetry.Histogram.overflow
       s.Telemetry.Histogram.counts)

(* {1 Tracing} *)

(* Minimal field extraction for the emitted JSONL — enough to check
   names, timestamps and durations without a JSON parser. *)
let field_string line key =
  let pat = Printf.sprintf "\"%s\": \"" key in
  let n = String.length line and m = String.length pat in
  let rec scan i = if i + m > n then None else if String.sub line i m = pat then Some (i + m) else scan (i + 1) in
  Option.map
    (fun start ->
      let stop = String.index_from line start '"' in
      String.sub line start (stop - start))
    (scan 0)

let field_float line key =
  let pat = Printf.sprintf "\"%s\": " key in
  let n = String.length line and m = String.length pat in
  let rec scan i = if i + m > n then None else if String.sub line i m = pat then Some (i + m) else scan (i + 1) in
  Option.map
    (fun start ->
      let stop = ref start in
      while
        !stop < n
        && (match line.[!stop] with
           | '0' .. '9' | '.' | '-' | 'e' | '+' -> true
           | _ -> false)
      do
        incr stop
      done;
      float_of_string (String.sub line start (!stop - start)))
    (scan 0)

let with_trace_file = Helpers.with_trace_file

let span_nesting_and_ordering () =
  let lines =
    with_trace_file (fun () ->
        Telemetry.Trace.span "outer" ~cat:"test" (fun () ->
            Telemetry.Trace.span "inner" ~cat:"test"
              ~args:(fun () -> [ ("k", Telemetry.Trace.Int 3) ])
              (fun () -> ignore (Sys.opaque_identity (ref 0)));
            Telemetry.Trace.instant "mark" ~cat:"test"))
  in
  Alcotest.(check string) "array opened" "[" (List.hd lines);
  Alcotest.(check string) "array closed" "{}]" (List.nth lines (List.length lines - 1));
  let events =
    List.filter (fun l -> String.length l > 2 && l.[0] = '{') lines
  in
  let named name =
    match
      List.find_opt (fun l -> field_string l "name" = Some name) events
    with
    | Some l -> l
    | None -> Alcotest.failf "no %S event in trace" name
  in
  let outer = named "outer" and inner = named "inner" and mark = named "mark" in
  Alcotest.(check (option string)) "complete events" (Some "X")
    (field_string outer "ph");
  Alcotest.(check (option string)) "instant event" (Some "i")
    (field_string mark "ph");
  Alcotest.(check bool) "inner args emitted" true
    (field_float inner "k" = Some 3.);
  (* Completion order: inner finishes (and is emitted) before outer. *)
  let index l = Option.get (List.find_index (( = ) l) events) in
  Alcotest.(check bool) "inner emitted before outer" true
    (index inner < index outer);
  (* Containment on the trace timeline. *)
  let ts l = Option.get (field_float l "ts")
  and dur l = Option.get (field_float l "dur") in
  Alcotest.(check bool) "inner starts inside outer" true
    (ts inner >= ts outer);
  Alcotest.(check bool) "inner ends inside outer" true
    (ts inner +. dur inner <= ts outer +. dur outer +. 1e-6)

let span_reraises_and_still_emits () =
  let lines =
    with_trace_file (fun () ->
        try
          Telemetry.Trace.span "boom" ~cat:"test" (fun () ->
              failwith "expected")
        with Failure _ -> ())
  in
  Alcotest.(check bool) "event emitted despite the raise" true
    (List.exists (fun l -> field_string l "name" = Some "boom") lines)

let null_sink_is_identity () =
  Alcotest.(check bool) "tracing disabled by default" false
    (Telemetry.Trace.enabled ());
  let args_evaluated = ref false in
  let r =
    Telemetry.Trace.span "off"
      ~args:(fun () ->
        args_evaluated := true;
        [])
      (fun () -> 17)
  in
  Alcotest.(check int) "span returns the body's value" 17 r;
  Alcotest.(check bool) "args closure never evaluated when disabled" false
    !args_evaluated;
  Telemetry.Trace.instant "off-instant";
  (* Exceptions pass through untouched on the disabled path. *)
  Alcotest.check_raises "raises pass through" (Failure "x") (fun () ->
      Telemetry.Trace.span "off" (fun () -> failwith "x"))

let without_masks_and_restores () =
  let lines =
    with_trace_file (fun () ->
        Alcotest.(check bool) "enabled inside sink" true
          (Telemetry.Trace.enabled ());
        Telemetry.Trace.without (fun () ->
            Alcotest.(check bool) "masked" false (Telemetry.Trace.enabled ());
            Telemetry.Trace.span "hidden" (fun () -> ()));
        Alcotest.(check bool) "restored" true (Telemetry.Trace.enabled ());
        Telemetry.Trace.span "visible" (fun () -> ()))
  in
  Alcotest.(check bool) "masked span not emitted" false
    (List.exists (fun l -> field_string l "name" = Some "hidden") lines);
  Alcotest.(check bool) "span after restore emitted" true
    (List.exists (fun l -> field_string l "name" = Some "visible") lines)

(* {1 Quantiles} *)

let quantile_empty_is_nan () =
  let h = Telemetry.Metrics.histogram ~buckets:[| 1.; 2. |] (fresh "qempty") in
  Alcotest.(check bool) "empty histogram yields nan" true
    (Float.is_nan (Telemetry.Histogram.quantile h 0.5))

let quantile_rejects_out_of_range () =
  let h = Telemetry.Metrics.histogram ~buckets:[| 1. |] (fresh "qrange") in
  Telemetry.Histogram.observe h 0.5;
  List.iter
    (fun q ->
      try
        ignore (Telemetry.Histogram.quantile h q);
        Alcotest.failf "quantile %g should raise" q
      with Invalid_argument _ -> ())
    [ -0.01; 1.01; Float.nan ]

let quantile_interpolation () =
  (* 10 observations, all in the (2, 4] bucket: the cumulative count
     first reaches q*10 in that bucket for every q, so quantiles
     interpolate linearly across [2, 4]. *)
  let h =
    Telemetry.Metrics.histogram ~buckets:[| 2.; 4.; 8. |] (fresh "qinterp")
  in
  for _ = 1 to 10 do
    Telemetry.Histogram.observe h 3.
  done;
  Alcotest.(check (float 1e-9)) "p50 is the bucket midpoint" 3.
    (Telemetry.Histogram.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p100 is the bucket's upper bound" 4.
    (Telemetry.Histogram.quantile h 1.);
  (* q = 0 needs the smallest cumulative rank (>= 0), reached already by
     the first bucket with any mass — interpolating to its lower edge. *)
  Alcotest.(check (float 1e-9)) "p0 is the bucket's lower edge" 2.
    (Telemetry.Histogram.quantile h 0.)

let quantile_first_bucket_lower_edge_is_zero () =
  let h = Telemetry.Metrics.histogram ~buckets:[| 10.; 20. |] (fresh "qzero") in
  for _ = 1 to 4 do
    Telemetry.Histogram.observe h 5.
  done;
  (* All mass in the first bucket, lower edge 0: p50 lands mid-bucket. *)
  Alcotest.(check (float 1e-9)) "p50 interpolates from 0" 5.
    (Telemetry.Histogram.quantile h 0.5)

let quantile_single_bucket () =
  (* Degenerate one-bucket histogram: every quantile interpolates
     inside [0, bound] by rank. *)
  let h = Telemetry.Metrics.histogram ~buckets:[| 8. |] (fresh "qsingle") in
  for _ = 1 to 4 do
    Telemetry.Histogram.observe h 1.
  done;
  Alcotest.(check (float 1e-9)) "p100 is the bound" 8.
    (Telemetry.Histogram.quantile h 1.);
  Alcotest.(check (float 1e-9)) "p50 interpolates from 0" 4.
    (Telemetry.Histogram.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p0 is the lower edge" 0.
    (Telemetry.Histogram.quantile h 0.)

let quantile_all_overflow () =
  (* Every observation past the last bound: the registry kept no exact
     values, so every quantile (including p0) clamps to that bound. *)
  let h = Telemetry.Metrics.histogram ~buckets:[| 1.; 2. |] (fresh "qover") in
  List.iter (Telemetry.Histogram.observe h) [ 10.; 100.; 1000. ];
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "q=%g clamps to the last bound" q)
        2.
        (Telemetry.Histogram.quantile h q))
    [ 0.; 0.5; 0.99; 1. ]

let quantile_overflow_clamps () =
  let h = Telemetry.Metrics.histogram ~buckets:[| 1.; 2. |] (fresh "qclamp") in
  Telemetry.Histogram.observe h 0.5;
  Telemetry.Histogram.observe h 1000.;
  Telemetry.Histogram.observe h 2000.;
  (* Two of three observations overflowed: upper quantiles clamp to the
     last finite bound, since the registry keeps no values past it. *)
  Alcotest.(check (float 1e-9)) "p99 clamps to the last bound" 2.
    (Telemetry.Histogram.quantile h 0.99)

(* {1 Runtime profiler} *)

(* Allocate enough to force minor collections regardless of the heap
   configuration, then force one so the test never races the
   allocator. *)
let churn () =
  let r = ref [] in
  for i = 0 to 200_000 do
    r := (i, float_of_int i) :: !r;
    if i mod 20_000 = 0 then r := []
  done;
  ignore (Sys.opaque_identity !r);
  Gc.minor ()

let profiler_records_pauses () =
  let p = Telemetry.Profiler.start ~interval_s:0.005 () in
  Alcotest.(check bool) "running" true (Telemetry.Profiler.running ());
  (try
     ignore (Telemetry.Profiler.start ());
     Alcotest.fail "second concurrent profiler should raise"
   with Invalid_argument _ -> ());
  churn ();
  Telemetry.Profiler.stop p;
  Telemetry.Profiler.stop p;  (* idempotent *)
  Alcotest.(check bool) "stopped" false (Telemetry.Profiler.running ());
  Alcotest.(check bool) "active_seconds > 0" true
    (Telemetry.Profiler.active_seconds () > 0.);
  let summary = Telemetry.Profiler.summary () in
  Alcotest.(check bool) "saw minor pauses" true
    (List.exists
       (fun s ->
         s.Telemetry.Profiler.kind = "minor"
         && s.Telemetry.Profiler.pauses > 0)
       summary);
  List.iter
    (fun (s : Telemetry.Profiler.gc_stat) ->
      Alcotest.(check bool) "total_s >= 0" true (s.Telemetry.Profiler.total_s >= 0.);
      Alcotest.(check bool) "p50 <= p99" true
        (s.Telemetry.Profiler.p50_s <= s.Telemetry.Profiler.p99_s))
    summary

let profiler_emits_gc_trace_events () =
  let lines =
    with_trace_file (fun () ->
        let p = Telemetry.Profiler.start ~interval_s:0.005 () in
        (* First churn lands before the clock calibration event is
           necessarily consumed; the sleep lets a poll calibrate, so
           the second churn's pauses must reach the trace. *)
        churn ();
        Thread.delay 0.05;
        churn ();
        Telemetry.Profiler.stop p)
  in
  Alcotest.(check bool) "gc.minor events in trace" true
    (List.exists (fun l -> field_string l "name" = Some "gc.minor") lines)

(* {1 Watchdog} *)

let watchdog_snapshot_and_stall () =
  let name = fresh "wd" in
  let wd = Telemetry.Watchdog.loop name in
  Alcotest.(check bool) "same name, same slot" true
    (wd == Telemetry.Watchdog.loop name);
  let find statuses =
    match
      List.find_opt
        (fun (s : Telemetry.Watchdog.status) -> s.Telemetry.Watchdog.name = name)
        statuses
    with
    | Some s -> s
    | None -> Alcotest.failf "slot %s missing from snapshot" name
  in
  let s = find (Telemetry.Watchdog.snapshot ()) in
  Alcotest.(check int) "inactive before enter" 0 s.Telemetry.Watchdog.active;
  Alcotest.(check int) "no beats yet" 0 s.Telemetry.Watchdog.beats;
  Alcotest.(check (option int)) "no image yet" None s.Telemetry.Watchdog.image;
  let stalled_names ~stall_after_s ~now_us =
    List.map
      (fun (s : Telemetry.Watchdog.status) -> s.Telemetry.Watchdog.name)
      (Telemetry.Watchdog.stalled ~now_us ~stall_after_s ())
  in
  (* [with_loop] leaves the slot on any exit, so a failed assertion
     inside cannot leave it active for the suites that run after. *)
  let later =
    Telemetry.Watchdog.with_loop wd @@ fun () ->
    Telemetry.Watchdog.beat ~image:7 ~queries:123 wd;
    let beat_us = Telemetry.Clock.now_us () in
    (* Pinning now_us makes idle arithmetic deterministic: 5 simulated
       seconds after the beat the loop is stalled for any threshold < 5. *)
    let later = beat_us +. 5e6 in
    let s = find (Telemetry.Watchdog.snapshot ~now_us:later ()) in
    Alcotest.(check int) "active after enter" 1 s.Telemetry.Watchdog.active;
    Alcotest.(check int) "one beat" 1 s.Telemetry.Watchdog.beats;
    Alcotest.(check (option int)) "image reported" (Some 7)
      s.Telemetry.Watchdog.image;
    Alcotest.(check (option int)) "queries reported" (Some 123)
      s.Telemetry.Watchdog.queries;
    Alcotest.(check (option int)) "iteration still unset" None
      s.Telemetry.Watchdog.iteration;
    Alcotest.(check bool) "idle accounts the simulated gap" true
      (s.Telemetry.Watchdog.idle_s >= 5.0 && s.Telemetry.Watchdog.idle_s < 6.0);
    Alcotest.(check bool) "stalled past the threshold" true
      (List.mem name (stalled_names ~stall_after_s:4. ~now_us:later));
    Alcotest.(check bool) "not stalled within the threshold" false
      (List.mem name (stalled_names ~stall_after_s:6. ~now_us:later));
    Telemetry.Watchdog.beat wd;
    Alcotest.(check bool) "a beat clears the stall" false
      (List.mem name
         (stalled_names ~stall_after_s:4.
            ~now_us:(Telemetry.Clock.now_us () +. 1.)));
    later
  in
  Alcotest.(check bool) "inactive loops never stall" false
    (List.mem name (stalled_names ~stall_after_s:0. ~now_us:(later +. 1e9)))

(* The per-query beat stores an int stamp: it allocates nothing, so it
   adds nothing to a warm query. *)
let watchdog_beat_allocates_nothing () =
  let name = fresh "wd_alloc" in
  let wd = Telemetry.Watchdog.loop name in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let empty = words ignore in
  let beats =
    words (fun () ->
        for q = 1 to 1000 do
          Telemetry.Watchdog.beat_queries wd q
        done)
  in
  Alcotest.(check (float 0.)) "1000 beats allocate nothing" empty beats;
  let s =
    List.find
      (fun (s : Telemetry.Watchdog.status) -> s.Telemetry.Watchdog.name = name)
      (Telemetry.Watchdog.snapshot ())
  in
  Alcotest.(check int) "every beat counted" 1000 s.Telemetry.Watchdog.beats;
  Alcotest.(check (option int)) "last queries reported" (Some 1000)
    s.Telemetry.Watchdog.queries

let watchdog_with_loop_is_exception_safe () =
  let name = fresh "wd_exn" in
  let wd = Telemetry.Watchdog.loop name in
  (try Telemetry.Watchdog.with_loop wd (fun () -> failwith "boom")
   with Failure _ -> ());
  let status =
    List.find
      (fun (s : Telemetry.Watchdog.status) -> s.Telemetry.Watchdog.name = name)
      (Telemetry.Watchdog.snapshot ())
  in
  Alcotest.(check int) "leave ran despite the raise" 0
    status.Telemetry.Watchdog.active

(* A crash leaves its loop through [with_loop] before the bundle is
   written, so the bundle's [info.json] must list slots that are no
   longer entered: the crashed loop appears with [active: 0] and the
   image, iteration and query count of its last beat. *)
let crash_bundle_names_left_loop () =
  let name = fresh "wd_crash" in
  let wd = Telemetry.Watchdog.loop name in
  (try
     Telemetry.Watchdog.with_loop wd (fun () ->
         Telemetry.Watchdog.beat ~image:4 ~iteration:9 ~queries:37 wd;
         failwith "crash")
   with Failure _ -> ());
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "oppsla_test_postmortem_%d" (Unix.getpid ()))
  in
  let bundle =
    Fun.protect ~finally:Telemetry.Postmortem.reset (fun () ->
        match Telemetry.Postmortem.dump ~dir ~reason:"uncaught: crash" () with
        | Some b -> b
        | None -> Alcotest.fail "no bundle written")
  in
  let files = Sys.readdir bundle in
  let info =
    In_channel.with_open_bin (Filename.concat bundle "info.json")
      In_channel.input_all
  in
  Array.iter (fun f -> Sys.remove (Filename.concat bundle f)) files;
  Unix.rmdir bundle;
  Unix.rmdir dir;
  Alcotest.(check bool) "no ring.jsonl" false (Array.mem "ring.jsonl" files);
  let module R = Evalharness.Regress in
  let field name = function
    | R.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  let loop =
    match field "loops" (R.parse_json info) with
    | Some (R.List loops) -> (
        match
          List.find_opt (fun l -> field "loop" l = Some (R.Str name)) loops
        with
        | Some l -> l
        | None -> Alcotest.failf "info.json does not name %s: %s" name info)
    | _ -> Alcotest.failf "info.json has no loops list: %s" info
  in
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option (float 0.)))
        k (Some v)
        (match field k loop with Some (R.Num x) -> Some x | _ -> None))
    [ ("active", 0.); ("image", 4.); ("iteration", 9.); ("queries", 37.) ]

(* {1 Sampler} *)

let sampler_ticks_and_snapshots () =
  let path = Filename.temp_file "oppsla_test_sampler" ".jsonl" in
  let before =
    Telemetry.Counter.get (Telemetry.Metrics.counter "sampler.samples")
  in
  let s =
    Telemetry.Sampler.start
      {
        Telemetry.Sampler.interval_s = 0.01;
        snapshot_path = Some path;
        stall_after_s = 60.;
        abort_on_stall = false;
      }
  in
  Telemetry.Sampler.sample_now s;
  Telemetry.Sampler.stop s;
  Telemetry.Sampler.stop s (* idempotent *);
  let after =
    Telemetry.Counter.get (Telemetry.Metrics.counter "sampler.samples")
  in
  (* start takes an immediate tick, sample_now another, stop a final
     one: at least three. *)
  Alcotest.(check bool) "at least three ticks" true (after - before >= 3);
  Alcotest.(check bool) "uptime gauge set" true
    (Telemetry.Gauge.get (Telemetry.Metrics.gauge "process.uptime_seconds")
    > 0.);
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  Alcotest.(check bool) "one JSONL snapshot per tick" true
    (List.length !lines >= 3);
  List.iter
    (fun l ->
      Alcotest.(check bool) "snapshot line carries the registry" true
        (String.length l > 2
        && l.[0] = '{'
        && l.[String.length l - 1] = '}'))
    !lines

(* Only a tick that woke on its deadline counts: a sampler whose
   interval outlasts the test takes its start-up sample, a [sample_now]
   and [stop]'s final tick and adds no timed tick; one with a 10 ms
   interval adds one within 2 s. *)
let sampler_timed_ticks () =
  let config interval_s =
    {
      Telemetry.Sampler.interval_s;
      snapshot_path = None;
      stall_after_s = 60.;
      abort_on_stall = false;
    }
  in
  let before = Telemetry.Sampler.timed_ticks () in
  let s = Telemetry.Sampler.start (config 3600.) in
  Telemetry.Sampler.sample_now s;
  Telemetry.Sampler.stop s;
  Alcotest.(check int) "no deadline reached" before
    (Telemetry.Sampler.timed_ticks ());
  Alcotest.(check bool) "await gives up without a loop" false
    (Telemetry.Sampler.await_timed_tick ~after:before ~timeout_s:0.02);
  let s = Telemetry.Sampler.start (config 0.01) in
  let ticked =
    Telemetry.Sampler.await_timed_tick ~after:before ~timeout_s:2.
  in
  Telemetry.Sampler.stop s;
  Alcotest.(check bool) "a 10 ms loop ticks on its deadline" true ticked;
  Alcotest.(check bool) "timed_ticks grew" true
    (Telemetry.Sampler.timed_ticks () > before)

(* {1 Properties} *)

(* Whatever is observed, bucket counts (including overflow) always sum to
   the total observation count, and the sum telemetry matches a direct
   fold over the observations. *)
let qcheck_histogram_conservation =
  QCheck.Test.make ~name:"histogram buckets sum to observation count"
    ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 5) (float_range 0.1 10.))
        (small_list (float_range (-100.) 100.)))
    (fun (bounds, values) ->
      let bounds = List.sort_uniq compare bounds in
      let h =
        Telemetry.Metrics.histogram
          ~buckets:(Array.of_list bounds)
          (fresh "prop")
      in
      List.iter (Telemetry.Histogram.observe h) values;
      let s = Telemetry.Histogram.snapshot h in
      let bucket_total =
        Array.fold_left ( + ) s.Telemetry.Histogram.overflow
          s.Telemetry.Histogram.counts
      in
      s.Telemetry.Histogram.count = List.length values
      && bucket_total = s.Telemetry.Histogram.count
      && s.Telemetry.Histogram.sum = List.fold_left ( +. ) 0. values)

(* The initial queue build is its own span inside each attack's span,
   so a trace splits it out of the sketch's self time. *)
let queue_init_span_nests () =
  let image = Tensor.rand_uniform (Prng.of_int 3) [| 3; 4; 4 |] in
  let oracle =
    Oracle.of_fn ~num_classes:2 (fun _ -> Tensor.of_array [| 2 |] [| 1.; 0. |])
  in
  let lines =
    with_trace_file (fun () ->
        ignore
          (Oppsla.Sketch.attack oracle Oppsla.Condition.const_false_program
             ~image ~true_class:0))
  in
  let named name =
    match List.find_opt (fun l -> field_string l "name" = Some name) lines with
    | Some l -> l
    | None -> Alcotest.failf "no %S event in trace" name
  in
  let extent l =
    let ts = Option.get (field_float l "ts") in
    (ts, ts +. Option.get (field_float l "dur"))
  in
  let a0, a1 = extent (named "sketch.attack")
  and q0, q1 = extent (named "sketch.queue_init") in
  Alcotest.(check bool) "queue_init inside attack" true (a0 <= q0 && q1 <= a1)

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick counter_semantics;
    Alcotest.test_case "gauge semantics" `Quick gauge_semantics;
    Alcotest.test_case "kind clash rejected" `Quick kind_clash_rejected;
    Alcotest.test_case "histogram semantics" `Quick histogram_semantics;
    Alcotest.test_case "histogram validates buckets" `Quick
      histogram_rejects_bad_buckets;
    Alcotest.test_case "dump_json" `Quick dump_json_contains_registered;
    Alcotest.test_case "concurrent bumps (4 domains)" `Quick concurrent_bumps;
    Alcotest.test_case "span nesting and ordering" `Quick
      span_nesting_and_ordering;
    Alcotest.test_case "span re-raises and still emits" `Quick
      span_reraises_and_still_emits;
    Alcotest.test_case "null sink is identity" `Quick null_sink_is_identity;
    Alcotest.test_case "without masks and restores" `Quick
      without_masks_and_restores;
    Alcotest.test_case "quantile of empty histogram" `Quick
      quantile_empty_is_nan;
    Alcotest.test_case "quantile rejects out-of-range q" `Quick
      quantile_rejects_out_of_range;
    Alcotest.test_case "quantile interpolation" `Quick quantile_interpolation;
    Alcotest.test_case "quantile first-bucket lower edge" `Quick
      quantile_first_bucket_lower_edge_is_zero;
    Alcotest.test_case "quantile clamps past the last bound" `Quick
      quantile_overflow_clamps;
    Alcotest.test_case "quantile of single-bucket histogram" `Quick
      quantile_single_bucket;
    Alcotest.test_case "quantile with all observations overflowed" `Quick
      quantile_all_overflow;
    Alcotest.test_case "profiler records GC pauses" `Quick
      profiler_records_pauses;
    Alcotest.test_case "profiler emits GC trace events" `Quick
      profiler_emits_gc_trace_events;
    Alcotest.test_case "watchdog snapshot and stall" `Quick
      watchdog_snapshot_and_stall;
    Alcotest.test_case "watchdog with_loop is exception-safe" `Quick
      watchdog_with_loop_is_exception_safe;
    Alcotest.test_case "crash bundle names the loop it left" `Quick
      crash_bundle_names_left_loop;
    Alcotest.test_case "watchdog beat allocates nothing" `Quick
      watchdog_beat_allocates_nothing;
    Alcotest.test_case "sampler ticks and snapshots" `Quick
      sampler_ticks_and_snapshots;
    QCheck_alcotest.to_alcotest qcheck_histogram_conservation;
    Alcotest.test_case "sketch.queue_init nests in sketch.attack" `Quick
      queue_init_span_nests;
    Alcotest.test_case "registry labels round-trip" `Quick
      registry_labels_round_trip;
    Alcotest.test_case "registry label values escaped" `Quick
      registry_label_values_escaped;
    Alcotest.test_case "failed sink open releases lock" `Quick
      failed_sink_open_releases_lock;
    Alcotest.test_case "sampler timed ticks" `Quick sampler_timed_ticks;
  ]
