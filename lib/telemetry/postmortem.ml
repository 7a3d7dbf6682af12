(* Post-mortem bundle: when a run dies involuntarily — the watchdog's
   fatal stall (exit 3) or an uncaught exception — the process drops a
   self-contained diagnostic directory before exiting:

     _artifacts/postmortem-<runid>/
       info.json          run id, reason, journal path, registered
                          checkpoint, and every watchdog slot: its
                          active count, idle time, beats and last
                          image/iteration/queries
       registry.json      full metrics registry snapshot
       journal_tail.jsonl the last few query-provenance records
       gc.json            Gc.quick_stat at death + the profiler's
                          per-domain pause summary (distinguishes a GC
                          death-spiral from a wedged loop)
       trace_tail.jsonl   the last lines of the live trace file, when
                          tracing was on

   Everything read here is observation-only state (the registry, the
   journal's in-memory tail, the watchdog slots), so a dump can run
   from any context — the sampler thread, an exception handler —
   without perturbing or deadlocking the attack stack. *)

let checkpoint_ref = ref None
let checkpoint_mutex = Mutex.create ()

(* The island-model synthesizer registers its checkpoint file here so a
   post-mortem names the resume point alongside the wreckage. *)
let note_checkpoint path =
  Mutex.lock checkpoint_mutex;
  checkpoint_ref := Some path;
  Mutex.unlock checkpoint_mutex

let checkpoint () =
  Mutex.lock checkpoint_mutex;
  let p = !checkpoint_ref in
  Mutex.unlock checkpoint_mutex;
  p

let dumped = Atomic.make false

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path body =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc body)

let info_json ~reason =
  let esc = Core.Metrics.json_escape in
  let opt = function
    | None -> "null"
    | Some s -> Printf.sprintf "\"%s\"" (esc s)
  in
  (* Every slot, entered or not: an uncaught exception has already left
     its loop through [Watchdog.with_loop] by the time the bundle is
     written, so the crashed loop shows [active: 0] with its last
     image, iteration and query count. *)
  let loops =
    Watchdog.snapshot ()
    |> List.map (fun (s : Watchdog.status) ->
           Printf.sprintf
             "{\"loop\": \"%s\", \"active\": %d, \"idle_s\": %s, \
              \"beats\": %d, \"image\": %d, \"iteration\": %d, \
              \"queries\": %d}"
             (esc s.Watchdog.name) s.Watchdog.active
             (Core.Metrics.json_float s.Watchdog.idle_s)
             s.Watchdog.beats
             (Option.value s.Watchdog.image ~default:(-1))
             (Option.value s.Watchdog.iteration ~default:(-1))
             (Option.value s.Watchdog.queries ~default:(-1)))
  in
  Printf.sprintf
    "{\n  \"run_id\": \"%s\",\n  \"reason\": \"%s\",\n  \"ts_us\": %s,\n\
    \  \"journal\": %s,\n  \"checkpoint\": %s,\n  \"loops\": [%s]\n}\n"
    (esc (Journal.run_id ()))
    (esc reason)
    (Core.Metrics.json_float (Core.Clock.now_us ()))
    (opt (Journal.current_path ()))
    (opt (checkpoint ()))
    (String.concat ", " loops)

let gc_json () =
  let g = Gc.quick_stat () in
  let jf = Core.Metrics.json_float in
  let stats =
    Profiler.summary ()
    |> List.map (fun (s : Profiler.gc_stat) ->
           Printf.sprintf
             "{\"domain\": %d, \"gc\": \"%s\", \"pauses\": %d, \
              \"total_s\": %s, \"p50_s\": %s, \"p99_s\": %s}"
             s.Profiler.domain s.Profiler.kind s.Profiler.pauses
             (jf s.Profiler.total_s) (jf s.Profiler.p50_s)
             (jf s.Profiler.p99_s))
  in
  Printf.sprintf
    "{\n\
    \  \"quick_stat\": {\"minor_words\": %s, \"promoted_words\": %s, \
     \"major_words\": %s, \"minor_collections\": %d, \
     \"major_collections\": %d, \"compactions\": %d, \"heap_words\": \
     %d, \"top_heap_words\": %d},\n\
    \  \"profiler_active_seconds\": %s,\n\
    \  \"pauses\": [%s]\n\
     }\n"
    (jf g.Gc.minor_words) (jf g.Gc.promoted_words) (jf g.Gc.major_words)
    g.Gc.minor_collections g.Gc.major_collections g.Gc.compactions
    g.Gc.heap_words g.Gc.top_heap_words
    (jf (Profiler.active_seconds ()))
    (String.concat ", " stats)

(* The last lines of the live trace file: seek near the end, drop the
   first (possibly partial) line.  Read-only against the sink's path;
   the caller has already flushed. *)
let trace_tail_lines = 256

let trace_tail () =
  match Core.Trace.current_path () with
  | None -> ""
  | Some path -> (
      try
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let len = in_channel_length ic in
            let window = min len 262144 in
            seek_in ic (len - window);
            let buf = really_input_string ic window in
            let lines = String.split_on_char '\n' buf in
            let lines =
              if window < len then
                match lines with _ :: rest -> rest | [] -> []
              else lines
            in
            let n = List.length lines in
            let lines =
              if n > trace_tail_lines then
                List.filteri (fun i _ -> i >= n - trace_tail_lines) lines
              else lines
            in
            String.concat "\n" lines ^ "\n")
      with _ -> "")

(* Dump the bundle once per process (the first fatal event wins) and
   return its directory.  Never raises: a failing dump must not mask
   the original fatality. *)
let dump ?(dir = "_artifacts") ~reason () =
  if not (Atomic.compare_and_set dumped false true) then None
  else
    try
      Core.Trace.flush ();
      Journal.flush ();
      let bundle =
        Filename.concat dir ("postmortem-" ^ Journal.run_id ())
      in
      mkdir_p bundle;
      write_file (Filename.concat bundle "info.json") (info_json ~reason);
      write_file
        (Filename.concat bundle "registry.json")
        (Core.Metrics.dump_json ());
      write_file
        (Filename.concat bundle "journal_tail.jsonl")
        (String.concat "\n" (Journal.tail ()) ^ "\n");
      write_file (Filename.concat bundle "gc.json") (gc_json ());
      write_file (Filename.concat bundle "trace_tail.jsonl") (trace_tail ());
      Some bundle
    with _ -> None

(* Tests only: allow a fresh dump in the same process. *)
let reset () = Atomic.set dumped false
