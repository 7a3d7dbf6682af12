(* The observability bracket behind bin/main.ml's --trace, --metrics,
   --snapshot, --stall-timeout, --journal and --profile flags: one place
   that knows how to open the trace and journal sinks, start the
   background sampler and the profiler, and tear everything down
   (flushing --metrics) even when the wrapped command raises. *)

type config = {
  trace : string option;  (* --trace FILE: Chrome trace-event JSONL *)
  metrics : string option;  (* --metrics FILE: registry JSON at exit *)
  snapshot : string option;  (* --snapshot FILE: JSONL registry ticks *)
  snapshot_interval_s : float;  (* --snapshot-interval SEC *)
  stall_timeout_s : float option;  (* --stall-timeout SEC: abort stalls *)
  journal : string option;  (* --journal FILE: query-provenance JSONL *)
  run_id : string option;  (* --run-id ID: journal/post-mortem identity *)
  profile : bool;  (* --profile: attach the runtime-events profiler *)
}

let default =
  {
    trace = None;
    metrics = None;
    snapshot = None;
    snapshot_interval_s = 1.0;
    stall_timeout_s = None;
    journal = None;
    run_id = None;
    profile = false;
  }

let active c =
  c.trace <> None || c.metrics <> None || c.snapshot <> None
  || c.stall_timeout_s <> None || c.journal <> None || c.profile

(* The sampler's stall threshold: --stall-timeout when given (which
   also makes a stall fatal), a permissive default otherwise. *)
let stall_after_s c = Option.value c.stall_timeout_s ~default:30.

(* The sampler only runs when something consumes its output: a
   snapshot file or a fatal stall timeout. *)
let wants_sampler c = c.snapshot <> None || c.stall_timeout_s <> None

type t = {
  sampler : Sampler.t option;
  profiler : Profiler.t option;
  config : config;
}

(* Default run id: wall-clock seconds since the epoch plus the pid —
   unique enough across restarts for journal headers and post-mortem
   directory names, with no state file required. *)
let generate_run_id () =
  Printf.sprintf "%.0f-%d" (Unix.gettimeofday ()) (Unix.getpid ())

(* On any uncaught exception in an observed run, drop the post-mortem
   bundle before the process dies, then report the exception exactly as
   the runtime default would have. *)
let install_crash_handler () =
  Printexc.set_uncaught_exception_handler (fun exn bt ->
      (try
         Core.Trace.flush ();
         Journal.flush ();
         match
           Postmortem.dump ~reason:("uncaught: " ^ Printexc.to_string exn) ()
         with
         | Some dir -> Printf.eprintf "[obs] post-mortem bundle: %s\n%!" dir
         | None -> ()
       with _ -> ());
      Printf.eprintf "Fatal error: exception %s\n%s%!" (Printexc.to_string exn)
        (Printexc.raw_backtrace_to_string bt))

let start config =
  Journal.set_run_id
    (match config.run_id with Some id -> id | None -> generate_run_id ());
  install_crash_handler ();
  (match config.journal with Some f -> Journal.to_file f | None -> ());
  (match config.trace with Some f -> Core.Trace.to_file f | None -> ());
  let sampler =
    if wants_sampler config then
      Some
        (Sampler.start
           {
             Sampler.interval_s = config.snapshot_interval_s;
             snapshot_path = config.snapshot;
             stall_after_s = stall_after_s config;
             abort_on_stall = config.stall_timeout_s <> None;
           })
    else None
  in
  let profiler = if config.profile then Some (Profiler.start ()) else None in
  { sampler; profiler; config }

let stop t =
  (* Sampler first (it reads the registry and watchdog), then the
     profiler (it emits into the trace stream, which must still be open
     for its final drain), then the file sinks. *)
  (match t.sampler with Some s -> Sampler.stop s | None -> ());
  (match t.profiler with Some p -> Profiler.stop p | None -> ());
  Core.Trace.close ();
  Journal.close ();
  match t.config.metrics with
  | Some f -> Core.Metrics.write_json f
  | None -> ()

let with_observability config f =
  if not (active config) then f ()
  else begin
    let t = start config in
    Fun.protect ~finally:(fun () -> stop t) f
  end
