(* Offline trace profiler CLI over Evalharness.Traceprof: parse a
   --trace artifact, print the self-time attribution table, the
   critical-path decomposition and a summary, and optionally write
   folded stacks for flamegraph.pl / speedscope.

     tools/traceprof.exe TRACE.json [--top N] [--folded FILE]
     tools/traceprof.exe --smoke

   --smoke runs the self-contained synthetic check wired under dune
   runtest: a hand-built trace with a pool fan-out and a truncated
   tail must parse tolerantly, attribute self times exactly, produce a
   critical path that sums to the root span, and emit well-formed
   folded stacks.  Exit 1 on any violation, 124 on usage errors. *)

module T = Evalharness.Traceprof

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("traceprof: " ^ s);
      exit 1)
    fmt

(* ------------------------------------------------------------------ *)
(* Smoke test *)

let ev ?(ph = "X") ?(tid = 0) ~name ~ts ~dur () =
  Printf.sprintf
    "{\"name\": \"%s\", \"cat\": \"t\", \"ph\": \"%s\", \"ts\": %.3f, \
     \"dur\": %.3f, \"pid\": 1, \"tid\": %d},"
    name ph ts dur tid

let smoke () =
  (* domain0: root [0,1000] -> work [50,250] and pool.map [300,900];
     domain1: two worker spans inside the fan-out window, the second
     with a nested gc.minor pause.  Out-of-order emission (spans are
     written at their ends) and a truncated final line exercise the
     tolerant parser. *)
  let body =
    String.concat "\n"
      [
        "[";
        ev ~name:"work" ~ts:50. ~dur:200. ();
        ev ~name:"gc.minor" ~tid:1 ~ts:700. ~dur:50. ();
        ev ~name:"job" ~tid:1 ~ts:350. ~dur:200. ();
        ev ~name:"job" ~tid:1 ~ts:600. ~dur:250. ();
        ev ~name:"pool.map" ~ts:300. ~dur:600. ();
        ev ~name:"root" ~ts:0. ~dur:1000. ();
        ev ~ph:"i" ~name:"marker" ~ts:10. ~dur:0. ();
        "{\"name\": \"trunc";  (* a crashed writer's half line *)
      ]
  in
  let parsed = T.parse_string body in
  if parsed.T.skipped <> 1 then
    fail "smoke: expected 1 skipped line, got %d" parsed.T.skipped;
  if List.length parsed.T.events <> 7 then
    fail "smoke: expected 7 events, got %d" (List.length parsed.T.events);
  let a = T.analyze parsed in
  let stat name =
    match List.find_opt (fun s -> s.T.stat_name = name) a.T.stats with
    | Some s -> s
    | None -> fail "smoke: no stats for %s" name
  in
  let check name want got =
    if Float.abs (want -. got) > 1e-6 then
      fail "smoke: %s: expected %.3f, got %.3f" name want got
  in
  (* Exact self times: root 1000 - 200 - 600; pool.map has no children
     on its own track; jobs lose the nested gc pause. *)
  check "root self" 200. (stat "root").T.self_us;
  check "work self" 200. (stat "work").T.self_us;
  check "pool.map self" 600. (stat "pool.map").T.self_us;
  check "job self" 400. (stat "job").T.self_us;
  check "gc self" 50. (stat "gc.minor").T.self_us;
  check "wall" 1000. a.T.wall_us;
  (* Critical path follows the fan-out onto domain1: 400us of job
     (the nested gc pause is charged to gc.minor), 50us of gc, 150us
     of worker idle charged to pool.map. *)
  let c =
    match T.critical_path a with
    | Some c -> c
    | None -> fail "smoke: no critical path"
  in
  if c.T.root_name <> "root" then fail "smoke: wrong root %s" c.T.root_name;
  let step name =
    match List.find_opt (fun s -> s.T.step = name) c.T.steps with
    | Some s -> s.T.us
    | None -> fail "smoke: no critical step %s" name
  in
  check "critical root" 200. (step "root");
  check "critical work" 200. (step "work");
  check "critical job" 400. (step "job");
  check "critical gc" 50. (step "gc.minor");
  check "critical pool idle" 150. (step "pool.map");
  let total = List.fold_left (fun acc s -> acc +. s.T.us) 0. c.T.steps in
  check "critical sums to root" c.T.root_us total;
  (* Folded stacks: semicolon-joined frames, one integer count, and
     the nested job stack present. *)
  let lines = T.folded_lines a in
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> fail "smoke: malformed folded line %S" line
      | Some i -> (
          match
            int_of_string_opt
              (String.sub line (i + 1) (String.length line - i - 1))
          with
          | Some n when n >= 0 -> ()
          | _ -> fail "smoke: non-integer folded count in %S" line))
    lines;
  if
    not
      (List.exists
         (fun l ->
           String.length l >= 16 && String.sub l 0 16 = "domain1;job;gc.m")
         lines)
  then fail "smoke: missing nested folded stack";
  print_endline "traceprof --smoke: ok (parse, self-times, critical path, \
                 folded stacks)"

(* ------------------------------------------------------------------ *)

let profile path top folded_out =
  let a = T.analyze (T.parse_file path) in
  print_endline (T.render_summary a);
  print_newline ();
  print_endline (T.render_stats ~top a);
  (match T.critical_path a with
  | Some c -> print_endline (T.render_critical c)
  | None -> print_endline "no complete spans: no critical path");
  match folded_out with
  | None -> ()
  | Some out ->
      let oc = open_out out in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          List.iter
            (fun l ->
              output_string oc l;
              output_char oc '\n')
            (T.folded_lines a));
      Printf.printf "wrote %d folded stacks to %s\n" (List.length a.T.folded)
        out

let run smoke_mode top folded_out path =
  match (smoke_mode, path) with
  | true, _ ->
      smoke ();
      `Ok ()
  | false, Some path when top > 0 ->
      profile path top folded_out;
      `Ok ()
  | false, Some _ -> `Error (true, "--top must be positive")
  | false, None -> `Error (true, "no TRACE given")

let () =
  let open Cmdliner in
  let smoke_mode =
    Arg.(
      value & flag
      & info [ "smoke" ] ~doc:"Run the self-check on a synthetic trace.")
  in
  let top =
    Arg.(
      value & opt int 20
      & info [ "top" ] ~docv:"N" ~doc:"Rows of the self-time table.")
  in
  let folded_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:"Write folded stacks (flamegraph.pl, speedscope) to FILE.")
  in
  let path =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"TRACE")
  in
  let cmd =
    Cmd.v
      (Cmd.info "traceprof" ~doc:"Profile a --trace artifact offline.")
      Term.(ret (const run $ smoke_mode $ top $ folded_out $ path))
  in
  exit (Cmd.eval cmd)
