(* Offline trace analytics over the Chrome-trace JSONL the telemetry
   layer writes (--trace FILE): parse the event stream back, rebuild
   the span stack per track (tid = domain), and answer "where did the
   wall-clock go" questions from the artifact alone — per-span-name
   self/total time, a critical-path decomposition that follows
   pool.map fan-outs onto the busiest worker track, and folded-stack
   output consumable by flamegraph.pl or speedscope.

   Parsing is deliberately tolerant: the writer emits a JSON array as
   one event object per line, but a crashed run leaves no terminator
   and possibly a half-written final line, so the parser works line by
   line, skips the array framing, counts (rather than fails on)
   undecodable lines, and accepts events in any order — domains
   interleave their emissions arbitrarily.

   Stack reconstruction: complete ("X") events of one track, sorted by
   start time (ties broken longest-first, so a parent precedes the
   children born in the same microsecond), rebuild the nesting with a
   stack — an event starting before the stack top ends is its child.
   Self time is a span's duration minus its children's, with child
   intervals clipped to the parent (GC pause events are emitted on a
   calibrated clock and may protrude past a span boundary by a
   microsecond; clipping keeps self times nonnegative and the track
   total exact). *)

type event = {
  name : string;
  cat : string;
  ph : string;
  ts : float;  (* microseconds *)
  dur : float;  (* microseconds; 0 when absent (instants) *)
  tid : int;
}

type parsed = {
  events : event list;  (* file order *)
  skipped : int;  (* undecodable lines (truncated tail, noise) *)
}

let field obj key = List.assoc_opt key obj

let num = function
  | Some (Regress.Num f) -> Some f
  | _ -> None

let str = function
  | Some (Regress.Str s) -> Some s
  | _ -> None

let event_of_line line =
  match Regress.parse_json line with
  | Regress.Obj fields -> (
      match (str (field fields "name"), str (field fields "ph")) with
      | Some name, Some ph ->
          Some
            {
              name;
              cat = Option.value (str (field fields "cat")) ~default:"";
              ph;
              ts = Option.value (num (field fields "ts")) ~default:0.;
              dur = Option.value (num (field fields "dur")) ~default:0.;
              tid =
                int_of_float
                  (Option.value (num (field fields "tid")) ~default:0.);
            }
      | _ -> None)
  | _ -> None
  | exception Regress.Parse_error _ -> None

(* One line of the sink's framing: "[", a bare "]", or the
   comma-absorbing "{}]" / "{}" terminator.  Not events, not errors. *)
let is_framing line =
  match line with "" | "[" | "]" | "{}]" | "{}" -> true | _ -> false

let parse_string body =
  let events = ref [] in
  let skipped = ref 0 in
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         let line = String.trim line in
         (* The sink writes "{...}," per event; strip the separator. *)
         let line =
           if String.length line > 0 && line.[String.length line - 1] = ','
           then String.sub line 0 (String.length line - 1)
           else line
         in
         if not (is_framing line) then
           match event_of_line line with
           | Some e -> events := e :: !events
           | None -> incr skipped);
  { events = List.rev !events; skipped = !skipped }

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      parse_string (really_input_string ic n))

(* ------------------------------------------------------------------ *)
(* Span forest reconstruction *)

type span = {
  sname : string;
  scat : string;
  sts : float;
  sdur : float;
  stid : int;
  children : span list;  (* start-ordered *)
}

let span_end s = s.sts +. s.sdur

type track = {
  tid : int;
  roots : span list;  (* start-ordered *)
  busy_us : float;  (* sum of root durations *)
}

(* Build one track's forest from its complete events.  The stack holds
   (event, end, reversed children built so far). *)
let build_track tid events =
  let arr = Array.of_list events in
  Array.sort
    (fun (a : event) b ->
      match compare a.ts b.ts with 0 -> compare b.dur a.dur | c -> c)
    arr;
  let roots = ref [] in
  let stack : (event * float * span list ref) list ref = ref [] in
  let close (ev, _, kids) =
    let s =
      {
        sname = ev.name;
        scat = ev.cat;
        sts = ev.ts;
        sdur = ev.dur;
        stid = tid;
        children = List.rev !kids;
      }
    in
    match !stack with
    | (_, _, pkids) :: _ -> pkids := s :: !pkids
    | [] -> roots := s :: !roots
  in
  Array.iter
    (fun (ev : event) ->
      let rec pop () =
        match !stack with
        | ((_, e, _) as top) :: rest when ev.ts >= e ->
            stack := rest;
            close top;
            pop ()
        | _ -> ()
      in
      pop ();
      stack := (ev, ev.ts +. ev.dur, ref []) :: !stack)
    arr;
  let rec drain () =
    match !stack with
    | top :: rest ->
        stack := rest;
        close top;
        drain ()
    | [] -> ()
  in
  drain ();
  let roots = List.rev !roots in
  {
    tid;
    roots;
    busy_us = List.fold_left (fun acc s -> acc +. s.sdur) 0. roots;
  }

(* ------------------------------------------------------------------ *)
(* Aggregation *)

type span_stat = {
  stat_name : string;
  count : int;
  total_us : float;  (* durations, recursive re-entries not re-counted *)
  self_us : float;  (* duration minus children (clipped) *)
}

type analysis = {
  tracks : track list;  (* tid-ascending *)
  stats : span_stat list;  (* self-time descending *)
  folded : (string * float) list;  (* stack -> self us, descending *)
  wall_us : float;  (* trace extent: max end - min start over spans *)
  attributed_us : float;  (* busy time of the busiest track *)
  coverage : float;  (* attributed / wall (0 when the trace is empty) *)
  skipped : int;
}

(* A span's self time: duration minus the parts covered by children,
   each child clipped into the parent's interval. *)
let self_of s =
  let covered =
    List.fold_left
      (fun acc c ->
        let c0 = Float.max c.sts s.sts
        and c1 = Float.min (span_end c) (span_end s) in
        acc +. Float.max 0. (c1 -. c0))
      0. s.children
  in
  Float.max 0. (s.sdur -. covered)

let analyze (p : parsed) =
  let complete =
    List.filter (fun e -> e.ph = "X" && e.dur > 0.) p.events
  in
  let by_tid : (int, event list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : event) ->
      match Hashtbl.find_opt by_tid e.tid with
      | Some l -> l := e :: !l
      | None -> Hashtbl.add by_tid e.tid (ref [ e ]))
    complete;
  let tracks =
    Hashtbl.fold (fun tid l acc -> build_track tid (List.rev !l) :: acc)
      by_tid []
    |> List.sort (fun a b -> compare a.tid b.tid)
  in
  (* Per-name stats and folded stacks in one walk. *)
  let stats : (string, int ref * float ref * float ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let folded : (string, float ref) Hashtbl.t = Hashtbl.create 64 in
  let bump_folded key self =
    if self > 0. then
      match Hashtbl.find_opt folded key with
      | Some r -> r := !r +. self
      | None -> Hashtbl.add folded key (ref self)
  in
  let rec walk path_rev ancestors s =
    let self = self_of s in
    let () =
      let count, total, selfr =
        match Hashtbl.find_opt stats s.sname with
        | Some t -> t
        | None ->
            let t = (ref 0, ref 0., ref 0.) in
            Hashtbl.add stats s.sname t;
            t
      in
      incr count;
      selfr := !selfr +. self;
      (* A recursive re-entry's duration is already inside its
         ancestor's total; counting it again would let one name's
         total exceed wall-clock. *)
      if not (List.mem s.sname ancestors) then total := !total +. s.sdur
    in
    let path_rev = s.sname :: path_rev in
    bump_folded (String.concat ";" (List.rev path_rev)) self;
    List.iter (walk path_rev (s.sname :: ancestors)) s.children
  in
  List.iter
    (fun tr ->
      let base = Printf.sprintf "domain%d" tr.tid in
      List.iter (walk [ base ] []) tr.roots)
    tracks;
  let stats =
    Hashtbl.fold
      (fun name (count, total, self) acc ->
        {
          stat_name = name;
          count = !count;
          total_us = !total;
          self_us = !self;
        }
        :: acc)
      stats []
    |> List.sort (fun a b ->
           match compare b.self_us a.self_us with
           | 0 -> compare a.stat_name b.stat_name
           | c -> c)
  in
  let folded =
    Hashtbl.fold (fun k v acc -> (k, !v) :: acc) folded []
    |> List.sort (fun (ka, a) (kb, b) ->
           match compare b a with 0 -> compare ka kb | c -> c)
  in
  let wall_us, attributed_us =
    match tracks with
    | [] -> (0., 0.)
    | _ ->
        let lo =
          List.fold_left
            (fun acc tr ->
              List.fold_left (fun acc s -> Float.min acc s.sts) acc tr.roots)
            infinity tracks
        and hi =
          List.fold_left
            (fun acc tr ->
              List.fold_left
                (fun acc s -> Float.max acc (span_end s))
                acc tr.roots)
            neg_infinity tracks
        in
        ( Float.max 0. (hi -. lo),
          List.fold_left (fun acc tr -> Float.max acc tr.busy_us) 0. tracks
        )
  in
  {
    tracks;
    stats;
    folded;
    wall_us;
    attributed_us;
    coverage = (if wall_us > 0. then attributed_us /. wall_us else 0.);
    skipped = p.skipped;
  }

(* ------------------------------------------------------------------ *)
(* Critical path *)

type critical_step = { step : string; us : float; fraction : float }

type critical = {
  root_name : string;
  root_us : float;
  root_tid : int;
  steps : critical_step list;  (* us-descending; sums to root_us *)
}

(* The fan-out span: its wall-clock is spent on worker tracks, so the
   decomposition jumps to the busiest worker inside the span's interval
   instead of charging the caller's idle wait. *)
let is_fanout name = name = "pool.map"

let critical_path (a : analysis) =
  (* Root: the longest top-level span anywhere. *)
  let root =
    List.fold_left
      (fun acc tr ->
        List.fold_left
          (fun acc s ->
            match acc with
            | Some best when best.sdur >= s.sdur -> acc
            | _ -> Some s)
          acc tr.roots)
      None a.tracks
  in
  match root with
  | None -> None
  | Some root ->
      let tbl : (string, float) Hashtbl.t = Hashtbl.create 16 in
      let add name us =
        if us > 0. then
          Hashtbl.replace tbl name
            (us +. Option.value ~default:0. (Hashtbl.find_opt tbl name))
      in
      let overlap lo hi s =
        Float.max 0.
          (Float.min hi (span_end s) -. Float.max lo s.sts)
      in
      let track_busy lo hi tr =
        List.fold_left (fun acc s -> acc +. overlap lo hi s) 0. tr.roots
      in
      (* Charge the wall-clock of [s] clipped to [lo, hi]: children
         recurse (fan-outs jump tracks), the uncovered remainder is
         [s]'s own critical time. *)
      let rec decompose tid s lo hi =
        let lo = Float.max lo s.sts and hi = Float.min hi (span_end s) in
        if hi > lo then begin
          let covered = ref 0. in
          List.iter
            (fun c ->
              let c0 = Float.max lo c.sts
              and c1 = Float.min hi (span_end c) in
              if c1 > c0 then begin
                covered := !covered +. (c1 -. c0);
                if is_fanout c.sname then fanout tid c c0 c1
                else decompose tid c c0 c1
              end)
            s.children;
          add s.sname (Float.max 0. (hi -. lo -. !covered))
        end
      and fanout tid c lo hi =
        let workers = List.filter (fun tr -> tr.tid <> tid) a.tracks in
        let best =
          List.fold_left
            (fun acc tr ->
              let busy = track_busy lo hi tr in
              match acc with
              | Some (_, b) when b >= busy -> acc
              | _ when busy > 0. -> Some (tr, busy)
              | _ -> acc)
            None workers
        in
        match best with
        | None -> decompose tid c lo hi  (* no workers: plain span *)
        | Some (tr, _) ->
            let covered = ref 0. in
            List.iter
              (fun r ->
                let r0 = Float.max lo r.sts
                and r1 = Float.min hi (span_end r) in
                if r1 > r0 then begin
                  covered := !covered +. (r1 -. r0);
                  decompose tr.tid r r0 r1
                end)
              tr.roots;
            (* The remainder is fan-out overhead and worker idle,
               charged to the fan-out span itself. *)
            add c.sname (Float.max 0. (hi -. lo -. !covered))
      in
      decompose root.stid root root.sts (span_end root);
      let steps =
        Hashtbl.fold
          (fun step us acc ->
            {
              step;
              us;
              fraction = (if root.sdur > 0. then us /. root.sdur else 0.);
            }
            :: acc)
          tbl []
        |> List.sort (fun a b ->
               match compare b.us a.us with
               | 0 -> compare a.step b.step
               | c -> c)
      in
      Some
        {
          root_name = root.sname;
          root_us = root.sdur;
          root_tid = root.stid;
          steps;
        }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let folded_lines (a : analysis) =
  List.map
    (fun (stack, self) ->
      Printf.sprintf "%s %.0f" stack (Float.round self))
    a.folded

let render_stats ?(top = 20) (a : analysis) =
  let rows =
    a.stats
    |> List.filteri (fun i _ -> i < top)
    |> List.map (fun s ->
           [
             s.stat_name;
             string_of_int s.count;
             Telemetry.Fmt.f2 (s.total_us /. 1e3);
             Telemetry.Fmt.f2 (s.self_us /. 1e3);
             Telemetry.Fmt.percent
               (if a.wall_us > 0. then s.self_us /. a.wall_us else 0.);
           ])
  in
  Report.table
    ~headers:[ "span"; "count"; "total ms"; "self ms"; "self/wall" ]
    ~rows

let render_critical (c : critical) =
  let rows =
    List.map
      (fun s ->
        [
          s.step;
          Telemetry.Fmt.f2 (s.us /. 1e3);
          Telemetry.Fmt.percent s.fraction;
        ])
      c.steps
  in
  Printf.sprintf "critical path of %s (%.2f ms, domain %d)\n%s"
    c.root_name (c.root_us /. 1e3) c.root_tid
    (Report.table ~headers:[ "step"; "ms"; "share" ] ~rows)

let render_summary (a : analysis) =
  Printf.sprintf
    "events: %d spans on %d tracks (%d undecodable lines skipped)\n\
     wall-clock extent: %.2f ms, attributed on busiest track: %.2f ms \
     (%.1f%%)"
    (List.fold_left (fun acc s -> acc + s.count) 0 a.stats)
    (List.length a.tracks) a.skipped (a.wall_us /. 1e3)
    (a.attributed_us /. 1e3)
    (100. *. a.coverage)
