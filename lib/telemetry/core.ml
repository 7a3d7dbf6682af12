(* Zero-dependency metrics + tracing.  See the interface for the design
   contract; the implementation notes here cover only what the types
   cannot say.

   Domain-safety: every metric mutation is a single [Atomic] operation
   (floats via CAS loops), so counters and histograms tolerate arbitrary
   concurrent bumps from pool workers.  The registry hashtable itself is
   mutex-protected, but registration happens at module-init time or in
   tests — never on a hot path.

   The disabled tracing path is one [Atomic.get] + branch; span argument
   closures are only evaluated when a sink is open. *)

module Clock = struct
  let epoch = Unix.gettimeofday ()

  (* Wall clock clamped to a shared high-water mark: consecutive reads
     never decrease, across domains, even if the wall clock steps
     backwards (NTP).  Good enough for trace timestamps; the clamp makes
     a stepped read repeat the last timestamp rather than regress. *)
  let high_water = Atomic.make 0.

  let now_us () =
    let t = (Unix.gettimeofday () -. epoch) *. 1e6 in
    let rec clamp () =
      let last = Atomic.get high_water in
      if t <= last then last
      else if Atomic.compare_and_set high_water last t then t
      else clamp ()
    in
    clamp ()

  external wall_us : unit -> (int[@untagged])
    = "telemetry_wall_us_byte" "telemetry_wall_us"
  [@@noalloc]

  (* [now_us] in whole microseconds, read without boxing a float or
     touching the high-water mark: the heartbeat stamp.  The epoch is
     rounded up and one microsecond added so that the rounding of
     [now_us]'s float arithmetic can never put a stamp after a later
     [now_us] read: idle times computed from it are never short. *)
  let epoch_us = Float.to_int (Float.ceil (epoch *. 1e6)) + 1
  let now_int_us () = wall_us () - epoch_us
end

(* Lock-free float accumulator (OCaml [Atomic] has no fetch-and-add for
   floats). *)
let atomic_add_float cell v =
  let rec loop () =
    let cur = Atomic.get cell in
    if not (Atomic.compare_and_set cell cur (cur +. v)) then loop ()
  in
  loop ()

module Counter = struct
  type t = { name : string; v : int Atomic.t }

  let make name = { name; v = Atomic.make 0 }
  let incr t = ignore (Atomic.fetch_and_add t.v 1)
  let add t n = ignore (Atomic.fetch_and_add t.v n)
  let get t = Atomic.get t.v
  let reset t = Atomic.set t.v 0
end

module Gauge = struct
  type t = { name : string; v : float Atomic.t }

  let make name = { name; v = Atomic.make 0. }
  let set t v = Atomic.set t.v v
  let get t = Atomic.get t.v
end

module Histogram = struct
  type t = {
    name : string;
    uppers : float array;
    counts : int Atomic.t array;  (* length = length uppers + 1; last = overflow *)
    total : int Atomic.t;
    sum : float Atomic.t;
  }

  type snapshot = {
    uppers : float array;
    counts : int array;
    overflow : int;
    count : int;
    sum : float;
  }

  let make name uppers =
    let n = Array.length uppers in
    if n = 0 then invalid_arg "Telemetry.Histogram: empty bucket array";
    for i = 1 to n - 1 do
      if uppers.(i) <= uppers.(i - 1) then
        invalid_arg "Telemetry.Histogram: bucket bounds must ascend strictly"
    done;
    {
      name;
      uppers = Array.copy uppers;
      counts = Array.init (n + 1) (fun _ -> Atomic.make 0);
      total = Atomic.make 0;
      sum = Atomic.make 0.;
    }

  let observe (t : t) v =
    let n = Array.length t.uppers in
    let rec bucket i = if i >= n || v <= t.uppers.(i) then i else bucket (i + 1) in
    ignore (Atomic.fetch_and_add t.counts.(bucket 0) 1);
    ignore (Atomic.fetch_and_add t.total 1);
    atomic_add_float t.sum v

  let snapshot (t : t) =
    let n = Array.length t.uppers in
    {
      uppers = Array.copy t.uppers;
      counts = Array.init n (fun i -> Atomic.get t.counts.(i));
      overflow = Atomic.get t.counts.(n);
      count = Atomic.get t.total;
      sum = Atomic.get t.sum;
    }

  let reset (t : t) =
    Array.iter (fun c -> Atomic.set c 0) t.counts;
    Atomic.set t.total 0;
    Atomic.set t.sum 0.

  (* Bucket-interpolated quantile over a snapshot: find the first
     non-empty bucket whose cumulative count reaches [q * count] and
     interpolate linearly inside it.  The first bucket's lower edge is 0
     (every recorded quantity — queries, seconds — is nonnegative), and
     observations past the last bound clamp to that bound: the registry
     does not keep exact values above it. *)
  let quantile_of_snapshot (s : snapshot) q =
    (* The negated form also rejects nan, which every direct comparison
       would wave through. *)
    if not (q >= 0. && q <= 1.) then
      invalid_arg "Telemetry.Histogram.quantile: q outside [0, 1]";
    if s.count = 0 then Float.nan
    else begin
      let target = q *. float_of_int s.count in
      let n = Array.length s.uppers in
      let rec walk i cum =
        if i >= n then s.uppers.(n - 1)
        else
          let c = s.counts.(i) in
          let cum' = cum + c in
          if c > 0 && float_of_int cum' >= target then begin
            let lower = if i = 0 then 0. else s.uppers.(i - 1) in
            let upper = s.uppers.(i) in
            let within = Float.max 0. (target -. float_of_int cum) in
            lower +. ((upper -. lower) *. within /. float_of_int c)
          end
          else walk (i + 1) cum'
      in
      walk 0 0
    end

  let quantile t q = quantile_of_snapshot (snapshot t) q
end

(* Registry *)

type metric = C of Counter.t | G of Gauge.t | H of Histogram.t

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register name wanted make =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
          match wanted m with
          | Some h -> h
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Telemetry.Metrics: %S is already registered as a %s" name
                   (kind_name m)))
      | None ->
          let h = make () in
          h)

module Metrics = struct
  (* Label-value escaping: backslash, double quote and newline, the
     three characters that would otherwise end or split a value inside
     the key's [{k="v"}] block. *)
  let label_escape v =
    let b = Buffer.create (String.length v + 4) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      v;
    Buffer.contents b

  (* A labeled series' registry key is [name{k="v",k2="v2"}] with keys
     sorted and values escaped, so the same (name, labels) pair always
     resolves to the same handle and one entry of the JSON dump. *)
  let labeled_name name labels =
    match labels with
    | [] -> name
    | labels ->
        let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
        let fields =
          List.map
            (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (label_escape v))
            labels
        in
        Printf.sprintf "%s{%s}" name (String.concat "," fields)

  let counter ?(labels = []) name =
    let name = labeled_name name labels in
    register name
      (function C c -> Some c | _ -> None)
      (fun () ->
        let c = Counter.make name in
        Hashtbl.replace registry name (C c);
        c)

  let gauge ?(labels = []) name =
    let name = labeled_name name labels in
    register name
      (function G g -> Some g | _ -> None)
      (fun () ->
        let g = Gauge.make name in
        Hashtbl.replace registry name (G g);
        g)

  let default_buckets =
    Array.init 13 (fun i -> float_of_int (1 lsl i)) (* 1 .. 4096 *)

  let time_buckets =
    [| 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10.; 100. |]

  let histogram ?(buckets = default_buckets) ?(labels = []) name =
    let name = labeled_name name labels in
    register name
      (function H h -> Some h | _ -> None)
      (fun () ->
        let h = Histogram.make name buckets in
        Hashtbl.replace registry name (H h);
        h)

  let sorted_metrics () =
    with_registry (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  (* Floats rendered with %.17g survive a JSON round trip bit-exactly;
     integral values still print compactly ("4" not "4.0000..."). *)
  let json_float v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v

  let json_escape_slow s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* Fast path: most escaped strings (metric names, cache keys, charge
     sites) contain nothing to escape — return them unchanged rather
     than copying through a buffer. *)
  let json_escape s =
    let n = String.length s in
    let rec clean i =
      i >= n
      ||
      match String.unsafe_get s i with
      | '"' | '\\' -> false
      | c when Char.code c < 0x20 -> false
      | _ -> clean (i + 1)
    in
    if clean 0 then s else json_escape_slow s

  let dump_json () =
    let metrics = sorted_metrics () in
    let section kind render =
      metrics
      |> List.filter_map (fun (name, m) ->
             Option.map
               (fun body -> Printf.sprintf "    %S: %s" name body)
               (render m))
      |> String.concat ",\n"
      |> fun body ->
      if body = "" then Printf.sprintf "  %S: {}" kind
      else Printf.sprintf "  %S: {\n%s\n  }" kind body
    in
    let counters =
      section "counters" (function
        | C c -> Some (string_of_int (Counter.get c))
        | _ -> None)
    in
    let gauges =
      section "gauges" (function
        | G g -> Some (json_float (Gauge.get g))
        | _ -> None)
    in
    let histograms =
      section "histograms" (function
        | H h ->
            let s = Histogram.snapshot h in
            let buckets =
              Array.to_list
                (Array.mapi
                   (fun i u ->
                     Printf.sprintf "{\"le\": %s, \"count\": %d}"
                       (json_float u) s.Histogram.counts.(i))
                   s.Histogram.uppers)
              @ [ Printf.sprintf "{\"le\": \"+inf\", \"count\": %d}"
                    s.Histogram.overflow ]
            in
            Some
              (Printf.sprintf
                 "{\"count\": %d, \"sum\": %s, \"buckets\": [%s]}"
                 s.Histogram.count (json_float s.Histogram.sum)
                 (String.concat ", " buckets))
        | _ -> None)
    in
    Printf.sprintf "{\n%s,\n%s,\n%s\n}\n" counters gauges histograms

  let write_json path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (dump_json ()))

  let reset () =
    with_registry (fun () ->
        Hashtbl.iter
          (fun _ m ->
            match m with
            | C c -> Counter.reset c
            | G g -> Gauge.set g 0.
            | H h -> Histogram.reset h)
          registry)
end

module Trace = struct
  type arg = Int of int | Float of float | Bool of bool | Str of string

  (* [active] is the hot-path flag (one load + branch when disabled);
     [sink] and its mutex serialize event emission across domains. *)
  let active = Atomic.make false
  let sink : out_channel option ref = ref None
  let sink_path : string option ref = ref None
  let sink_mutex = Mutex.create ()
  let pid = Unix.getpid ()
  let pid_field = Printf.sprintf ", \"pid\": %d, \"tid\": " pid

  let enabled () = Atomic.get active

  (* Every critical section below holds [sink_mutex] through
     [Mutex.protect], so a raising open, write or close (a bad path, a
     full disk) releases the lock instead of wedging every later trace
     call. *)
  let to_file path =
    Mutex.protect sink_mutex (fun () ->
        match !sink with
        | Some _ -> invalid_arg "Telemetry.Trace.to_file: tracing already active"
        | None ->
            let oc = open_out path in
            output_string oc "[\n";
            sink := Some oc;
            sink_path := Some path;
            Atomic.set active true)

  (* Path of the open sink, if any: the post-mortem writer reads the
     tail of the live trace file through this. *)
  let current_path () = Mutex.protect sink_mutex (fun () -> !sink_path)

  let close () =
    Mutex.protect sink_mutex (fun () ->
        Atomic.set active false;
        match !sink with
        | None -> ()
        | Some oc ->
            sink := None;
            sink_path := None;
            (* The body emits every event as [{...},\n]; the closing
               empty object absorbs the trailing comma so the whole file
               is one valid JSON array (both chrome://tracing and
               Perfetto also accept truncated traces, so a crashed run
               still loads). *)
            output_string oc "{}]\n";
            close_out oc)

  (* [%.3f] of a microsecond timestamp or duration, rounded to the
     nanosecond, without [Printf]: its float conversion cost most of an
     event's rendering, and a traced forward pass renders one event per
     layer. *)
  let rec add_digits b n =
    if n >= 10 then add_digits b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

  (* [string_of_int] without its C format call. *)
  let add_int b n =
    if n >= 0 then add_digits b n
    else if n > min_int then begin
      Buffer.add_char b '-';
      add_digits b (-n)
    end
    else Buffer.add_string b (string_of_int n)

  let add_fixed3 b x =
    if Float.is_finite x && Float.abs x < 1e12 then begin
      let m = Float.to_int (Float.round (x *. 1000.)) in
      if m < 0 then Buffer.add_char b '-';
      let m = abs m in
      add_digits b (m / 1000);
      Buffer.add_char b '.';
      let frac = m mod 1000 in
      if frac < 100 then Buffer.add_char b '0';
      if frac < 10 then Buffer.add_char b '0';
      add_digits b frac
    end
    else Buffer.add_string b (Printf.sprintf "%.3f" x)

  let add_quoted b s =
    Buffer.add_char b '"';
    Buffer.add_string b (Metrics.json_escape s);
    Buffer.add_char b '"'

  let add_arg b = function
    | Int i -> add_int b i
    | Float f -> Buffer.add_string b (Metrics.json_float f)
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Str s -> add_quoted b s

  (* One event rendered as a complete JSON object (no trailing comma;
     the sink appends [",\n"]).  [?tid] overrides the track id: the
     runtime-events profiler emits GC pauses from its observer systhread
     but must land them on the track of the domain that actually
     paused. *)
  let render_event ~name ~cat ~ph ~ts ?dur ?scope ?tid args =
    let tid =
      match tid with Some t -> t | None -> (Domain.self () :> int)
    in
    let b = Buffer.create 160 in
    Buffer.add_string b "{\"name\": ";
    add_quoted b name;
    Buffer.add_string b ", \"cat\": ";
    add_quoted b cat;
    Buffer.add_string b ", \"ph\": \"";
    Buffer.add_string b ph;
    Buffer.add_string b "\", \"ts\": ";
    add_fixed3 b ts;
    Option.iter
      (fun d ->
        Buffer.add_string b ", \"dur\": ";
        add_fixed3 b d)
      dur;
    Buffer.add_string b pid_field;
    add_int b tid;
    Option.iter
      (fun s ->
        Buffer.add_string b ", \"s\": \"";
        Buffer.add_string b s;
        Buffer.add_char b '"')
      scope;
    (match args with
    | [] -> ()
    | _ ->
        Buffer.add_string b ", \"args\": {";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string b ", ";
            add_quoted b k;
            Buffer.add_string b ": ";
            add_arg b v)
          args;
        Buffer.add_char b '}');
    Buffer.add_char b '}';
    Buffer.contents b

  let emit ~name ~cat ~ph ~ts ?dur ?scope ?tid args =
    let line = render_event ~name ~cat ~ph ~ts ?dur ?scope ?tid args in
    Mutex.protect sink_mutex (fun () ->
        match !sink with
        | None -> ()
        | Some oc ->
            output_string oc line;
            output_string oc ",\n")

  (* Flush the sink channel without closing it: the stall/crash paths
     call this so a process that dies right after never leaves a
     half-buffered trace behind. *)
  let flush () =
    Mutex.protect sink_mutex (fun () ->
        match !sink with None -> () | Some oc -> Stdlib.flush oc)

  let span ?(cat = "oppsla") ?args name f =
    if not (Atomic.get active) then f ()
    else begin
      let t0 = Clock.now_us () in
      let finish () =
        let dur = Clock.now_us () -. t0 in
        let args = match args with None -> [] | Some a -> a () in
        emit ~name ~cat ~ph:"X" ~ts:t0 ~dur args
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          finish ();
          Printexc.raise_with_backtrace e bt
    end

  let instant ?(cat = "oppsla") ?args name =
    if Atomic.get active then
      let args = match args with None -> [] | Some a -> a () in
      emit ~name ~cat ~ph:"i" ~ts:(Clock.now_us ()) ~scope:"t" args

  let without f =
    let was = Atomic.get active in
    Atomic.set active false;
    Fun.protect ~finally:(fun () -> Atomic.set active was) f
end

(* Shared numeric formatting for reports and logs: bin, bench and the
   harness all render throughput/rates/footprints through these, so the
   renderings cannot drift apart. *)
module Fmt = struct
  let f1 v = Printf.sprintf "%.1f" v
  let f2 v = Printf.sprintf "%.2f" v
  let percent v = Printf.sprintf "%.1f%%" (100. *. v)
  let mb bytes = Printf.sprintf "%.1f" (float_of_int bytes /. 1048576.)
end
