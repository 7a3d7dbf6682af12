(** Offline analytics over the Chrome-trace JSONL that [--trace FILE]
    writes: parse the artifact back, rebuild the span nesting per
    track, and answer "where did the wall-clock go" — per-span-name
    self/total times, a critical-path decomposition that follows
    [pool.map] fan-outs onto the busiest worker track, and
    folded-stack output for flamegraph.pl / speedscope.  Behind
    [tools/traceprof.exe] and the [bench profile] live-attribution
    check. *)

type event = {
  name : string;
  cat : string;
  ph : string;  (** ["X"] complete, ["i"] instant, ... *)
  ts : float;  (** microseconds *)
  dur : float;  (** microseconds; 0 when the event carries none *)
  tid : int;  (** track (domain) id *)
}

type parsed = {
  events : event list;  (** file order *)
  skipped : int;  (** undecodable lines — truncated tail, noise *)
}

val parse_string : string -> parsed
(** Tolerant line-by-line parse of a trace file body: array framing
    and the comma-absorbing terminator are skipped, events may arrive
    in any order (domains interleave), and lines that do not decode
    (a crashed writer's half-written tail) are counted in [skipped]
    rather than failing the parse. *)

val parse_file : string -> parsed

(** {1 Span forests} *)

type span = {
  sname : string;
  scat : string;
  sts : float;  (** start, microseconds *)
  sdur : float;
  stid : int;
  children : span list;  (** start-ordered *)
}

type track = {
  tid : int;
  roots : span list;  (** start-ordered top-level spans *)
  busy_us : float;  (** sum of root durations *)
}

(** {1 Analysis} *)

type span_stat = {
  stat_name : string;
  count : int;
  total_us : float;
      (** summed durations; recursive re-entries are not re-counted,
          so one name's total cannot exceed wall-clock *)
  self_us : float;  (** durations minus children, clipped *)
}

type analysis = {
  tracks : track list;  (** tid-ascending *)
  stats : span_stat list;  (** self-time descending *)
  folded : (string * float) list;
      (** ["domainK;a;b" -> self us], descending — flamegraph frames *)
  wall_us : float;  (** trace extent over complete events *)
  attributed_us : float;  (** busy time of the busiest track *)
  coverage : float;  (** attributed / wall; 0 for an empty trace *)
  skipped : int;
}

val analyze : parsed -> analysis
(** Rebuild each track's span forest (events sorted by start, ties
    longest-first; an event starting before the stack top ends is its
    child; child contributions are clipped into the parent so
    calibrated GC events protruding a microsecond past a span edge
    cannot produce negative self time) and aggregate. *)

(** {1 Critical path} *)

type critical_step = { step : string; us : float; fraction : float }

type critical = {
  root_name : string;
  root_us : float;
  root_tid : int;
  steps : critical_step list;  (** us-descending; sums to [root_us] *)
}

val critical_path : analysis -> critical option
(** Decompose the longest top-level span's wall-clock into named
    steps: children recurse, a [pool.map] interval jumps to the busiest
    worker track inside it (the uncovered remainder — fan-out overhead
    plus worker idle — stays charged to the [pool.map] span), and each
    span's uncovered time is its own.
    [None] when the trace has no complete spans. *)

(** {1 Rendering} *)

val folded_lines : analysis -> string list
(** One ["frame;frame;frame <self-us>"] line per stack, flamegraph.pl
    and speedscope compatible (integer microsecond counts). *)

val render_stats : ?top:int -> analysis -> string
(** Top-N self-time attribution table (default 20 rows). *)

val render_critical : critical -> string
val render_summary : analysis -> string
