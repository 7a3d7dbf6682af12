(** Zero-dependency metrics and tracing for the attack pipeline.

    OPPSLA's objective is a measured quantity — queries per attack — so
    the pipeline needs visibility into how queries and wall-clock are
    spent, per stage, not just end-of-run averages.  This module is the
    one observability substrate every layer shares:

    - {!Metrics}: a process-wide, domain-safe registry of named
      {!Counter}s, {!Gauge}s and fixed-bucket {!Histogram}s.  All
      mutation is lock-free ([Atomic]); registration (rare) takes a
      mutex.  Metrics are always on — one atomic add per event — and
      dumpable as JSON ([--metrics FILE]).
    - {!Trace}: span tracing against a monotonic clock, emitting Chrome
      trace-event–format JSONL ([--trace FILE]) viewable in
      [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.  The
      default sink is the null sink: with tracing disabled every span
      costs exactly one atomic load and branch, and instrumented code is
      observably inert — query counts, success flags and synthesizer
      traces are bit-identical with tracing on or off
      ([test/diff_runner.ml --trace on|off] enforces this).

    The library sits below every other layer (it depends only on [unix])
    so tensor kernels, the oracle, the domain pool and the synthesizer
    can all instrument through it without dependency cycles. *)

(** {1 Clock} *)

module Clock : sig
  val now_us : unit -> float
  (** Microseconds since process start.  Monotonic by construction: the
      raw wall clock is clamped so consecutive reads never decrease,
      even across domains (a shared atomic high-water mark). *)

  val now_int_us : unit -> int
  (** Whole microseconds since process start on the same epoch as
      {!now_us}, read from the raw wall clock (not clamped) as an
      unboxed integer: no allocation and no shared write, for stamps
      taken on every query ({!Watchdog.beat_queries}). *)
end

(** {1 Metric handles}

    Handles are obtained from the {!Metrics} registry and are safe to
    share across domains. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int

  val reset : t -> unit
  (** Zero the counter (benchmark brackets and tests only). *)
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val get : t -> float
end

module Histogram : sig
  type t

  type snapshot = {
    uppers : float array;  (** inclusive upper bounds, ascending *)
    counts : int array;  (** per-bucket counts, same length as [uppers] *)
    overflow : int;  (** observations above the last bound *)
    count : int;  (** total observations *)
    sum : float;  (** sum of observed values *)
  }

  val observe : t -> float -> unit
  (** Record one observation into the first bucket whose upper bound is
      [>=] the value (the overflow bucket if none is).  Lock-free; the
      invariant [sum of counts + overflow = count] holds at every
      quiescent point and is property-tested. *)

  val snapshot : t -> snapshot
  val reset : t -> unit

  val quantile : t -> float -> float
  (** [quantile t q] is the bucket-interpolated [q]-quantile (q in
      [0, 1]) of the recorded distribution: linear interpolation inside
      the first bucket whose cumulative count reaches [q * count], with
      the first bucket's lower edge taken as 0.  Values recorded above
      the last bound clamp to that bound (the registry keeps no exact
      values past it), and an empty histogram yields [nan].  Raises
      [Invalid_argument] if [q] is outside [0, 1]. *)

  val quantile_of_snapshot : snapshot -> float -> float
  (** Same, over an already-taken {!snapshot}. *)
end

(** {1 The registry} *)

module Metrics : sig
  val counter : ?labels:(string * string) list -> string -> Counter.t
  (** Register (or fetch, if already registered) the counter named
      [name].  Raises [Invalid_argument] if the name is registered as a
      different metric kind.

      [labels] attaches low-cardinality dimensions (backend, oracle
      mode, space, island): the registry key becomes
      [name{k="v",...}] with keys sorted and values escaped (backslash,
      double quote and newline), so the same (name, labels) pair always
      resolves to the same handle and each label combination is its own
      entry in {!dump_json}.  Callers on hot paths must cache the
      handle — registration takes the registry mutex. *)

  val gauge : ?labels:(string * string) list -> string -> Gauge.t

  val histogram :
    ?buckets:float array -> ?labels:(string * string) list -> string ->
    Histogram.t
  (** [buckets] are inclusive upper bounds, strictly ascending (default
      {!default_buckets}); ignored when the histogram already exists.
      Raises [Invalid_argument] on an empty or non-ascending array, or
      on a kind clash. *)

  val default_buckets : float array
  (** Powers of two from 1 to 4096 — sized for query counts. *)

  val time_buckets : float array
  (** Decade-spaced seconds from 10us to 100s — sized for span-shaped
      durations observed as histogram values. *)

  val dump_json : unit -> string
  (** All registered metrics as one JSON object, names sorted, shaped
      [{"counters": {...}, "gauges": {...}, "histograms": {...}}].
      Histograms carry their bucket bounds, per-bucket counts, overflow,
      total count and sum. *)

  val write_json : string -> unit
  (** [dump_json] to a file. *)

  val reset : unit -> unit
  (** Zero every registered metric (handles stay valid).  For benchmark
      A/B brackets and tests; never called on production paths. *)
end

(** {1 Tracing} *)

module Trace : sig
  type arg = Int of int | Float of float | Bool of bool | Str of string

  val enabled : unit -> bool
  (** One atomic load.  Instrumentation may use this to skip building
      dynamic span metadata on the disabled path. *)

  val to_file : string -> unit
  (** Open [path] as the trace sink and enable tracing.  The file is a
      Chrome trace-event JSON array written one event per line (JSONL
      body), loadable by [chrome://tracing] and Perfetto.  Raises
      [Invalid_argument] if tracing is already active. *)

  val close : unit -> unit
  (** Terminate the JSON array, close the sink and disable tracing.
      Idempotent; a later {!to_file} may start a fresh trace. *)

  val span : ?cat:string -> ?args:(unit -> (string * arg) list) -> string -> (unit -> 'a) -> 'a
  (** [span name f] runs [f] and, when tracing is enabled, emits one
      complete ("ph":"X") event covering [f]'s execution on the calling
      domain's track.  [args] is evaluated {e after} [f] returns (or
      raises), so it may read state the body just updated; it is never
      evaluated on the disabled path, which costs one branch.  Never
      alters [f]'s result or exception. *)

  val instant : ?cat:string -> ?args:(unit -> (string * arg) list) -> string -> unit
  (** A zero-duration event ("ph":"i", thread scope) — point-in-time
      markers such as one Metropolis-Hastings iteration's outcome. *)

  val without : (unit -> 'a) -> 'a
  (** Run [f] with tracing temporarily disabled (the differential
      checker computes its untraced reference this way without closing
      the sink). *)

  val flush : unit -> unit
  (** Flush the open sink without closing it.  The stall/crash paths
      call this so an aborting process never leaves a half-buffered
      trace behind; a no-op when tracing is off. *)

  val current_path : unit -> string option
  (** Path of the open trace sink, [None] when tracing is off.  The
      post-mortem writer copies the tail of the live trace through
      this. *)
end

(** {1 Shared numeric formatting}

    One formatter for every surface that renders telemetry — [Report]'s
    tables, the workbench log lines, the bench harness — so the
    renderings of the same quantity cannot drift apart. *)

module Fmt : sig
  val f1 : float -> string
  (** One decimal: ["12.3"]. *)

  val f2 : float -> string
  (** Two decimals: ["12.34"]. *)

  val percent : float -> string
  (** [0.59 -> "59.0%"]. *)

  val mb : int -> string
  (** Bytes as one-decimal megabytes: [1048576 -> "1.0"]. *)
end

(** {1 Stall watchdog}

    Long-running loops (the attack sketch, the baselines' searches, the
    synthesizer's MH chain) register a named heartbeat slot and [beat]
    it as they make progress.  The {!Sampler} flags loops that are
    active but have stopped beating (and, under [--stall-timeout],
    aborts the run with a post-mortem bundle).
    Beats are a few atomic stores — observation-only by construction. *)

module Watchdog : sig
  type t
  (** One named loop's heartbeat slot; safe to share across domains
      (parallel evaluation beats one slot from many workers). *)

  val loop : string -> t
  (** Register (or fetch) the slot named [name]. *)

  val enter : t -> unit
  (** Mark one entry into the loop (counts concurrent entries). *)

  val leave : t -> unit

  val with_loop : t -> (unit -> 'a) -> 'a
  (** [enter]/[leave] bracket, exception-safe. *)

  val beat : ?image:int -> ?iteration:int -> ?queries:int -> t -> unit
  (** Record progress: refresh the slot's last-beat time and, when
      given, the loop's current image index / iteration / queries
      spent (last-writer-wins across domains). *)

  val beat_queries : t -> int -> unit
  (** [beat_queries t q] is [beat ~queries:q t] without optional
      arguments: the per-query form (the sketch, Sparse-RS and SuOPA
      beat once per metered query).  It allocates nothing, whatever is
      observed: the last-beat time is stored as {!Clock.now_int_us}, an
      immediate. *)

  type status = {
    name : string;
    active : int;  (** concurrent entries right now *)
    beats : int;  (** lifetime beat count *)
    idle_s : float;  (** seconds since the last beat (or entry) *)
    image : int option;
    iteration : int option;
    queries : int option;
  }

  val snapshot : ?now_us:float -> unit -> status list
  (** All slots, name-sorted.  [now_us] (a {!Clock.now_us} value)
      pins the idle computation for deterministic tests. *)

  val stalled : ?now_us:float -> stall_after_s:float -> unit -> status list
  (** Slots that are active but have not beaten for more than
      [stall_after_s] seconds.  Inactive slots never stall. *)

  val reset : unit -> unit
  (** Forget every slot (tests only). *)
end

(** {1 Runtime-events profiler}

    Live GC profiling over OCaml 5's [Runtime_events] ring, consumed
    from a dedicated systhread of the spawning domain (never a domain
    of its own: a parked observer domain drags every stop-the-world
    minor collection through a cross-domain barrier).  Pauses are
    folded into the registry as labeled families —
    [gc.pause_seconds{domain,gc}] histograms,
    [gc.minor_{promoted,allocated}_words{domain}] counters,
    [gc.domain_{spawns,terminations}.total] — and, when a trace is
    open, emitted as Chrome-trace complete events on the paused
    domain's track (clock-calibrated against {!Clock.now_us} via a user
    event written before each poll), so GC pauses line up under
    application spans in Perfetto.  A post-mortem bundle's [gc.json]
    reads the pause families through {!summary}, so it shows whether a
    stall was GC with or without a trace.  Observation-only: query
    counts and success flags are bit-identical with the profiler on
    ([test/diff_runner.ml --profile on] and [bench profile] both
    enforce this). *)

module Profiler : sig
  type t

  val start : ?interval_s:float -> unit -> t
  (** Start the runtime-events ring (resuming it if a previous profiler
      paused it), open a self-process cursor and spawn the polling
      systhread ([interval_s] defaults to 25ms; the ring buffers
      between polls, and dropped events on overflow are counted in
      [profiler.lost_events.total]).  Raises [Invalid_argument] if a
      profiler is already running (the ring is process-wide). *)

  val stop : t -> unit
  (** Join the poller, drain the ring one final time, free the cursor
      and pause event collection (so a bare benchmark arm sees zero
      residual overhead).  Idempotent. *)

  val running : unit -> bool

  val active_seconds : unit -> float
  (** Wall seconds the profiler has been attached (the
      [profiler.active_seconds] gauge) — the denominator for
      %-time-in-GC. *)

  type gc_stat = {
    domain : int;  (** runtime-events ring id of the paused domain *)
    kind : string;  (** ["minor"] or ["major"] *)
    pauses : int;
    total_s : float;
    p50_s : float;
    p99_s : float;
  }

  val summary : unit -> gc_stat list
  (** Per-(domain, kind) pause summary rebuilt from the registry's
      [gc.pause_seconds] families (empty when the profiler never ran),
      usable from any thread, after {!stop}, and inside the
      post-mortem writer. *)
end

(** {1 Background sampler} *)

module Sampler : sig
  type config = {
    interval_s : float;
    snapshot_path : string option;
        (** append one JSONL registry snapshot per tick *)
    stall_after_s : float;  (** watchdog threshold *)
    abort_on_stall : bool;  (** exit 3 when a loop first stalls *)
  }

  val default : config
  (** 1s interval, no snapshot file, 30s stall threshold, no abort. *)

  type t

  val start : config -> t
  (** Spawn the sampling thread — a systhread of the calling domain,
      never a pool worker and never a separate domain (a parked
      observer domain would drag every stop-the-world minor collection
      through a cross-domain barrier).  Each tick folds
      process gauges into the registry — [process.uptime_seconds],
      [process.cpu_{user,system}_seconds], [process.heap_mb],
      [process.{minor,major}_collections], [process.minor_words],
      [oracle.query_rate_per_s] — plus [watchdog.active_loops] /
      [watchdog.stalled_loops] gauges, the [sampler.samples] counter,
      and a [watchdog.stalls] counter + trace instant on each fresh
      stall.  Guaranteed to take at least one sample before {!stop}
      returns.  Observation-only: atomic loads and process syscalls;
      never touches RNG, metering or cache state. *)

  val sample_now : t -> unit
  (** Take one tick synchronously (deterministic tests). *)

  val timed_ticks : unit -> int
  (** Ticks, over every sampler this process ran, that woke on their
      deadline: the count of the [sampler.tick_jitter_seconds]
      histogram.  Unlike [sampler.samples] it excludes the start-up
      sample, {!sample_now} and {!stop}'s final tick, so it grows only
      when the periodic loop runs. *)

  val await_timed_tick : after:int -> timeout_s:float -> bool
  (** Poll every 5 ms until {!timed_ticks} exceeds [after]; [false] if
      [timeout_s] seconds pass first.  Lets a run shorter than one
      interval wait for the loop's first deadline before {!stop}. *)

  val stop : t -> unit
  (** Interrupt the sleep, join the thread, take a final tick and close
      the snapshot file.  Idempotent. *)
end

(** {1 Query-provenance journal}

    Records every {e charged} oracle query as one checksummed JSONL
    record at the metering point, so the charge sequence — the
    bit-identity every optimization layer must preserve — persists as
    an offline-auditable artifact ([tools/audit.exe] diffs two
    journals).  See [journal.ml] for the file format. *)

module Journal : sig
  val enabled : unit -> bool
  (** One atomic load; nothing else runs when no sink is open. *)

  val to_file : string -> unit
  (** Open [path ^ ".tmp"] as the journal sink, write the versioned
      header and start recording.  {!close} finalizes atomically by
      renaming onto [path].  Raises [Invalid_argument] if a journal is
      already active. *)

  val close : unit -> unit
  (** Append the footer (record count), close the sink and rename the
      [.tmp] file onto the final path.  Idempotent. *)

  val flush : unit -> unit
  (** Flush the open sink without closing it (stall/crash paths). *)

  val run_id : unit -> string
  val set_run_id : string -> unit

  val current_path : unit -> string option
  (** Where journal bytes currently live: the [.tmp] file while the
      sink is open, [None] otherwise. *)

  val record :
    key:string -> kind:string -> mode:string -> hit:bool ->
    backend:string -> unit
  (** Emit one charge record (no-op when disabled).  Called at the
      oracle's one metering point ([Oracle.charge], called by
      [Batcher.query]), which every charged query passes through.
      [hit] is true when the cache answered the query and false when
      the batcher forwarded it; site and image come from the
      domain-local context below. *)

  val with_site : string -> (unit -> 'a) -> 'a
  (** Tag charges issued by [f] (on this domain) with a charge site. *)

  val with_default_site : string -> (unit -> 'a) -> 'a
  (** Like {!with_site} but only when no site is currently set: the
      sketch executor also runs under the synthesizer and the island
      chains, whose outer tags take precedence. *)

  val with_image : int -> (unit -> 'a) -> 'a
  (** Tag charges issued by [f] (on this domain) with an image index. *)

  val site : unit -> string
  (** The current domain's charge-site tag ("unattributed" outside any
      {!with_site}); evaluators capture it before fanning work out to
      pool workers, whose domain-local context starts empty. *)

  val image : unit -> int

  val tail : unit -> string list
  (** The last few record lines, oldest first, from memory (post-mortem
      bundles survive lost channel buffers this way). *)

  val render_record :
    seq:int -> site:string -> image:int -> key:string -> kind:string ->
    mode:string -> hit:bool -> backend:string -> string
  (** Render one record line exactly as the sink writes it (checksummed;
      exposed for the round-trip property tests and the auditor). *)

  val fnv64_hex : string -> string
  (** FNV-1a 64-bit hash as 16 lowercase hex digits — the record
      checksum function, shared with the offline auditor. *)
end

(** {1 Post-mortem bundles} *)

module Postmortem : sig
  val dump : ?dir:string -> reason:string -> unit -> string option
  (** Write the post-mortem bundle
      ([<dir>/postmortem-<runid>/]: [info.json], [registry.json],
      [journal_tail.jsonl], [gc.json], [trace_tail.jsonl]) and return
      its directory.  [info.json] lists every {!Watchdog} slot with its
      [active] count, idle time, beats and last image, iteration and
      queries, so a loop an exception has already left still says what
      it was doing.  At most one bundle per process (the first fatal
      event wins — [None] thereafter); never raises.  [dir] defaults to
      ["_artifacts"]. *)

  val note_checkpoint : string -> unit
  (** Register the most recent synthesis checkpoint file so the bundle
      names the resume point. *)

  val reset : unit -> unit
  (** Allow a fresh dump in this process (tests only). *)
end

(** {1 CLI observability bracket} *)

module Obs : sig
  type config = {
    trace : string option;  (** [--trace FILE] *)
    metrics : string option;  (** [--metrics FILE] *)
    snapshot : string option;  (** [--snapshot FILE] *)
    snapshot_interval_s : float;  (** [--snapshot-interval SEC] *)
    stall_timeout_s : float option;  (** [--stall-timeout SEC] *)
    journal : string option;  (** [--journal FILE] *)
    run_id : string option;  (** [--run-id ID] *)
    profile : bool;  (** [--profile]: attach the runtime profiler *)
  }

  val default : config
  val active : config -> bool

  type t

  val start : config -> t
  (** Set the run id, install the crash handler (post-mortem bundle on
      uncaught exception), open the journal and trace sinks, start the
      sampler (when a snapshot file or stall timeout asks for one;
      [stall_timeout_s] makes stalls abort the process with exit 3
      after dumping the bundle), and the runtime profiler ([profile]).
      Nothing here renders per span or per query: without a trace
      sink a span still costs one atomic load, and a heartbeat stays a
      few atomic stores. *)

  val stop : t -> unit
  (** Stop sampler then profiler, close the trace and journal (atomic
      finalize), write [--metrics]. *)

  val with_observability : config -> (unit -> 'a) -> 'a
  (** [start]/[stop] bracket, exception-safe; a no-op (beyond calling
      the function) when {!active} is false. *)
end
