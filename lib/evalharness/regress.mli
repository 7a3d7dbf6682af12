(** Bench regression gate.

    Compares freshly produced bench JSON against the committed
    [BENCH_*.json] baselines and reports gated metrics that moved the
    wrong way.  The policy is derived from the leaf field name:
    - {b exact}: query totals ([*_queries], [queries_metered],
      [journal_records]) and identity flags ([*_identical],
      [records_match_charges]) — any change fails;
    - {b overhead}: [*overhead_fraction*] is a signed fraction near
      zero, compared by absolute difference — fails when fresh exceeds
      baseline by more than {!overhead_bound};
    - {b noisy}: [*seconds*] must not grow and [*speedup*],
      [*images_per_sec*], [*hit_rate*] and [*per_s*] must not shrink by
      more than the relative tolerance; noisy baselines with magnitude
      under [min_magnitude] are skipped — sub-centisecond per-layer
      timings jitter by whole multiples between runs;
    - every other field (other counts, notes) is context and is not
      gated.

    Used by [bench regress] and the [tools/regress] CLI, both of which
    exit nonzero when {!passed} is false. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

val parse_json : string -> json
(** Parse the JSON subset our bench writer emits.  Raises
    {!Parse_error} with an offset on malformed input. *)

val parse_file : string -> json

val registered_baselines : string list
(** The canonical committed-baseline set, one [BENCH_*.json] per bench
    mode that writes one.  Bench modes register here; the gates resolve
    this list rather than globbing, so a missing committed file is a
    loud named failure instead of a silent skip. *)

exception Missing_baseline of string list
(** Raised by {!locate_baselines} with every registered baseline that
    could not be found. *)

val locate_baselines : unit -> string list
(** Resolve {!registered_baselines} against the current directory, then
    one level up (the [dune runtest] staging layout).  Returns the
    resolved paths in registry order; raises {!Missing_baseline} naming
    the absentees if any registered file is found in neither place. *)

val flatten : json -> (string * float) list
(** Every numeric or boolean leaf (booleans as 1/0) as a dotted/indexed
    path: [{"runs": [{"s": 1.5}]}] yields [[("runs[0].s", 1.5)]]. *)

type direction =
  | Exact  (** any change fails *)
  | Overhead  (** may not grow by more than {!overhead_bound} *)
  | Lower_better
  | Higher_better
  | Ungated

val direction_of : string -> direction
(** The gate policy for a flattened metric path (keyed on its leaf). *)

type finding = {
  metric : string;
  baseline : float;
  fresh : float;
  change : float;
      (** signed change, positive = grew: [fresh - baseline] for exact
          and overhead leaves, fractional for noisy ones *)
}

type report = {
  checked : int;  (** gated metrics present in both files *)
  regressions : finding list;
  improvements : finding list;
      (** moved past tolerance in the good direction (informational) *)
  missing : string list;  (** gated in the baseline, absent fresh *)
}

val default_tolerance : float
(** 0.10 — tolerates 10% run-to-run noise on noisy leaves while
    catching a 20% slide. *)

val overhead_bound : float
(** 0.03 — the absolute growth an [overhead_fraction] leaf may show. *)

val default_min_magnitude : float

val compare_metrics :
  ?tolerance:float ->
  ?min_magnitude:float ->
  baseline:(string * float) list ->
  fresh:(string * float) list ->
  unit ->
  report

val compare_files :
  ?tolerance:float ->
  ?min_magnitude:float ->
  baseline:string ->
  fresh:string ->
  unit ->
  report

val passed : report -> bool
(** No regressions and no missing gated metrics. *)

val render : label:string -> report -> string
(** Human-readable verdict block (one line per finding). *)

val degrade : ?factor:float -> (string * float) list -> (string * float) list
(** Push every gated metric past its bound in the bad direction — the
    synthetic failure the gate's smoke test must catch: noisy leaves by
    [factor] (default 1.2), overhead leaves by twice
    {!overhead_bound}, exact leaves down by one (a true flag flips to
    false). *)
