(* Bench regression gate: compare a freshly produced bench JSON against
   a committed BENCH_* baseline and flag metrics that moved past a noise
   tolerance in the bad direction.  The BENCH files are written by
   bench/main.ml itself, so a tiny recursive-descent parser over that
   known-friendly JSON subset (no exponent-less edge cases we do not
   emit, flat-ish objects) keeps the gate dependency-free.

   How a metric may move comes from its leaf name: query totals and
   identity flags may not move at all, a signed observer overhead may
   not grow by more than an absolute bound, anything measured in seconds
   must not grow and anything measuring a rate/ratio win (speedup,
   images_per_sec, hit_rate) must not shrink.  Everything else is
   context and is not gated. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

(* Parser *)

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | '/' -> Buffer.add_char b '/'
              | 'n' -> Buffer.add_char b '\n'
              | 'r' -> Buffer.add_char b '\r'
              | 't' -> Buffer.add_char b '\t'
              | 'b' -> Buffer.add_char b '\b'
              | 'f' -> Buffer.add_char b '\012'
              | 'u' ->
                  (* Our own writer never emits multi-byte escapes for
                     anything we gate on; decode to '?' markers rather
                     than carrying a UTF-8 table. *)
                  if !pos + 4 > n then fail "truncated \\u escape";
                  pos := !pos + 4;
                  Buffer.add_char b '?'
              | _ -> fail "unknown escape");
              go ())
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some v -> Num v
    | None -> fail (Printf.sprintf "bad number %S" tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (elements [])
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  parse_json s

(* The baseline registry: every BENCH_*.json the bench suite writes and
   the repo commits.  A bench mode that gains a baseline file must be
   added here — the gates ([bench regress] and [tools/regress --smoke])
   resolve THIS list and fail by name on anything missing, instead of
   silently gating over whatever files happen to exist. *)
let registered_baselines = [ "BENCH_overhead.json"; "BENCH_synth.json" ]

exception Missing_baseline of string list

let locate_baselines () =
  let found, missing =
    List.fold_left
      (fun (found, missing) f ->
        (* Under `dune runtest` bench actions run in _build/default/bench/
           with the committed baselines staged one level up; direct
           invocations run at the repo root. *)
        if Sys.file_exists f then (f :: found, missing)
        else
          let up = Filename.concat Filename.parent_dir_name f in
          if Sys.file_exists up then (up :: found, missing)
          else (found, f :: missing))
      ([], []) registered_baselines
  in
  if missing <> [] then raise (Missing_baseline (List.rev missing));
  List.rev found

(* Flattening: every numeric or boolean leaf becomes
   ("path.to[2].leaf", value), booleans as 1/0. *)

let flatten (j : json) : (string * float) list =
  let acc = ref [] in
  let rec go prefix = function
    | Num v -> acc := (prefix, v) :: !acc
    | Bool b -> acc := (prefix, if b then 1. else 0.) :: !acc
    | Obj fields ->
        List.iter
          (fun (k, v) ->
            go (if prefix = "" then k else prefix ^ "." ^ k) v)
          fields
    | List items ->
        List.iteri (fun i v -> go (Printf.sprintf "%s[%d]" prefix i) v) items
    | Null | Str _ -> ()
  in
  go "" j;
  List.rev !acc

(* Direction policy, keyed on the leaf field name. *)

type direction = Exact | Overhead | Lower_better | Higher_better | Ungated

let leaf_of path =
  match String.rindex_opt path '.' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let contains ~sub s =
  let ls = String.length sub and n = String.length s in
  let rec at i = i + ls <= n && (String.sub s i ls = sub || at (i + 1)) in
  ls > 0 && at 0

let direction_of path =
  let leaf = leaf_of path in
  let ends_with suffix = String.ends_with ~suffix leaf in
  if
    ends_with "_queries"
    || leaf = "queries_metered"
    || leaf = "journal_records"
    || ends_with "_identical"
    || leaf = "records_match_charges"
  then Exact
  else if contains ~sub:"overhead_fraction" leaf then Overhead
  else if contains ~sub:"seconds" leaf then Lower_better
  else if
    contains ~sub:"speedup" leaf
    || contains ~sub:"images_per_sec" leaf
    || contains ~sub:"hit_rate" leaf
    || contains ~sub:"per_s" leaf
  then Higher_better
  else Ungated

(* Comparison *)

type finding = {
  metric : string;
  baseline : float;
  fresh : float;
  change : float;
      (* signed, + = grew: fresh - baseline for exact and overhead
         leaves, fractional for the rest *)
}

type report = {
  checked : int;  (* gated metrics present in both files *)
  regressions : finding list;
  improvements : finding list;  (* moved past tolerance the good way *)
  missing : string list;  (* gated in baseline, absent from fresh *)
}

let default_tolerance = 0.10

let overhead_bound = 0.03

(* Skip noisy metrics whose baseline magnitude is below this: per-layer
   microsecond timings jitter by whole multiples run to run and would
   make the gate cry wolf.  Exact and overhead leaves are never skipped:
   a zero count or a near-zero signed overhead is a real baseline. *)
let default_min_magnitude = 0.01

let compare_metrics ?(tolerance = default_tolerance)
    ?(min_magnitude = default_min_magnitude) ~baseline ~fresh () =
  let fresh_tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace fresh_tbl k v) fresh;
  let checked = ref 0 in
  let regressions = ref [] and improvements = ref [] and missing = ref [] in
  List.iter
    (fun (metric, b) ->
      match direction_of metric with
      | Ungated -> ()
      | (Lower_better | Higher_better) when Float.abs b < min_magnitude -> ()
      | dir -> (
          match Hashtbl.find_opt fresh_tbl metric with
          | None -> missing := metric :: !missing
          | Some f ->
              incr checked;
              let change =
                match dir with
                | Exact | Overhead -> f -. b
                | Lower_better | Higher_better | Ungated ->
                    (f -. b) /. Float.abs b
              in
              let finding = { metric; baseline = b; fresh = f; change } in
              let bad, good =
                match dir with
                | Exact -> (f <> b, false)
                | Overhead ->
                    (change > overhead_bound, change < -.overhead_bound)
                | Lower_better -> (change > tolerance, change < -.tolerance)
                | Higher_better -> (change < -.tolerance, change > tolerance)
                | Ungated -> (false, false)
              in
              if bad then regressions := finding :: !regressions
              else if good then improvements := finding :: !improvements))
    baseline;
  {
    checked = !checked;
    regressions = List.rev !regressions;
    improvements = List.rev !improvements;
    missing = List.rev !missing;
  }

let compare_files ?tolerance ?min_magnitude ~baseline ~fresh () =
  compare_metrics ?tolerance ?min_magnitude
    ~baseline:(flatten (parse_file baseline))
    ~fresh:(flatten (parse_file fresh))
    ()

let passed r = r.regressions = [] && r.missing = []

let render_finding f =
  match direction_of f.metric with
  | Exact ->
      Printf.sprintf "%s: %g -> %g (must not change)" f.metric f.baseline
        f.fresh
  | Overhead ->
      Printf.sprintf "%s: %g -> %g (%+.1f points)" f.metric f.baseline f.fresh
        (100. *. f.change)
  | Lower_better | Higher_better | Ungated ->
      Printf.sprintf "%s: %g -> %g (%+.1f%%)" f.metric f.baseline f.fresh
        (100. *. f.change)

let render ~label r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s: %d gated metric%s checked — %s\n" label r.checked
       (if r.checked = 1 then "" else "s")
       (if passed r then "PASS" else "REGRESSION"));
  List.iter
    (fun f -> Buffer.add_string b ("  regression  " ^ render_finding f ^ "\n"))
    r.regressions;
  List.iter
    (fun m -> Buffer.add_string b ("  missing     " ^ m ^ "\n"))
    r.missing;
  List.iter
    (fun f -> Buffer.add_string b ("  improvement " ^ render_finding f ^ "\n"))
    r.improvements;
  Buffer.contents b

(* Synthetic degradation for the gate's own smoke test: push every
   gated metric past its bound in the bad direction. *)
let degrade ?(factor = 1.2) metrics =
  List.map
    (fun (k, v) ->
      match direction_of k with
      | Exact -> (k, v -. 1.)
      | Overhead -> (k, v +. (2. *. overhead_bound))
      | Lower_better -> (k, v *. factor)
      | Higher_better -> (k, v /. factor)
      | Ungated -> (k, v))
    metrics
