(* Offline journal audit CLI.

     audit LEFT.jsonl RIGHT.jsonl   compare charge sequences; exit 0 iff
                                    bit-identical, 1 on divergence
     audit --verify FILE            validate framing + checksums only
     audit --smoke                  self-test: a journal written through
                                    the Journal API must load, self-compare
                                    identical, diverge against a differing
                                    journal, and FAIL to load after a
                                    single-byte corruption or a cut
                                    inside its footer

   The comparison is the offline form of the metering invariant: two
   runs of the same attack under different optimization configurations
   (domains, cache, backend) must produce per-image
   charge sequences that match record for record. *)

let usage () =
  prerr_endline
    "usage: audit LEFT.jsonl RIGHT.jsonl | audit --verify FILE | audit --smoke";
  exit 2

let verify path =
  match Evalharness.Audit.load_strict path with
  | j ->
      Printf.printf "%s: OK — run %s, %d records, footer consistent\n" path
        j.Evalharness.Audit.run_id
        (List.length j.Evalharness.Audit.records);
      0
  | exception Evalharness.Audit.Invalid m ->
      Printf.printf "%s: INVALID — %s\n" path m;
      1

let compare_files left right =
  try
    let l = Evalharness.Audit.load_strict left in
    let r = Evalharness.Audit.load_strict right in
    let c = Evalharness.Audit.compare_journals l r in
    print_string (Evalharness.Audit.render ~left ~right c);
    if Evalharness.Audit.identical c then 0 else 1
  with Evalharness.Audit.Invalid m ->
    Printf.printf "audit: INVALID — %s\n" m;
    1

(* ----- smoke ----- *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let write_journal path records =
  Telemetry.Journal.set_run_id "audit-smoke";
  Telemetry.Journal.to_file path;
  List.iter
    (fun (site, image, key, kind) ->
      Telemetry.Journal.with_site site @@ fun () ->
      Telemetry.Journal.with_image image @@ fun () ->
      Telemetry.Journal.record ~key ~kind ~mode:"score" ~hit:false
        ~backend:"boxed")
    records;
  Telemetry.Journal.close ()

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let smoke () =
  let dir = Filename.temp_file "audit-smoke" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let a = Filename.concat dir "a.jsonl" in
  let b = Filename.concat dir "b.jsonl" in
  let c = Filename.concat dir "c.jsonl" in
  let base =
    [
      ("sketch", 0, "corner:0,0,0", "corner");
      ("sketch", 0, "corner:0,1,3", "corner");
      ("sketch", 1, "corner:5,5,7", "corner");
    ]
  in
  write_journal a base;
  write_journal b base;
  (* Same charge sequence, different provenance-bearing interleaving is
     exercised by the diff-runner cells; here the two writes are
     literally identical and must self-compare IDENTICAL. *)
  let ja = Evalharness.Audit.load_strict a in
  let jb = Evalharness.Audit.load_strict b in
  if not Evalharness.Audit.(identical (compare_journals ja jb)) then
    fail "identical journals compared as diverged";
  (* A differing charge must be detected. *)
  write_journal c
    [
      ("sketch", 0, "corner:0,0,0", "corner");
      ("sketch", 0, "corner:9,9,1", "corner");
      ("sketch", 1, "corner:5,5,7", "corner");
    ];
  let jc = Evalharness.Audit.load_strict c in
  let cmp = Evalharness.Audit.compare_journals ja jc in
  if Evalharness.Audit.identical cmp then
    fail "diverging journals compared as identical";
  if not (List.exists (fun m -> m.Evalharness.Audit.m_image = 0) cmp.mismatches)
  then fail "divergence not attributed to image 0";
  (* Single-byte corruption inside a record body must break that
     record's checksum and fail the load. *)
  let body = read_file a in
  let target =
    (* Flip a character of the first record's key, well past the header
       line. *)
    match String.index_from_opt body (String.index body '\n' + 1) ':' with
    | Some i -> i + 1
    | None -> fail "smoke journal has no record to corrupt"
  in
  let corrupted = Bytes.of_string body in
  Bytes.set corrupted target
    (if Bytes.get corrupted target = '0' then '1' else '0');
  write_file a (Bytes.to_string corrupted);
  (match Evalharness.Audit.load_strict a with
  | _ -> fail "corrupted journal loaded cleanly (checksum not enforced)"
  | exception Evalharness.Audit.Invalid _ -> ());
  (* A journal cut inside its footer line is torn like a cut record:
     the strict load (the --verify path) must report it INVALID. *)
  let body = read_file b in
  let footer =
    match String.rindex_from_opt body (String.length body - 2) '\n' with
    | Some i -> i + 1
    | None -> fail "smoke journal has no footer line"
  in
  write_file b (String.sub body 0 (footer + 20));
  (match Evalharness.Audit.load_strict b with
  | _ -> fail "journal cut inside its footer loaded cleanly"
  | exception Evalharness.Audit.Invalid _ -> ());
  List.iter Sys.remove [ a; b; c ];
  Unix.rmdir dir;
  print_endline
    "audit --smoke: OK (round-trip, divergence, corruption, torn footer)";
  0

let () =
  exit
    (match Array.to_list Sys.argv with
    | [ _; "--smoke" ] -> smoke ()
    | [ _; "--verify"; file ] -> verify file
    | [ _; left; right ] -> compare_files left right
    | _ -> usage ())
