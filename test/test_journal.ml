(* Tests for the query-provenance journal and its offline auditor:
   the record round-trip property (parse after render is the
   identity), FNV-1a checksum golden values and tamper detection,
   file framing (header/footer/atomic finalize), the domain-local
   charge-site context, and journal comparison semantics.

   The journal sink is process-global, so every test in this binary
   that opens one closes it before returning (Fun.protect). *)

module J = Telemetry.Journal
module A = Evalharness.Audit

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let read_file = Helpers.read_file
let write_file = Helpers.write_file

(* {1 FNV-1a goldens}

   Published FNV-1a 64-bit test vectors, so the checksum the records
   carry is the real FNV-1a and not a lookalike. *)

let fnv_goldens () =
  let check input expected =
    Alcotest.(check string) (String.escaped input) expected (J.fnv64_hex input)
  in
  check "" "cbf29ce484222325";
  check "a" "af63dc4c8601ec8c";
  check "foobar" "85944171f73967e8"

(* {1 Record round-trip}

   parse_record (render_record r) = r for arbitrary field contents.
   Strings draw from printable ASCII plus the escaped trio (quote,
   backslash, newline): control characters below 0x20 render as
   [\u00xx], which the auditor's dependency-free parser decodes to a
   ['?'] marker rather than carrying a UTF-8 table — fine for an
   audit, not an identity. *)

let gen_field_char =
  QCheck.Gen.frequency
    [
      (12, QCheck.Gen.map Char.chr (QCheck.Gen.int_range 32 126));
      (1, QCheck.Gen.oneofl [ '"'; '\\'; '\n' ]);
    ]

let gen_field = QCheck.Gen.string_size ~gen:gen_field_char (QCheck.Gen.int_range 0 24)

let gen_record =
  QCheck.Gen.(
    gen_field >>= fun site ->
    gen_field >>= fun key ->
    gen_field >>= fun kind ->
    gen_field >>= fun mode ->
    gen_field >>= fun backend ->
    int_range 0 100_000 >>= fun seq ->
    int_range (-1) 5_000 >>= fun image ->
    bool >>= fun hit ->
    return
      { A.seq; site; image; key; kind; mode; hit; backend })

let print_record (r : A.record) =
  Printf.sprintf
    "{seq=%d; site=%S; image=%d; key=%S; kind=%S; mode=%S; hit=%b; \
     backend=%S}"
    r.A.seq r.A.site r.A.image r.A.key r.A.kind r.A.mode r.A.hit r.A.backend

let render (r : A.record) =
  J.render_record ~seq:r.A.seq ~site:r.A.site ~image:r.A.image ~key:r.A.key
    ~kind:r.A.kind ~mode:r.A.mode ~hit:r.A.hit ~backend:r.A.backend

let qcheck_round_trip =
  QCheck.Test.make ~name:"parse_record (render_record r) = r" ~count:300
    (QCheck.make ~print:print_record gen_record)
    (fun r ->
      let line = render r in
      A.verify_checksum line && A.parse_record line = r)

(* {1 Checksum tamper detection}

   Substituting any single character of the checksummed prefix must be
   caught: each FNV-1a step [h <- (h lxor c) * prime] is a bijection
   for fixed [c] (odd multiplier, xor), so a one-character change
   always reaches a different final hash — no lucky collisions for the
   property to trip over. *)

let qcheck_tamper_detected =
  QCheck.Test.make ~name:"one-byte tamper breaks the checksum" ~count:300
    QCheck.(
      pair (QCheck.make ~print:print_record gen_record) (int_range 0 10_000))
    (fun (r, pos_seed) ->
      let line = render r in
      (* Only the prefix before the fnv field (the last one) is
         checksummed; tampering anywhere in it must be detected. *)
      let limit =
        let marker = {|, "fnv": "|} in
        let rec find i =
          if i < 0 then
            QCheck.Test.fail_report "no fnv marker in rendered record"
          else if
            i + String.length marker <= String.length line
            && String.sub line i (String.length marker) = marker
          then i
          else find (i - 1)
        in
        find (String.length line - String.length marker)
      in
      let pos = pos_seed mod limit in
      let c = line.[pos] in
      let c' = if c = 'x' then 'y' else 'x' in
      let tampered = Bytes.of_string line in
      Bytes.set tampered pos c';
      let tampered = Bytes.to_string tampered in
      (not (A.verify_checksum tampered))
      &&
      match A.parse_record tampered with
      | _ -> false
      | exception A.Invalid _ -> true)

(* {1 File framing} *)

let with_temp_journal records f =
  let path = Filename.temp_file "oppsla_test_journal" ".jsonl" in
  J.set_run_id "test-journal";
  J.to_file path;
  Fun.protect ~finally:J.close (fun () ->
      List.iter
        (fun (site, image, key, kind, mode, hit, backend) ->
          J.with_site site (fun () ->
              J.with_image image (fun () ->
                  J.record ~key ~kind ~mode ~hit ~backend)))
        records);
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let sample_records =
  [
    ("sketch", 0, "pixel:1,2,3", "pixel", "score", false, "boxed");
    ("sketch", 0, "pixel:4,5,6", "pixel", "score", true, "boxed");
    ("islands/2", 1, "patch:0,0", "patch", "decision", false, "f32");
  ]

let file_round_trip () =
  with_temp_journal sample_records (fun path ->
      let j = A.load_strict path in
      Alcotest.(check string) "run id" "test-journal" j.A.run_id;
      Alcotest.(check int) "version" 2 j.A.version;
      Alcotest.(check bool) "complete" true j.A.complete;
      Alcotest.(check int) "record count" (List.length sample_records)
        (List.length j.A.records);
      List.iteri
        (fun i ((site, image, key, kind, mode, hit, backend), r) ->
          Alcotest.(check int) "seq is file order" i r.A.seq;
          Alcotest.(check string) "site" site r.A.site;
          Alcotest.(check int) "image" image r.A.image;
          Alcotest.(check string) "key" key r.A.key;
          Alcotest.(check string) "kind" kind r.A.kind;
          Alcotest.(check string) "mode" mode r.A.mode;
          Alcotest.(check bool) "hit" hit r.A.hit;
          Alcotest.(check string) "backend" backend r.A.backend)
        (List.combine sample_records j.A.records);
      (* Atomic finalize: no .tmp file survives a clean close. *)
      Alcotest.(check bool) "tmp gone" false (Sys.file_exists (path ^ ".tmp")))

let truncated_footer () =
  with_temp_journal sample_records (fun path ->
      let s = read_file path in
      let lines = String.split_on_char '\n' s in
      let without_footer =
        lines
        |> List.filter (fun l -> not (contains_sub ~sub:"journal_end" l))
        |> String.concat "\n"
      in
      write_file path without_footer;
      let j = A.load path in
      Alcotest.(check bool) "truncated journal loads as incomplete" false
        j.A.complete;
      Alcotest.(check int) "records still readable"
        (List.length sample_records)
        (List.length j.A.records);
      match A.load_strict path with
      | _ -> Alcotest.fail "load_strict accepted a footerless journal"
      | exception A.Invalid _ -> ())

(* Version 2 dropped version 1's ["chunk"] field, so a version-1 file
   is refused by its header rather than misread. *)
let version_1_refused () =
  with_temp_journal sample_records (fun path ->
      let s = read_file path in
      let nl = String.index s '\n' in
      write_file path
        ({|{"journal": "oppsla-query-journal", "version": 1, "run_id": "v1"}|}
        ^ String.sub s nl (String.length s - nl));
      match A.load path with
      | _ -> Alcotest.fail "auditor accepted a version-1 journal"
      | exception A.Invalid msg ->
          Alcotest.(check bool) "error names the version" true
            (contains_sub ~sub:"unsupported version 1" msg))

let tampered_file_rejected () =
  with_temp_journal sample_records (fun path ->
      let s = read_file path in
      (* Corrupt one byte inside the first record's key field. *)
      let i =
        match String.index_opt s '\n' with
        | Some nl -> (
            let marker = {|"key": "|} in
            let rec find j =
              if j + String.length marker > String.length s then
                Alcotest.fail "no key field found"
              else if String.sub s j (String.length marker) = marker then
                j + String.length marker
              else find (j + 1)
            in
            find nl)
        | None -> Alcotest.fail "journal has no header line"
      in
      let b = Bytes.of_string s in
      Bytes.set b i (if Bytes.get b i = 'Z' then 'Q' else 'Z');
      write_file path (Bytes.to_string b);
      match A.load path with
      | _ -> Alcotest.fail "auditor accepted a tampered record"
      | exception A.Invalid msg ->
          Alcotest.(check bool) "error names the checksum" true
            (contains_sub ~sub:"checksum" msg))

(* {1 Charge-site context} *)

let site_context () =
  Alcotest.(check string) "default is unattributed" "unattributed" (J.site ());
  J.with_site "outer" (fun () ->
      Alcotest.(check string) "with_site sets" "outer" (J.site ());
      J.with_default_site "inner" (fun () ->
          Alcotest.(check string) "default does not override" "outer"
            (J.site ()));
      J.with_site "forced" (fun () ->
          Alcotest.(check string) "with_site overrides" "forced" (J.site ())));
  J.with_default_site "fallback" (fun () ->
      Alcotest.(check string) "default fills unattributed" "fallback"
        (J.site ()));
  Alcotest.(check string) "context restored" "unattributed" (J.site ());
  Alcotest.(check int) "image default" (-1) (J.image ());
  J.with_image 9 (fun () ->
      Alcotest.(check int) "with_image sets" 9 (J.image ()));
  Alcotest.(check int) "image restored" (-1) (J.image ())

(* {1 Pooled runs keep the caller's site}

   Journal context is domain-local, so an attack a pool worker steals
   starts with an empty one.  The per-image loop captures the caller's
   site and re-applies it in the worker: every charge of a pooled
   Runner.run under [with_site "outer"] is tagged "outer", not the
   attacker's default site.  The attacks are slowed down so the worker
   wakes up in time to steal some of them — without steals the check
   would pass vacuously. *)

let pooled_runner_keeps_site () =
  let module Attackers = Evalharness.Attackers in
  let images = 16 and max_queries = 8 in
  let samples =
    Array.init images (fun i ->
        (Helpers.flat_image ~size:4 (0.2 +. (0.01 *. float_of_int i)), 0))
  in
  let slow =
    {
      Attackers.sparse_rs with
      Attackers.run =
        (fun g oracle ~goal ~max_queries ~batch ~image ~true_class ->
          Unix.sleepf 0.002;
          Attackers.sparse_rs.Attackers.run g oracle ~goal ~max_queries ~batch
            ~image ~true_class);
    }
  in
  let path = Filename.temp_file "oppsla_test_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let steals =
        Domain_pool.Pool.with_pool ~domains:2 (fun pool ->
            J.set_run_id "pooled-runner";
            J.to_file path;
            Fun.protect ~finally:J.close (fun () ->
                J.with_site "outer" (fun () ->
                    ignore
                      (Evalharness.Runner.run ~pool ~seed:1 ~max_queries slow
                         ~oracle_factory:(fun () ->
                           Helpers.mean_threshold_oracle ())
                         samples)));
            (Domain_pool.Pool.stats pool).Domain_pool.Pool.steals)
      in
      Alcotest.(check bool) "a worker stole some images" true (steals > 0);
      let j = A.load_strict path in
      Alcotest.(check int) "every attack spent its budget"
        (images * max_queries) (List.length j.A.records);
      List.iter
        (fun r ->
          Alcotest.(check string)
            (Printf.sprintf "record %d site" r.A.seq)
            "outer" r.A.site)
        j.A.records)

(* {1 Comparison semantics} *)

let journal_of records =
  {
    A.path = "<mem>";
    run_id = "t";
    version = 2;
    records;
    complete = true;
  }

let rec_ ~seq ~image ~key ?(hit = false) ?(backend = "boxed") () =
  {
    A.seq;
    site = "s";
    image;
    key;
    kind = "pixel";
    mode = "score";
    hit;
    backend;
  }

let comparison_ignores_metadata () =
  (* Same per-image charge identities; different seq interleaving, hit
     flags and backends — the auditor must call them identical. *)
  let left =
    journal_of
      [
        rec_ ~seq:0 ~image:0 ~key:"a" ();
        rec_ ~seq:1 ~image:1 ~key:"b" ();
        rec_ ~seq:2 ~image:0 ~key:"c" ();
      ]
  in
  let right =
    journal_of
      [
        rec_ ~seq:0 ~image:1 ~key:"b" ~hit:true ~backend:"f32" ();
        rec_ ~seq:1 ~image:0 ~key:"a" ~backend:"f32" ();
        rec_ ~seq:2 ~image:0 ~key:"c" ~hit:true ~backend:"f32" ();
      ]
  in
  let c = A.compare_journals left right in
  Alcotest.(check bool) "identical" true (A.identical c);
  Alcotest.(check int) "images" 2 c.A.images

let comparison_catches_divergence () =
  let left =
    journal_of [ rec_ ~seq:0 ~image:0 ~key:"a" (); rec_ ~seq:1 ~image:0 ~key:"b" () ]
  in
  let right =
    journal_of [ rec_ ~seq:0 ~image:0 ~key:"a" (); rec_ ~seq:1 ~image:0 ~key:"X" () ]
  in
  let c = A.compare_journals left right in
  Alcotest.(check bool) "not identical" false (A.identical c);
  (match c.A.mismatches with
  | [ m ] ->
      Alcotest.(check int) "image" 0 m.A.m_image;
      Alcotest.(check int) "index" 1 m.A.m_index
  | ms -> Alcotest.fail (Printf.sprintf "%d mismatches" (List.length ms)));
  (* A missing trailing record is also a mismatch, not a silent pass. *)
  let short = journal_of [ rec_ ~seq:0 ~image:0 ~key:"a" () ] in
  let c = A.compare_journals left short in
  Alcotest.(check bool) "shorter right diverges" false (A.identical c)

let suite =
  [
    Alcotest.test_case "fnv-1a goldens" `Quick fnv_goldens;
    QCheck_alcotest.to_alcotest qcheck_round_trip;
    QCheck_alcotest.to_alcotest qcheck_tamper_detected;
    Alcotest.test_case "file round-trip" `Quick file_round_trip;
    Alcotest.test_case "truncated footer" `Quick truncated_footer;
    Alcotest.test_case "version 1 refused" `Quick version_1_refused;
    Alcotest.test_case "tampered file rejected" `Quick tampered_file_rejected;
    Alcotest.test_case "charge-site context" `Quick site_context;
    Alcotest.test_case "pooled runner keeps the caller's site" `Quick
      pooled_runner_keeps_site;
    Alcotest.test_case "comparison ignores metadata" `Quick
      comparison_ignores_metadata;
    Alcotest.test_case "comparison catches divergence" `Quick
      comparison_catches_divergence;
  ]
