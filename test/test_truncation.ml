(* One truncation property for the three file readers: a file cut at any
   byte either reads or raises the reader's documented exception — never
   a stray [Parse_error], [Failure] or [Not_found] from inside the
   parser.  The readers are the islands checkpoint
   ([Islands.checkpoint_info], [Checkpoint_error]), the query journal
   ([Audit.load], [Invalid]) and the trace analyzer
   ([Traceprof.parse_file], which is tolerant and never raises on a
   torn tail). *)

module J = Telemetry.Journal

(* dune runs the suite from its own directory; a manual `dune exec` from
   the repo root finds the committed files one level down. *)
let committed name =
  if Sys.file_exists name then name else Filename.concat "test" name

(* A journal of [n] records written through the Journal API. *)
let journal_bytes n =
  let path = Filename.temp_file "oppsla_truncation" ".jsonl" in
  J.set_run_id "truncation";
  J.to_file path;
  Fun.protect ~finally:J.close (fun () ->
      for i = 0 to n - 1 do
        J.with_site "sketch" (fun () ->
            J.with_image (i mod 3) (fun () ->
                J.record
                  ~key:(Printf.sprintf "corner:%d,%d,%d" (i mod 4) (i / 4) (i mod 8))
                  ~kind:"corner" ~mode:"score" ~hit:(i mod 2 = 0)
                  ~backend:"boxed"))
      done);
  let s = Helpers.read_file path in
  Sys.remove path;
  s

(* Feed every prefix of [bytes], the whole file included, to [read];
   [documented] says whether an exception is the reader's own. *)
let every_prefix ~name ~documented ~read bytes =
  let path = Filename.temp_file "oppsla_truncation" ".prefix" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      for len = 0 to String.length bytes do
        Helpers.write_file path (String.sub bytes 0 len);
        match read path with
        | () -> ()
        | exception e when documented e -> ()
        | exception e ->
            Alcotest.failf "%s cut at %d of %d bytes raised %s" name len
              (String.length bytes) (Printexc.to_string e)
      done;
      Helpers.write_file path bytes;
      read path)

let every_prefix_reads_or_raises_its_own () =
  every_prefix ~name:"islands checkpoint"
    ~documented:(function Oppsla.Islands.Checkpoint_error _ -> true | _ -> false)
    ~read:(fun p -> ignore (Oppsla.Islands.checkpoint_info p))
    (Helpers.read_file (committed "islands_golden_v1.ckpt"));
  every_prefix ~name:"query journal"
    ~documented:(function Evalharness.Audit.Invalid _ -> true | _ -> false)
    ~read:(fun p -> ignore (Evalharness.Audit.load p))
    (journal_bytes 31);
  every_prefix ~name:"trace"
    ~documented:(fun _ -> false)
    ~read:(fun p -> ignore (Evalharness.Traceprof.parse_file p))
    (Helpers.read_file (committed "traceprof_golden_v1.trace"))

let suite =
  [
    Alcotest.test_case "every prefix reads or raises its own exception"
      `Quick every_prefix_reads_or_raises_its_own;
  ]
