(* Query-provenance journal: one JSONL record per *charged* oracle
   query, written at the one metering point (Oracle.charge) so the
   journal is exactly the charge sequence — the
   quantity every optimization layer (pool, cache, batcher, islands, f32
   backend) must leave bit-identical.

   File format (one JSON object per line):

     header   {"journal": "oppsla-query-journal", "version": 2,
               "run_id": "..."}
     record   {"seq": 17, "site": "sketch", "image": 3,
               "key": "corner:1,2,0", "kind": "corner", "mode": "score",
               "hit": false, "backend": "boxed",
               "fnv": "<16 hex digits>"}
     footer   {"journal_end": true, "records": 123}

   Every record carries an FNV-1a (64-bit) checksum of the line body up
   to (excluding) the [, "fnv"] field, so offline audit detects any
   bit-level corruption.  The sink writes [path ^ ".tmp"] and renames on
   [close] — a finalized journal is atomic-or-absent, and a crashed run
   leaves a diagnosable [.tmp] instead of a half-file posing as a
   complete journal.

   Version 1 records carried a ["chunk"] field as well; the auditor
   refuses version 1 rather than misread it.

   Charge identity vs provenance: [seq], [site], [hit] and [backend]
   are provenance metadata — they legitimately differ across
   cache/backend configurations and across domain interleavings.
   The comparable identity of a charge is (image, in-image order, key,
   kind, mode); the offline auditor (Evalharness.Audit) compares exactly
   that, per image, because each image's queries are issued sequentially
   by the one worker attacking it even when images run in parallel.

   Hot-path contract: with no sink open, [enabled] is one atomic load
   and nothing else runs.  With a sink open, a record is one
   fetch-and-add plus one buffered, mutex-serialized line write. *)

(* ----- FNV-1a, 64-bit -----

   Computed in two 32-bit halves over native ints: Int64 arithmetic
   boxes every intermediate on the non-flambda compiler, and this runs
   over ~150 bytes per charged query.  With h = hi * 2^32 + lo and the
   FNV prime p = 0x100 * 2^32 + 0x1b3, one step is
     lo' = lo lxor byte
     h * p mod 2^64 = lo' * 0x1b3                          (low part)
                    + 2^32 * (lo' * 0x100 + hi * 0x1b3)    (cross terms)
   and every intermediate stays under 2^42 — comfortably inside a
   native 63-bit int. *)

let fnv_offset_hi = 0xcbf29ce4
let fnv_offset_lo = 0x84222325

let fnv64_parts s =
  let hi = ref fnv_offset_hi and lo = ref fnv_offset_lo in
  for i = 0 to String.length s - 1 do
    let l = !lo lxor Char.code (String.unsafe_get s i) in
    let pl = l * 0x1b3 in
    lo := pl land 0xFFFFFFFF;
    hi := ((l * 0x100) + (!hi * 0x1b3) + (pl lsr 32)) land 0xFFFFFFFF
  done;
  (!hi, !lo)

let hex_digits = "0123456789abcdef"

let add_hex32 b v =
  for i = 7 downto 0 do
    Buffer.add_char b hex_digits.[(v lsr (i * 4)) land 0xf]
  done

let fnv64_hex s =
  let hi, lo = fnv64_parts s in
  let b = Buffer.create 16 in
  add_hex32 b hi;
  add_hex32 b lo;
  Buffer.contents b

(* ----- charge-site / image context (per-domain) -----

   The site tag and image index travel in domain-local storage: the
   attack entry points (sketch, the baselines, the synthesizer, the
   island chains) set the site, the evaluators set the image, and the
   metering point deep below reads both without any parameter threading
   through the oracle API. *)

let unattributed = "unattributed"
let site_key = Domain.DLS.new_key (fun () -> unattributed)
let image_key = Domain.DLS.new_key (fun () -> -1)

let site () = Domain.DLS.get site_key
let image () = Domain.DLS.get image_key

let with_site s f =
  let old = Domain.DLS.get site_key in
  Domain.DLS.set site_key s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set site_key old) f

(* Set the site only when nothing above already claimed it: the sketch
   executor also runs under the synthesizer and the island chains, and
   those outer sites are the ones the provenance record should name. *)
let with_default_site s f =
  if Domain.DLS.get site_key = unattributed then with_site s f else f ()

let with_image i f =
  let old = Domain.DLS.get image_key in
  Domain.DLS.set image_key i;
  Fun.protect ~finally:(fun () -> Domain.DLS.set image_key old) f

(* ----- record rendering ----- *)

(* Buffer-built (Printf interprets its format string on every call,
   which is measurable at one record per charged query); the checksum
   runs over the buffered body before the fnv field is appended. *)
let render_record ~seq ~site ~image ~key ~kind ~mode ~hit ~backend =
  let esc = Core.Metrics.json_escape in
  let b = Buffer.create 192 in
  Buffer.add_string b "{\"seq\": ";
  Buffer.add_string b (string_of_int seq);
  Buffer.add_string b ", \"site\": \"";
  Buffer.add_string b (esc site);
  Buffer.add_string b "\", \"image\": ";
  Buffer.add_string b (string_of_int image);
  Buffer.add_string b ", \"key\": \"";
  Buffer.add_string b (esc key);
  Buffer.add_string b "\", \"kind\": \"";
  Buffer.add_string b (esc kind);
  Buffer.add_string b "\", \"mode\": \"";
  Buffer.add_string b (esc mode);
  Buffer.add_string b "\", \"hit\": ";
  Buffer.add_string b (if hit then "true" else "false");
  Buffer.add_string b ", \"backend\": \"";
  Buffer.add_string b (esc backend);
  Buffer.add_char b '\"';
  let hi, lo = fnv64_parts (Buffer.contents b) in
  Buffer.add_string b ", \"fnv\": \"";
  add_hex32 b hi;
  add_hex32 b lo;
  Buffer.add_string b "\"}";
  Buffer.contents b

(* ----- global sink ----- *)

let format_name = "oppsla-query-journal"
let format_version = 2

let active = Atomic.make false
let seq = Atomic.make 0
let sink : out_channel option ref = ref None
let sink_mutex = Mutex.create ()
let final_path = ref None
let records_written = ref 0 (* under sink_mutex *)
let run_id_ref = ref (Printf.sprintf "run-%d" (Unix.getpid ()))

let enabled () = Atomic.get active
let run_id () = !run_id_ref
let set_run_id id = run_id_ref := id
let tmp_path path = path ^ ".tmp"

(* In-memory tail of the last few record lines, independent of channel
   buffering: the post-mortem bundle dumps this, so a crashed run's
   bundle always carries the most recent charges even if the sink's
   buffer was lost. *)
let tail_cap = 64
let tail_lines = Array.make tail_cap ""
let tail_cursor = ref 0 (* under sink_mutex *)

let tail () =
  Mutex.protect sink_mutex (fun () ->
      let c = !tail_cursor in
      let out = ref [] in
      for i = c - 1 downto max 0 (c - tail_cap) do
        out := tail_lines.(i mod tail_cap) :: !out
      done;
      !out)

let header () =
  Printf.sprintf "{\"journal\": \"%s\", \"version\": %d, \"run_id\": \"%s\"}"
    format_name format_version
    (Core.Metrics.json_escape !run_id_ref)

(* Every critical section holds [sink_mutex] through [Mutex.protect],
   so a raising open, write, close or rename (a bad path, a full disk)
   releases the lock instead of wedging every later journal call. *)
let to_file path =
  Mutex.protect sink_mutex (fun () ->
      match !sink with
      | Some _ -> invalid_arg "Telemetry.Journal.to_file: journal already active"
      | None ->
          let oc = open_out (tmp_path path) in
          output_string oc (header ());
          output_char oc '\n';
          sink := Some oc;
          final_path := Some path;
          records_written := 0;
          tail_cursor := 0;
          Array.fill tail_lines 0 tail_cap "";
          Atomic.set seq 0;
          Atomic.set active true)

let close () =
  Mutex.protect sink_mutex (fun () ->
      Atomic.set active false;
      match (!sink, !final_path) with
      | Some oc, Some path ->
          sink := None;
          final_path := None;
          output_string oc
            (Printf.sprintf "{\"journal_end\": true, \"records\": %d}\n"
               !records_written);
          close_out oc;
          Sys.rename (tmp_path path) path
      | _ -> ())

let flush () =
  Mutex.protect sink_mutex (fun () ->
      match !sink with None -> () | Some oc -> Stdlib.flush oc)

(* The path where journal bytes currently live: the .tmp file while the
   sink is open (post-mortem diagnostics), the final path after close. *)
let current_path () =
  Mutex.protect sink_mutex (fun () ->
      match (!sink, !final_path) with
      | Some _, Some path -> Some (tmp_path path)
      | _ -> None)

let record ~key ~kind ~mode ~hit ~backend =
  if Atomic.get active then begin
    let n = Atomic.fetch_and_add seq 1 in
    let line =
      render_record ~seq:n ~site:(site ()) ~image:(image ()) ~key ~kind ~mode
        ~hit ~backend
    in
    Mutex.protect sink_mutex (fun () ->
        match !sink with
        | None -> ()
        | Some oc ->
            output_string oc line;
            output_char oc '\n';
            incr records_written;
            tail_lines.(!tail_cursor mod tail_cap) <- line;
            incr tail_cursor)
  end
