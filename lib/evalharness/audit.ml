(* Offline journal auditor.  The journal is the charge sequence made
   durable; this module is the proof procedure over it — checksum every
   record, check the framing, and compare two journals' charge
   identities per image.  Parsing reuses the dependency-free JSON reader
   the bench regression gate already carries (Regress.parse_json): a
   journal line is exactly the JSON subset it handles. *)

type record = {
  seq : int;
  site : string;
  image : int;
  key : string;
  kind : string;
  mode : string;
  hit : bool;
  backend : string;
}

type journal = {
  path : string;
  run_id : string;
  version : int;
  records : record list;
  complete : bool;
}

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

(* ----- checksum ----- *)

let fnv_marker = ", \"fnv\": \""

let find_sub s sub =
  let n = String.length s and ls = String.length sub in
  let rec at i =
    if i + ls > n then None
    else if String.sub s i ls = sub then Some i
    else at (i + 1)
  in
  at 0

let verify_checksum line =
  match find_sub line fnv_marker with
  | None -> false
  | Some i ->
      let body = String.sub line 0 i in
      let rest = i + String.length fnv_marker in
      (* 16 hex digits, then the record's closing quote and brace. *)
      String.length line >= rest + 16
      && String.sub line rest 16 = Telemetry.Journal.fnv64_hex body

(* ----- field access over parsed JSON ----- *)

let field obj name =
  match obj with
  | Regress.Obj fields -> List.assoc_opt name fields
  | _ -> None

let str_field line obj name =
  match field obj name with
  | Some (Regress.Str s) -> s
  | _ -> invalid "record missing string field %S: %s" name line

let int_field line obj name =
  match field obj name with
  | Some (Regress.Num v) -> int_of_float v
  | _ -> invalid "record missing numeric field %S: %s" name line

let bool_field line obj name =
  match field obj name with
  | Some (Regress.Bool b) -> b
  | _ -> invalid "record missing boolean field %S: %s" name line

let parse_record line =
  if not (verify_checksum line) then
    invalid "checksum mismatch (corrupt record): %s" line;
  let obj =
    try Regress.parse_json line
    with Regress.Parse_error m -> invalid "unparseable record (%s): %s" m line
  in
  {
    seq = int_field line obj "seq";
    site = str_field line obj "site";
    image = int_field line obj "image";
    key = str_field line obj "key";
    kind = str_field line obj "kind";
    mode = str_field line obj "mode";
    hit = bool_field line obj "hit";
    backend = str_field line obj "backend";
  }

(* A footer cut mid-line is as torn as a cut record line. *)
let parse_footer line =
  match Regress.parse_json line with
  | obj -> int_field line obj "records"
  | exception Regress.Parse_error m ->
      invalid "unparseable footer (%s): %s" m line

(* ----- file loading ----- *)

let read_lines path =
  let ic =
    try open_in_bin path with Sys_error m -> invalid "cannot open %s" m
  in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let load path =
  match read_lines path with
  | [] -> invalid "%s: empty journal" path
  | header_line :: rest ->
      let header =
        try Regress.parse_json header_line
        with Regress.Parse_error m ->
          invalid "%s: unparseable header (%s)" path m
      in
      (match field header "journal" with
      | Some (Regress.Str "oppsla-query-journal") -> ()
      | _ -> invalid "%s: not a query journal (bad header)" path);
      let version = int_field header_line header "version" in
      if version <> 2 then invalid "%s: unsupported version %d" path version;
      let run_id = str_field header_line header "run_id" in
      let records = ref [] and footer_count = ref None in
      List.iteri
        (fun lineno line ->
          let at_line f =
            try f () with Invalid m -> invalid "%s:%d: %s" path (lineno + 2) m
          in
          if line = "" then ()
          else if !footer_count <> None then
            invalid "%s:%d: content after footer" path (lineno + 2)
          else if starts_with ~prefix:"{\"journal_end\"" line then
            footer_count := Some (at_line (fun () -> parse_footer line))
          else records := at_line (fun () -> parse_record line) :: !records)
        rest;
      let records = List.rev !records in
      let complete =
        match !footer_count with
        | Some n -> n = List.length records
        | None -> false
      in
      { path; run_id; version; records; complete }

let load_strict path =
  let j = load path in
  if not j.complete then
    invalid "%s: journal incomplete (missing or inconsistent footer)" path;
  j

(* ----- comparison ----- *)

type mismatch = {
  m_image : int;
  m_index : int;
  m_left : string option;
  m_right : string option;
}

type comparison = {
  left_total : int;
  right_total : int;
  images : int;
  mismatches : mismatch list;
}

let max_mismatches = 20

let identity r = Printf.sprintf "(%s, %s, %s)" r.key r.kind r.mode

(* Per-image charge sequences, ordered by seq within each image: the
   writer's global file order can interleave domains, but each image's
   own charges carry strictly increasing seqs from its one worker. *)
let by_image j =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let prev = try Hashtbl.find tbl r.image with Not_found -> [] in
      Hashtbl.replace tbl r.image (r :: prev))
    j.records;
  Hashtbl.fold
    (fun image rev acc ->
      let sorted =
        List.sort (fun a b -> compare a.seq b.seq) (List.rev rev)
      in
      (image, sorted) :: acc)
    tbl []
  |> List.sort compare

let compare_journals left right =
  let lg = by_image left and rg = by_image right in
  let images =
    List.sort_uniq compare (List.map fst lg @ List.map fst rg)
  in
  let mismatches = ref [] and count = ref 0 in
  let note m_image m_index m_left m_right =
    incr count;
    if !count <= max_mismatches then
      mismatches := { m_image; m_index; m_left; m_right } :: !mismatches
  in
  List.iter
    (fun image ->
      let l = try List.assoc image lg with Not_found -> [] in
      let r = try List.assoc image rg with Not_found -> [] in
      let rec walk i l r =
        match (l, r) with
        | [], [] -> ()
        | a :: l', [] ->
            note image i (Some (identity a)) None;
            walk (i + 1) l' []
        | [], b :: r' ->
            note image i None (Some (identity b));
            walk (i + 1) [] r'
        | a :: l', b :: r' ->
            if not (a.key = b.key && a.kind = b.kind && a.mode = b.mode) then
              note image i (Some (identity a)) (Some (identity b));
            walk (i + 1) l' r'
      in
      walk 0 l r)
    images;
  {
    left_total = List.length left.records;
    right_total = List.length right.records;
    images = List.length images;
    mismatches = List.rev !mismatches;
  }

let identical c =
  c.left_total = c.right_total && c.mismatches = []

let render ~left ~right c =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "audit: %s (%d records) vs %s (%d records), %d image%s — %s\n"
       left c.left_total right c.right_total c.images
       (if c.images = 1 then "" else "s")
       (if identical c then "IDENTICAL" else "DIVERGED"));
  List.iter
    (fun m ->
      let show = function Some s -> s | None -> "<absent>" in
      Buffer.add_string b
        (Printf.sprintf "  image %d, charge %d: %s vs %s\n" m.m_image m.m_index
           (show m.m_left) (show m.m_right)))
    c.mismatches;
  Buffer.contents b
