(** Offline auditor for query-provenance journals.

    Loads the JSONL journals written by {!Telemetry.Journal}, verifies
    the per-record FNV-1a checksums and the header/footer framing, and
    proves two journals charge-sequence *bit-identical*: for every
    image, the ordered sequence of charge identities
    [(key, kind, mode)] must match record for record.

    Provenance metadata — [seq], [site], [hit], [backend] —
    is deliberately excluded from the identity: those fields
    legitimately differ across cache/backend configurations and
    domain interleavings, while the charge sequence itself must not.
    Comparison is grouped per image (sorted by [seq] within a group)
    because each image's queries are issued sequentially by the one
    worker attacking it even when images run in parallel. *)

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
  records : record list;  (** in file order *)
  complete : bool;
      (** footer present and its record count matches the body *)
}

exception Invalid of string
(** Raised by {!load} and {!parse_record} on malformed framing, an
    unparseable record or footer (a file cut at any byte), or a checksum
    mismatch; the message names the file/line. *)

val verify_checksum : string -> bool
(** Recompute the FNV-1a checksum over the line body and compare it to
    the embedded ["fnv"] field.  False on mismatch or missing field. *)

val parse_record : string -> record
(** Parse one record line, verifying its checksum first. *)

val load : string -> journal
(** Load and validate a journal file: header framing and version,
    every record line's checksum, footer count (when present — a
    missing footer yields [complete = false] rather than an error, so
    crash-truncated [.tmp] journals remain inspectable). *)

val load_strict : string -> journal
(** {!load}, but a missing/inconsistent footer is an {!Invalid} error. *)

type mismatch = {
  m_image : int;
  m_index : int;  (** position in the image's charge sequence *)
  m_left : string option;  (** rendered identity; [None] = absent *)
  m_right : string option;
}

type comparison = {
  left_total : int;
  right_total : int;
  images : int;  (** distinct image groups seen across both journals *)
  mismatches : mismatch list;  (** first {!max_mismatches} only *)
}

val max_mismatches : int

val compare_journals : journal -> journal -> comparison

val identical : comparison -> bool
(** True iff the charge sequences are bit-identical: same total count
    and no per-image mismatch. *)

val render : left:string -> right:string -> comparison -> string
(** Human-readable verdict block. *)
