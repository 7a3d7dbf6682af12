type key =
  | Clean
  | Corner of { row : int; col : int; corner : int }
  | Custom of string

let key_kind = function
  | Clean -> "clean"
  | Corner _ -> "corner"
  | Custom _ -> "custom"

(* Canonical string form, used as the journal's provenance key.  Custom
   keys pass through verbatim — the space layers already build them in
   a canonical "rgb:..."/"pairs:..."/"patch:..." format. *)
(* String concatenation, not Printf: this renders once per charged
   query when the provenance journal is open. *)
let key_to_string = function
  | Clean -> "clean"
  | Corner { row; col; corner } ->
      "corner:" ^ string_of_int row ^ "," ^ string_of_int col ^ ","
      ^ string_of_int corner
  | Custom s -> s

let equal_key a b =
  a == b
  ||
  match (a, b) with
  | Clean, Clean -> true
  | Corner a, Corner b -> a.row = b.row && a.col = b.col && a.corner = b.corner
  | Custom a, Custom b -> String.equal a b
  | (Clean | Corner _ | Custom _), _ -> false

(* The table's hash, with no polymorphic hash on the query path: for
   [Corner] keys the fields packed into one int, then multiplied by a
   large odd constant whose high bits are folded down, so the low bits
   the table indexes by depend on every field. *)
let hash_key = function
  | Clean -> 0
  | Corner { row; col; corner } ->
      let packed = (((row lsl 20) lxor col) lsl 3) lxor corner in
      let h = packed * 0x1e3779b97f4a7c15 in
      h lxor (h lsr 29)
  | Custom s -> Hashtbl.hash s

module Table = Hashtbl.Make (struct
  type t = key

  let equal = equal_key
  let hash = hash_key
end)

(* Process-wide mirrors of the per-instance counters below: each cache
   instance is owned by one domain (per-image ownership), but the
   consolidated telemetry view sums across all instances and domains,
   hence registry counters. *)
let m_hits = Telemetry.Metrics.counter "cache.hits"
let m_misses = Telemetry.Metrics.counter "cache.misses"

type t = {
  table : Tensor.t Table.t;
  mutable hits : int;
  mutable misses : int;
  mutable payload : int;  (* floats resident across all entries *)
}

type stats = { hits : int; misses : int; entries : int; bytes : int }

let create () = { table = Table.create 64; hits = 0; misses = 0; payload = 0 }

let count_hit (t : t) =
  t.hits <- t.hits + 1;
  Telemetry.Counter.incr m_hits

let store_miss (t : t) key s =
  t.misses <- t.misses + 1;
  Telemetry.Counter.incr m_misses;
  Table.replace t.table key s;
  t.payload <- t.payload + Tensor.numel s

let find_or_add t key ~compute =
  match Table.find t.table key with
  | s ->
      count_hit t;
      s
  | exception Not_found ->
      let s = compute () in
      store_miss t key s;
      s

let find t key = Table.find t.table key
let add t key s = if not (Table.mem t.table key) then store_miss t key s

(* Payload floats are 8 bytes each; ~64 bytes/entry covers the boxed
   tensor and the hashtable bucket.  An estimate is enough:
   the number is observability, not an allocator contract. *)
let entry_overhead = 64

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    entries = Table.length t.table;
    bytes = (t.payload * 8) + (Table.length t.table * entry_overhead);
  }

let zero_stats = { hits = 0; misses = 0; entries = 0; bytes = 0 }

let add_stats a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    entries = a.entries + b.entries;
    bytes = a.bytes + b.bytes;
  }

let hit_rate s =
  let looked = s.hits + s.misses in
  if looked = 0 then None
  else Some (float_of_int s.hits /. float_of_int looked)

type store = t array

let store n =
  if n < 0 then invalid_arg "Score_cache.store: negative size";
  Array.init n (fun _ -> create ())

let image_cache s i =
  if i < 0 || i >= Array.length s then
    invalid_arg
      (Printf.sprintf "Score_cache.image_cache: index %d outside [0, %d)" i
         (Array.length s));
  s.(i)

let store_size = Array.length
let store_stats s = Array.fold_left (fun acc c -> add_stats acc (stats c)) zero_stats s
