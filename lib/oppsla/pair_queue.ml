type t = {
  d1 : int;
  d2 : int;
  next : int array; (* -1 = none *)
  prev : int array;
  seq : int array;
  mutable next_seq : int;
  mutable head : int; (* -1 = empty *)
  mutable tail : int;
  mutable size : int;
  loc_corners : int array;
      (* per-location bitmask of enqueued corners: pair [id] is queued iff
         bit [id mod 8] of [loc_corners.(id / 8)] is set *)
}

let nil = -1
let queued q id = q.loc_corners.(id / 8) land (1 lsl (id mod 8)) <> 0

let create ~d1 ~d2 ~mask =
  let capacity = Pair.count ~d1 ~d2 in
  {
    d1;
    d2;
    next = Array.make capacity nil;
    prev = Array.make capacity nil;
    seq = Array.make capacity 0;
    next_seq = 0;
    head = nil;
    tail = nil;
    size = 0;
    loc_corners = Array.make (d1 * d2) mask;
  }

(* The one construction path.  On entry [q.prev.(pos)] is the id at
   position [pos] for [pos < len], [q.seq] maps each of those ids to its
   position, [loc_corners] is set and [next] is all [nil].
   Links [next] from the position table, then overwrites [prev] by
   walking the finished list. *)
let link q len =
  for pos = 0 to len - 2 do
    q.next.(q.prev.(pos)) <- q.prev.(pos + 1)
  done;
  if len > 0 then begin
    q.head <- q.prev.(0);
    q.tail <- q.prev.(len - 1)
  end;
  let rec walk before id =
    if id <> nil then begin
      q.prev.(id) <- before;
      walk id q.next.(id)
    end
  in
  walk nil q.head;
  q.size <- len;
  q.next_seq <- len;
  q

let init ~d1 ~d2 order =
  if d1 <= 0 || d2 <= 0 then invalid_arg "Pair_queue.init: empty image";
  let q = create ~d1 ~d2 ~mask:0 in
  let len =
    List.fold_left
      (fun pos (p : Pair.t) ->
        if not (Location.in_bounds ~d1 ~d2 p.loc) then
          invalid_arg
            (Printf.sprintf "Pair_queue.init: location %s out of bounds"
               (Location.to_string p.loc));
        let id = Pair.id ~d2 p in
        if queued q id then
          invalid_arg
            (Printf.sprintf "Pair_queue.init: duplicate pair %s"
               (Pair.to_string p));
        q.seq.(id) <- pos;
        q.prev.(pos) <- id;
        let li = Location.index ~d2 p.loc in
        q.loc_corners.(li) <- q.loc_corners.(li) lor (1 lsl p.corner);
        pos + 1)
      0 order
  in
  link q len

(* Position [k * n + j] holds the [k]-th farthest corner of the [j]-th
   location in center order, so one pass over the locations fills the
   position table: 8 corners ranked into a scratch, 8 table writes. *)
let full_space ~d1 ~d2 ~image =
  if d1 <= 0 || d2 <= 0 then invalid_arg "Pair_queue.full_space: empty image";
  let s = image.Tensor.shape in
  if Array.length s <> 3 || s.(0) <> 3 || s.(1) <> d1 || s.(2) <> d2 then
    invalid_arg
      (Printf.sprintf "Pair_queue.full_space: image is not 3x%dx%d" d1 d2);
  let q = create ~d1 ~d2 ~mask:0xff in
  let n = d1 * d2 and rank = Array.make 8 0 in
  let center = Location.center_order ~d1 ~d2 in
  for j = 0 to n - 1 do
    let li = center.(j) in
    Rgb.rank_corners image ~row:(li / d2) ~col:(li mod d2) rank;
    for k = 0 to 7 do
      let id = (li * 8) + rank.(k) and pos = (k * n) + j in
      q.seq.(id) <- pos;
      q.prev.(pos) <- id
    done
  done;
  link q (8 * n)

let detach q id =
  let p = q.prev.(id) and n = q.next.(id) in
  if p = nil then q.head <- n else q.next.(p) <- n;
  if n = nil then q.tail <- p else q.prev.(n) <- p;
  q.size <- q.size - 1;
  let li = id / 8 and corner = id mod 8 in
  q.loc_corners.(li) <- q.loc_corners.(li) land lnot (1 lsl corner)

let attach_back q id =
  q.seq.(id) <- q.next_seq;
  q.next_seq <- q.next_seq + 1;
  q.prev.(id) <- q.tail;
  q.next.(id) <- nil;
  if q.tail = nil then q.head <- id else q.next.(q.tail) <- id;
  q.tail <- id;
  q.size <- q.size + 1;
  let li = id / 8 and corner = id mod 8 in
  q.loc_corners.(li) <- q.loc_corners.(li) lor (1 lsl corner)

let pop q =
  let id = q.head in
  if id <> nil then detach q id;
  id

let require_member q id op =
  if id < 0 || id >= Array.length q.next || not (queued q id) then
    invalid_arg
      (Printf.sprintf "Pair_queue.%s: pair id %d not in queue" op id)

let push_back q id =
  require_member q id "push_back";
  detach q id;
  attach_back q id

let remove q id =
  require_member q id "remove";
  detach q id

let mem q id = id >= 0 && id < Array.length q.next && queued q id

let first_with_location q li =
  if li < 0 || li >= q.d1 * q.d2 then nil
  else begin
    let mask = q.loc_corners.(li) in
    (* The queue order equals ascending [seq] order (see the interface
       comment), so the front-most member corner minimizes [seq]. *)
    let best = ref nil in
    for corner = 0 to 7 do
      if mask land (1 lsl corner) <> 0 then begin
        let id = (li * 8) + corner in
        if !best = nil || q.seq.(id) < q.seq.(!best) then best := id
      end
    done;
    !best
  end

(* Row-major over the 3x3 block around the location, centre skipped:
   the order of [Location.neighbors]. *)
let iter_neighbors q id f =
  let li = id / 8 and corner = id mod 8 in
  let row = li / q.d2 and col = li mod q.d2 in
  for r = row - 1 to row + 1 do
    if r >= 0 && r < q.d1 then
      for c = col - 1 to col + 1 do
        if c >= 0 && c < q.d2 && (r <> row || c <> col) then begin
          let n = (((r * q.d2) + c) * 8) + corner in
          if queued q n then f n
        end
      done
  done

let length q = q.size
let is_empty q = q.size = 0

let to_list q =
  let rec walk id acc =
    if id = nil then List.rev acc
    else walk q.next.(id) (Pair.of_id ~d2:q.d2 id :: acc)
  in
  walk q.head []
