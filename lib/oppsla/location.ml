type t = { row : int; col : int }

let make ~row ~col = { row; col }

let linf_distance a b =
  max (abs (a.row - b.row)) (abs (a.col - b.col))

let center_distance ~d1 ~d2 l =
  let cr = float_of_int (d1 - 1) /. 2. and cc = float_of_int (d2 - 1) /. 2. in
  Float.max
    (Float.abs (float_of_int l.row -. cr))
    (Float.abs (float_of_int l.col -. cc))

let in_bounds ~d1 ~d2 l = l.row >= 0 && l.row < d1 && l.col >= 0 && l.col < d2

let neighbors ~d1 ~d2 l =
  let out = ref [] in
  for dr = 1 downto -1 do
    for dc = 1 downto -1 do
      if dr <> 0 || dc <> 0 then begin
        let n = { row = l.row + dr; col = l.col + dc } in
        if in_bounds ~d1 ~d2 n then out := n :: !out
      end
    done
  done;
  !out

let all ~d1 ~d2 =
  List.concat
    (List.init d1 (fun row -> List.init d2 (fun col -> { row; col })))

let index ~d2 l = (l.row * d2) + l.col
let of_index ~d2 i = { row = i / d2; col = i mod d2 }

(* Twice [center_distance], an integer in [0, max d1 d2): the sort key
   of the center order.  A stable counting sort over row-major indices
   on it is exactly the comparison sort by ([center_distance], index). *)
let build_center_order ~d1 ~d2 =
  let key row col =
    let a = abs ((2 * row) - (d1 - 1)) and b = abs ((2 * col) - (d2 - 1)) in
    if a > b then a else b
  in
  let start = Array.make ((if d1 > d2 then d1 else d2) + 1) 0 in
  for row = 0 to d1 - 1 do
    for col = 0 to d2 - 1 do
      let k = key row col + 1 in
      start.(k) <- start.(k) + 1
    done
  done;
  for k = 1 to Array.length start - 1 do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let order = Array.make (d1 * d2) 0 in
  for row = 0 to d1 - 1 do
    for col = 0 to d2 - 1 do
      let k = key row col in
      order.(start.(k)) <- (row * d2) + col;
      start.(k) <- start.(k) + 1
    done
  done;
  order

let per_geometry build =
  let tables = Hashtbl.create 4 and lock = Mutex.create () in
  fun ~d1 ~d2 ->
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt tables (d1, d2) with
        | Some t -> t
        | None ->
            let t = build ~d1 ~d2 in
            Hashtbl.replace tables (d1, d2) t;
            t)

let center_order = per_geometry build_center_order

let by_center_distance ~d1 ~d2 =
  Array.map (of_index ~d2) (center_order ~d1 ~d2)

let patch_cells ~anchor ~h ~w =
  List.concat
    (List.init h (fun dr ->
         List.init w (fun dc ->
             { row = anchor.row + dr; col = anchor.col + dc })))

let patch_anchors ~d1 ~d2 ~h ~w =
  if h < 1 || w < 1 || h > d1 || w > d2 then []
  else
    List.concat
      (List.init
         (d1 - h + 1)
         (fun row -> List.init (d2 - w + 1) (fun col -> { row; col })))

let equal a b = a.row = b.row && a.col = b.col
let pp fmt l = Format.fprintf fmt "(%d, %d)" l.row l.col
let to_string l = Format.asprintf "%a" pp l
