(* In-place candidate slots over one base image.  A slot is a copy of
   the base, made on its first use; it records the locations it last
   wrote, and [take] writes the base's pixels back at exactly those
   locations before handing the slot out again, so a slot built from a
   candidate equals the fresh copy of that candidate.  Slots are taken
   round-robin; [rewind] restarts the cycle at slot 0, so between
   rewinds [width] candidates hold distinct slots. *)

type slot = {
  x : Tensor.t;
  mutable written : int array; (* location indices, [0, n) valid *)
  mutable n : int;
}

type t = {
  base : Tensor.t;
  d1 : int;
  d2 : int;
  plane : int;
  slots : slot option array;
  mutable next : int;
}

let create ~width base =
  if width < 1 then invalid_arg "Arena.create: width < 1";
  let s = Tensor.shape base in
  if Array.length s <> 3 || s.(0) <> 3 then
    invalid_arg "Arena.create: not a CHW image with 3 channels";
  {
    base;
    d1 = s.(1);
    d2 = s.(2);
    plane = s.(1) * s.(2);
    slots = Array.make width None;
    next = 0;
  }

let rewind a = a.next <- 0

let take a =
  let i = a.next in
  a.next <- (if i + 1 = Array.length a.slots then 0 else i + 1);
  match a.slots.(i) with
  | Some s ->
      let src = a.base.Tensor.data and dst = s.x.Tensor.data in
      let p = a.plane in
      for k = 0 to s.n - 1 do
        let li = s.written.(k) in
        dst.(li) <- src.(li);
        dst.(li + p) <- src.(li + p);
        dst.(li + (2 * p)) <- src.(li + (2 * p))
      done;
      s.n <- 0;
      s
  | None ->
      let s = { x = Tensor.copy a.base; written = Array.make 1 0; n = 0 } in
      a.slots.(i) <- Some s;
      s

(* Write pixel [c] of [s] at location index [li] and record it.  The
   colour stays in its float record, so no float is boxed on the way. *)
let put a s li (c : Rgb.t) =
  if s.n = Array.length s.written then begin
    let w = Array.make (2 * s.n) 0 in
    Array.blit s.written 0 w 0 s.n;
    s.written <- w
  end;
  s.written.(s.n) <- li;
  s.n <- s.n + 1;
  let d = s.x.Tensor.data and p = a.plane in
  d.(li) <- c.r;
  d.(li + p) <- c.g;
  d.(li + (2 * p)) <- c.b

let check a fn ~row ~col =
  if row < 0 || row >= a.d1 || col < 0 || col >= a.d2 then
    invalid_arg
      (Printf.sprintf "Arena.%s: pixel (%d, %d) outside a %dx%d image" fn row
         col a.d1 a.d2)

let corner a id =
  let li = id / 8 in
  if id < 0 || li >= a.plane then
    invalid_arg (Printf.sprintf "Arena.corner: pair id %d out of range" id);
  let s = take a in
  put a s li Rgb.corners.(id mod 8);
  s.x

let pixel a ~row ~col (c : Rgb.t) =
  check a "pixel" ~row ~col;
  let s = take a in
  put a s ((row * a.d2) + col) c;
  s.x

let pixels a pairs =
  let s = take a in
  List.iter
    (fun (pair : Pair.t) ->
      let row = pair.loc.Location.row and col = pair.loc.Location.col in
      check a "pixels" ~row ~col;
      put a s ((row * a.d2) + col) Rgb.corners.(pair.corner))
    pairs;
  s.x

let patch a ~(anchor : Location.t) ~h ~w ~corner =
  let row0 = anchor.row and col0 = anchor.col in
  if row0 < 0 || col0 < 0 || row0 + h > a.d1 || col0 + w > a.d2 then
    invalid_arg
      (Printf.sprintf "Arena.patch: %dx%d patch at (%d, %d) leaves %dx%d" h w
         row0 col0 a.d1 a.d2);
  let s = take a and c = Rgb.corner corner in
  for row = row0 to row0 + h - 1 do
    for col = col0 to col0 + w - 1 do
      put a s ((row * a.d2) + col) c
    done
  done;
  s.x
