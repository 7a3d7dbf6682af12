type t = { r : float; g : float; b : float }

let corners =
  Array.init 8 (fun k ->
      {
        r = (if k land 4 <> 0 then 1. else 0.);
        g = (if k land 2 <> 0 then 1. else 0.);
        b = (if k land 1 <> 0 then 1. else 0.);
      })

let corner k =
  if k < 0 || k >= 8 then invalid_arg "Rgb.corner: index out of [0, 8)";
  corners.(k)

let equal a b = a.r = b.r && a.g = b.g && a.b = b.b

let corner_index p =
  let rec find k = if k >= 8 then None else if equal corners.(k) p then Some k else find (k + 1) in
  find 0

let l1_distance a b =
  Float.abs (a.r -. b.r) +. Float.abs (a.g -. b.g) +. Float.abs (a.b -. b.b)

(* Flat offset of channel 0 at (row, col) of a CHW image; channel [c]
   lives at [off + c * plane img]. *)
let pixel_offset fn (img : Tensor.t) ~row ~col =
  let s = img.shape in
  if Array.length s <> 3 || s.(0) < 3 then
    invalid_arg (Printf.sprintf "Rgb.%s: not a CHW image with 3 channels" fn);
  if row < 0 || row >= s.(1) || col < 0 || col >= s.(2) then
    invalid_arg
      (Printf.sprintf "Rgb.%s: pixel (%d, %d) outside a %dx%d image" fn row
         col s.(1) s.(2));
  (row * s.(2)) + col

let plane (img : Tensor.t) = img.shape.(1) * img.shape.(2)

let of_image img ~row ~col =
  let off = pixel_offset "of_image" img ~row ~col and n = plane img in
  let d = img.data in
  { r = d.(off); g = d.(off + n); b = d.(off + (2 * n)) }

let write_to_image img ~row ~col p =
  let off = pixel_offset "write_to_image" img ~row ~col and n = plane img in
  let d = img.data in
  d.(off) <- p.r;
  d.(off + n) <- p.g;
  d.(off + (2 * n)) <- p.b

(* [l1_distance] of the pixel (r, g, b) to corner [k], same expression
   order.  Inlined so the float never leaves a register. *)
let[@inline] corner_l1 r g b k =
  let c = corners.(k) in
  Float.abs (r -. c.r) +. Float.abs (g -. c.g) +. Float.abs (b -. c.b)

(* Insertion sort of the corners 0..7 into [dst.(0) .. dst.(7)],
   farthest first.  The order is [compare] on the distances with ties
   broken by corner index — a total order (NaN included), so this is
   exactly what a comparison sort with that comparator returns.  Corner
   [i] exceeds every index already placed, so a tie stops the shift. *)
let rank_pixel data ~off ~plane dst =
  let r = data.(off) and g = data.(off + plane) and b = data.(off + (2 * plane)) in
  for i = 0 to 7 do
    let di = corner_l1 r g b i in
    let j = ref (i - 1) in
    while !j >= 0 && compare (corner_l1 r g b dst.(!j)) di < 0 do
      dst.(!j + 1) <- dst.(!j);
      decr j
    done;
    dst.(!j + 1) <- i
  done

let rank_corners img ~row ~col dst =
  let off = pixel_offset "rank_corners" img ~row ~col in
  if Array.length dst < 8 then
    invalid_arg "Rgb.rank_corners: destination shorter than 8";
  rank_pixel img.data ~off ~plane:(plane img) dst

let corners_by_distance p =
  let dst = Array.make 8 0 in
  rank_pixel [| p.r; p.g; p.b |] ~off:0 ~plane:1 dst;
  dst

let max_val p = Float.max p.r (Float.max p.g p.b)
let min_val p = Float.min p.r (Float.min p.g p.b)
let avg_val p = (p.r +. p.g +. p.b) /. 3.

let pp fmt p = Format.fprintf fmt "(%.3f, %.3f, %.3f)" p.r p.g p.b
let to_string p = Format.asprintf "%a" pp p
