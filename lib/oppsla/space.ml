type t = Pixel | Kpixel of int | Patch of { h : int; w : int }

let to_string = function
  | Pixel -> "pixel"
  | Kpixel k -> Printf.sprintf "kpixel:%d" k
  | Patch { h; w } -> Printf.sprintf "patch:%dx%d" h w

let of_string s =
  match String.split_on_char ':' s with
  | [ "pixel" ] -> Some Pixel
  | [ "kpixel" ] -> Some (Kpixel 2)
  | [ "kpixel"; k ] -> (
      match int_of_string_opt k with
      | Some k when k >= 1 -> Some (Kpixel k)
      | _ -> None)
  | [ "patch" ] -> Some (Patch { h = 2; w = 2 })
  | [ "patch"; dims ] -> (
      match String.split_on_char 'x' dims with
      | [ h; w ] -> (
          match (int_of_string_opt h, int_of_string_opt w) with
          | Some h, Some w when h >= 1 && w >= 1 -> Some (Patch { h; w })
          | _ -> None)
      | _ -> None)
  | _ -> None

let pixels = function
  | Pixel -> 1
  | Kpixel k -> k
  | Patch { h; w } -> h * w

let validate ~d1 ~d2 = function
  | Pixel -> ()
  | Kpixel k ->
      if k < 1 || k > d1 * d2 then
        invalid_arg
          (Printf.sprintf "Space: kpixel k = %d outside [1, %d]" k (d1 * d2))
  | Patch { h; w } ->
      if h < 1 || w < 1 || h > d1 || w > d2 then
        invalid_arg
          (Printf.sprintf "Space: patch %dx%d does not fit a %dx%d image" h w
             d1 d2)

(* A singleton pixel set is exactly a sketch perturbation, so it shares
   the sketch's corner key space (cross-attacker cache hits on the same
   image); larger sets key on the sorted pair-id list, which makes the
   key a pure function of the SET — element order never leaks into the
   cache. *)
let pair_key (pair : Pair.t) =
  Score_cache.Corner
    {
      row = pair.loc.Location.row;
      col = pair.loc.Location.col;
      corner = pair.corner;
    }

let set_key ~d2 = function
  | [ pair ] -> pair_key pair
  | pairs ->
      let ids = List.map (Pair.id ~d2) pairs |> List.sort compare in
      Score_cache.Custom
        ("pairs:" ^ String.concat "," (List.map string_of_int ids))

(* Patch keys live in their own ["patch:"] namespace: a 1x1 patch at a
   location is pixel-equivalent but still keyed separately, because the
   key format is part of the cache contract and patches are anchored
   rectangles, not sets. *)
let patch_key ~(anchor : Location.t) ~h ~w ~corner =
  Score_cache.Custom
    (Printf.sprintf "patch:%d,%d,%dx%d,%d" anchor.Location.row
       anchor.Location.col h w corner)

let perturb_patch image ~(anchor : Location.t) ~h ~w ~corner =
  let d1 = Tensor.dim image 1 and d2 = Tensor.dim image 2 in
  if
    anchor.Location.row < 0 || anchor.Location.col < 0
    || anchor.Location.row + h > d1
    || anchor.Location.col + w > d2
  then
    invalid_arg
      (Printf.sprintf "Space.perturb_patch: %dx%d patch at (%d, %d) leaves %dx%d"
         h w anchor.Location.row anchor.Location.col d1 d2);
  let rgb = Rgb.corner corner in
  let x' = Tensor.copy image in
  List.iter
    (fun (cell : Location.t) ->
      Rgb.write_to_image x' ~row:cell.Location.row ~col:cell.Location.col rgb)
    (Location.patch_cells ~anchor ~h ~w);
  x'
