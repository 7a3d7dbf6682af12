type pixel_expr = Orig | Pert

type func =
  | Max of pixel_expr
  | Min of pixel_expr
  | Avg of pixel_expr
  | Score_diff
  | Center

type cmp = Lt | Gt

type t =
  | Const of bool
  | Cmp of { func : func; cmp : cmp; threshold : float }

type program = { b1 : t; b2 : t; b3 : t; b4 : t }

let const_false_program =
  { b1 = Const false; b2 = Const false; b3 = Const false; b4 = Const false }

type ctx = {
  d1 : int;
  d2 : int;
  image : Tensor.t;
  true_class : int;
  clean_scores : Tensor.t;
  pair : Pair.t;
  perturbed_scores : Tensor.t;
}

let pixel_of ctx = function
  | Orig ->
      Rgb.of_image ctx.image ~row:ctx.pair.Pair.loc.Location.row
        ~col:ctx.pair.Pair.loc.Location.col
  | Pert -> Pair.rgb ctx.pair

let eval_func f ctx =
  match f with
  | Max p -> Rgb.max_val (pixel_of ctx p)
  | Min p -> Rgb.min_val (pixel_of ctx p)
  | Avg p -> Rgb.avg_val (pixel_of ctx p)
  | Score_diff ->
      Tensor.get_flat ctx.clean_scores ctx.true_class
      -. Tensor.get_flat ctx.perturbed_scores ctx.true_class
  | Center -> Location.center_distance ~d1:ctx.d1 ~d2:ctx.d2 ctx.pair.Pair.loc

let eval c ctx =
  match c with
  | Const b -> b
  | Cmp { func; cmp; threshold } -> (
      let v = eval_func func ctx in
      match cmp with Lt -> v < threshold | Gt -> v > threshold)

(* Compiled holes.  A hole's value on a pair depends on the pair's
   location ([orig], [center]), its corner ([pert]) or the queried score
   vector ([score_diff]) alone, so all but [score_diff] become a lookup
   table filled once per attack.  Tables hold ['\001'] where the
   condition holds. *)
type compiled =
  | Fixed of bool
  | By_corner of Bytes.t  (* indexed by corner: [pert] *)
  | By_location of Bytes.t  (* indexed by location index: [orig], [center] *)
  | By_score of {
      cmp : cmp;
      threshold : float;
      clean : float;  (* the clean true-class score *)
      true_class : int;
    }

let[@inline] passes cmp (v : float) threshold =
  match cmp with Lt -> v < threshold | Gt -> v > threshold

(* [Rgb.max_val]/[min_val]/[avg_val] and [Location.center_distance],
   the same expressions written out here: a call into another module
   boxes its float arguments and result (libraries are compiled
   without cross-module inlining in the default build), while these
   stay in registers, so filling a table allocates only the table. *)
let[@inline] pixel_passes func cmp threshold r g b =
  match func with
  | Max _ -> passes cmp (Float.max r (Float.max g b)) threshold
  | Min _ -> passes cmp (Float.min r (Float.min g b)) threshold
  | Avg _ | Score_diff | Center -> passes cmp ((r +. g +. b) /. 3.) threshold

let[@inline] center_passes ~d1 ~d2 cmp threshold ~row ~col =
  let cr = float_of_int (d1 - 1) /. 2. and cc = float_of_int (d2 - 1) /. 2. in
  passes cmp
    (Float.max
       (Float.abs (float_of_int row -. cr))
       (Float.abs (float_of_int col -. cc)))
    threshold

let flag b = if b then '\001' else '\000'

let compile c ~image ~true_class ~clean_scores =
  match c with
  | Const b -> Fixed b
  | Cmp { func = Score_diff; cmp; threshold } ->
      By_score
        {
          cmp;
          threshold;
          clean = clean_scores.Tensor.data.(true_class);
          true_class;
        }
  | Cmp { func = (Max Pert | Min Pert | Avg Pert) as func; cmp; threshold } ->
      let t = Bytes.create 8 in
      for k = 0 to 7 do
        let p = Rgb.corners.(k) in
        Bytes.set t k (flag (pixel_passes func cmp threshold p.r p.g p.b))
      done;
      By_corner t
  | Cmp { func = (Max Orig | Min Orig | Avg Orig) as func; cmp; threshold } ->
      (* [Rgb.of_image]'s layout: channel [c] of location [li] at
         [li + c * n]. *)
      let n = Tensor.dim image 1 * Tensor.dim image 2 in
      let d = image.Tensor.data and t = Bytes.create n in
      for li = 0 to n - 1 do
        let r = d.(li) and g = d.(li + n) and b = d.(li + (2 * n)) in
        Bytes.set t li (flag (pixel_passes func cmp threshold r g b))
      done;
      By_location t
  | Cmp { func = Center; cmp; threshold } ->
      let d1 = Tensor.dim image 1 and d2 = Tensor.dim image 2 in
      let t = Bytes.create (d1 * d2) in
      for row = 0 to d1 - 1 do
        for col = 0 to d2 - 1 do
          Bytes.set t ((row * d2) + col)
            (flag (center_passes ~d1 ~d2 cmp threshold ~row ~col))
        done
      done;
      By_location t

let holds c ~id ~scores =
  match c with
  | Fixed b -> b
  | By_corner t -> Bytes.unsafe_get t (id land 7) = '\001'
  | By_location t -> Bytes.get t (id lsr 3) = '\001'
  | By_score { cmp; threshold; clean; true_class } ->
      passes cmp (clean -. scores.Tensor.data.(true_class)) threshold

let conditions p = (p.b1, p.b2, p.b3, p.b4)

let program_of_array = function
  | [| b1; b2; b3; b4 |] -> { b1; b2; b3; b4 }
  | a ->
      invalid_arg
        (Printf.sprintf "Condition.program_of_array: %d conditions, need 4"
           (Array.length a))

let program_to_array p = [| p.b1; p.b2; p.b3; p.b4 |]

let equal a b =
  match (a, b) with
  | Const x, Const y -> x = y
  | Cmp x, Cmp y -> x.func = y.func && x.cmp = y.cmp && x.threshold = y.threshold
  | Const _, Cmp _ | Cmp _, Const _ -> false

let equal_program p q =
  equal p.b1 q.b1 && equal p.b2 q.b2 && equal p.b3 q.b3 && equal p.b4 q.b4

let pixel_name = function Orig -> "orig" | Pert -> "pert"

let func_name = function
  | Max p -> Printf.sprintf "max(%s)" (pixel_name p)
  | Min p -> Printf.sprintf "min(%s)" (pixel_name p)
  | Avg p -> Printf.sprintf "avg(%s)" (pixel_name p)
  | Score_diff -> "score_diff"
  | Center -> "center"

(* Shortest decimal form that parses back to exactly the same float, so
   the DSL round-trips bit-for-bit (program caches rely on this). *)
let float_repr v =
  let short = Printf.sprintf "%.12g" v in
  if float_of_string short = v then short else Printf.sprintf "%.17g" v

let pp fmt = function
  | Const b -> Format.fprintf fmt "%b" b
  | Cmp { func; cmp; threshold } ->
      Format.fprintf fmt "%s %s %s" (func_name func)
        (match cmp with Lt -> "<" | Gt -> ">")
        (float_repr threshold)

let pp_program fmt p =
  Format.fprintf fmt "B1: %a; B2: %a; B3: %a; B4: %a" pp p.b1 pp p.b2 pp p.b3
    pp p.b4

let to_string c = Format.asprintf "%a" pp c
let program_to_string p = Format.asprintf "%a" pp_program p
