(* SplitMix64.  Reference: Steele, Lea & Flood, "Fast Splittable
   Pseudorandom Number Generators", OOPSLA 2014.  The state is a single
   64-bit counter advanced by the golden-gamma constant; outputs are
   produced by a variant of the MurmurHash3 finalizer. *)

type t = { mutable state : int64; root : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed = { state = seed; root = seed }
let of_int seed = create (Int64.of_int seed)

let next_int64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix64 g.state

let split g =
  let seed = next_int64 g in
  (* A second mix decorrelates the child stream from the parent outputs. *)
  create (mix64 seed)

(* Hash a string with FNV-1a folded into the root seed, so the derived
   stream depends only on (root, name). *)
let named_stream g name =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    name;
  create (mix64 (Int64.logxor g.root !h))

let copy g = { state = g.state; root = g.root }

(* Serialization for checkpoint files: the full generator identity is the
   (state, root) pair, printed as fixed-width hex behind a format tag so a
   future layout change can be detected instead of misparsed. *)
let save g = Printf.sprintf "splitmix64:%016Lx:%016Lx" g.state g.root

let restore s =
  let fail () = invalid_arg ("Prng.restore: malformed state " ^ String.escaped s) in
  match String.split_on_char ':' s with
  | [ "splitmix64"; state; root ]
    when String.length state = 16 && String.length root = 16 -> (
      let parse h =
        match Int64.of_string_opt ("0x" ^ h) with
        | Some v -> v
        | None -> fail ()
      in
      { state = parse state; root = parse root })
  | _ -> fail ()

let int g n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits keeps the draw exactly uniform. *)
  let bound = Int64.of_int n in
  let rec draw () =
    let bits = Int64.shift_right_logical (next_int64 g) 2 in
    let v = Int64.rem bits bound in
    if Int64.sub bits v > Int64.sub (Int64.sub Int64.max_int bound) 1L then
      draw ()
    else Int64.to_int v
  in
  draw ()

let int_in g lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int g (hi - lo + 1)

let uniform g =
  (* 53 uniformly random mantissa bits in [0,1). *)
  let bits = Int64.shift_right_logical (next_int64 g) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float g x =
  if x <= 0. then invalid_arg "Prng.float: bound must be positive";
  uniform g *. x

let float_in g lo hi = lo +. (uniform g *. (hi -. lo))
let bool g = Int64.logand (next_int64 g) 1L = 1L

let normal g ?(mu = 0.) ?(sigma = 1.) () =
  let rec nonzero () =
    let u = uniform g in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = uniform g in
  let r = sqrt (-2. *. log u1) in
  mu +. (sigma *. r *. cos (2. *. Float.pi *. u2))

let choice g a =
  if Array.length a = 0 then invalid_arg "Prng.choice: empty array";
  a.(int g (Array.length a))

let choice_list g l =
  match l with
  | [] -> invalid_arg "Prng.choice_list: empty list"
  | _ -> List.nth l (int g (List.length l))

let shuffle_in_place g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle g a =
  let b = Array.copy a in
  shuffle_in_place g b;
  b

let sample_without_replacement g k a =
  let n = Array.length a in
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  let b = Array.copy a in
  for i = 0 to k - 1 do
    let j = int_in g i (n - 1) in
    let tmp = b.(i) in
    b.(i) <- b.(j);
    b.(j) <- tmp
  done;
  Array.sub b 0 k

let permutation g n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place g a;
  a
