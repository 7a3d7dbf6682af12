(* Tests for the sketch's indexed pair queue, including a model-based
   property test against a naive list implementation. *)

module Location = Oppsla.Location
module Pair = Oppsla.Pair
module Pair_queue = Oppsla.Pair_queue
module Rgb = Oppsla.Rgb

let mk row col corner = Pair.make ~loc:(Location.make ~row ~col) ~corner

(* Ids of pairs in a 2x2 image. *)
let id row col corner = Pair.id ~d2:2 (mk row col corner)

let init_and_order () =
  let order = [ mk 0 0 0; mk 1 1 3; mk 0 1 7 ] in
  let q = Pair_queue.init ~d1:2 ~d2:2 order in
  Alcotest.(check int) "length" 3 (Pair_queue.length q);
  Alcotest.(check int) "front" (id 0 0 0) (Pair_queue.pop q);
  Alcotest.(check int) "second" (id 1 1 3) (Pair_queue.pop q);
  Alcotest.(check int) "remaining" 1 (Pair_queue.length q)

let init_rejects_duplicates () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Pair_queue.init ~d1:2 ~d2:2 [ mk 0 0 0; mk 0 0 0 ]);
       false
     with Invalid_argument _ -> true)

let init_rejects_out_of_bounds () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Pair_queue.init ~d1:2 ~d2:2 [ mk 5 0 0 ]);
       false
     with Invalid_argument _ -> true)

let pop_empty () =
  let q = Pair_queue.init ~d1:2 ~d2:2 [] in
  Alcotest.(check int) "-1" (-1) (Pair_queue.pop q);
  Alcotest.(check bool) "is_empty" true (Pair_queue.is_empty q)

let push_back_moves_to_tail () =
  let q = Pair_queue.init ~d1:2 ~d2:2 [ mk 0 0 0; mk 0 1 1; mk 1 0 2 ] in
  Pair_queue.push_back q (id 0 0 0);
  let contents = Pair_queue.to_list q in
  Alcotest.(check bool) "moved to tail" true
    (Pair.equal (List.nth contents 2) (mk 0 0 0));
  Alcotest.(check int) "length unchanged" 3 (Pair_queue.length q)

let push_back_absent_raises () =
  let q = Pair_queue.init ~d1:2 ~d2:2 [ mk 0 0 0 ] in
  Alcotest.(check bool) "raises" true
    (try
       Pair_queue.push_back q (id 1 1 1);
       false
     with Invalid_argument _ -> true)

let remove_and_mem () =
  let q = Pair_queue.init ~d1:2 ~d2:2 [ mk 0 0 0; mk 0 1 1 ] in
  Alcotest.(check bool) "mem before" true (Pair_queue.mem q (id 0 1 1));
  Pair_queue.remove q (id 0 1 1);
  Alcotest.(check bool) "mem after" false (Pair_queue.mem q (id 0 1 1));
  Alcotest.(check int) "length" 1 (Pair_queue.length q);
  Alcotest.(check bool) "double remove raises" true
    (try
       Pair_queue.remove q (id 0 1 1);
       false
     with Invalid_argument _ -> true)

let first_with_location_order () =
  let q =
    Pair_queue.init ~d1:2 ~d2:2 [ mk 0 0 5; mk 0 1 1; mk 0 0 2; mk 0 0 7 ]
  in
  (* Front-most pair at (0,0) (location index 0) is corner 5. *)
  Alcotest.(check int) "corner 5 first" (id 0 0 5)
    (Pair_queue.first_with_location q 0);
  (* After pushing it to the back, corner 2 becomes front-most. *)
  Pair_queue.push_back q (id 0 0 5);
  Alcotest.(check int) "corner 2 after reorder" (id 0 0 2)
    (Pair_queue.first_with_location q 0);
  Alcotest.(check int) "no member at (1,1)" (-1)
    (Pair_queue.first_with_location q 3)

(* full_space structure *)

let full_space_complete () =
  let image = Tensor.rand_uniform (Prng.of_int 4) [| 3; 4; 4 |] in
  let q = Pair_queue.full_space ~d1:4 ~d2:4 ~image in
  Alcotest.(check int) "all pairs" (8 * 16) (Pair_queue.length q);
  let contents = Pair_queue.to_list q in
  let ids = List.map (Pair.id ~d2:4) contents in
  Alcotest.(check int) "distinct" (8 * 16)
    (List.length (List.sort_uniq compare ids))

let full_space_block_structure () =
  (* Block k (of d1*d2 pairs) holds each location's k-th farthest corner;
     blocks are ordered farthest first. *)
  let image = Tensor.rand_uniform (Prng.of_int 5) [| 3; 3; 3 |] in
  let q = Pair_queue.full_space ~d1:3 ~d2:3 ~image in
  let contents = Array.of_list (Pair_queue.to_list q) in
  Array.iteri
    (fun i (p : Pair.t) ->
      let k = i / 9 in
      let orig =
        Rgb.of_image image ~row:p.Pair.loc.Location.row
          ~col:p.Pair.loc.Location.col
      in
      let expected_corner = (Rgb.corners_by_distance orig).(k) in
      Alcotest.(check int)
        (Printf.sprintf "position %d has rank-%d corner" i k)
        expected_corner p.Pair.corner)
    contents

let full_space_center_first () =
  (* Within the first block, locations are ordered center-out. *)
  let image = Tensor.rand_uniform (Prng.of_int 6) [| 3; 5; 5 |] in
  let q = Pair_queue.full_space ~d1:5 ~d2:5 ~image in
  match Pair_queue.to_list q with
  | first :: _ ->
      Alcotest.(check bool) "center location first" true
        (Location.equal first.Pair.loc (Location.make ~row:2 ~col:2))
  | [] -> Alcotest.fail "empty queue"

(* Appendix-A reference: the list-and-comparison-sort construction of
   the initial order, written out literally.  [full_space] must equal it
   position for position. *)

let reference_center ~d1 ~d2 =
  let locs = Array.of_list (Location.all ~d1 ~d2) in
  let dist = Array.map (Location.center_distance ~d1 ~d2) locs in
  let idx = Array.init (Array.length locs) (fun i -> i) in
  Array.sort
    (fun a b ->
      match compare dist.(a) dist.(b) with 0 -> compare a b | c -> c)
    idx;
  Array.map (fun i -> locs.(i)) idx

let reference_corners (p : Rgb.t) =
  let idx = Array.init 8 (fun k -> k) in
  let dist = Array.map (fun c -> Rgb.l1_distance p c) Rgb.corners in
  Array.sort
    (fun a b ->
      match compare dist.(b) dist.(a) with 0 -> compare a b | c -> c)
    idx;
  idx

let reference_order ~d1 ~d2 ~image =
  let locs_by_center = reference_center ~d1 ~d2 in
  let rank =
    Array.map
      (fun (loc : Location.t) ->
        let px c = Tensor.get image [| c; loc.row; loc.col |] in
        reference_corners { Rgb.r = px 0; g = px 1; b = px 2 })
      locs_by_center
  in
  let order = ref [] in
  for k = 7 downto 0 do
    for li = Array.length locs_by_center - 1 downto 0 do
      order :=
        Pair.make ~loc:locs_by_center.(li) ~corner:rank.(li).(k) :: !order
    done
  done;
  !order

let by_center_distance_exact () =
  for d1 = 1 to 20 do
    for d2 = 1 to 20 do
      let got = Location.by_center_distance ~d1 ~d2
      and want = reference_center ~d1 ~d2 in
      if got <> want then Alcotest.failf "center order differs at %dx%d" d1 d2;
      if Location.center_order ~d1 ~d2 != Location.center_order ~d1 ~d2 then
        Alcotest.failf "center order rebuilt at %dx%d" d1 d2
    done
  done

type pixels = Uniform | Quarters | Special

type qop =
  | QPop
  | QPush_back of int
  | QRemove of int
  | QFirst_with_loc of int
  | QFront_nth of int

let image_of ~d1 ~d2 ~seed pixels =
  let rng = Prng.of_int seed in
  let image = Tensor.rand_uniform rng [| 3; d1; d2 |] in
  match pixels with
  | Uniform -> image
  | Quarters -> Tensor.map (fun x -> Float.round (x *. 4.) /. 4.) image
  | Special ->
      let set ~row ~col (r, g, b) =
        Rgb.write_to_image image ~row ~col { Rgb.r; g; b }
      in
      set ~row:(Prng.int rng d1) ~col:(Prng.int rng d2)
        (Float.nan, Float.infinity, Float.neg_infinity);
      set ~row:(Prng.int rng d1) ~col:(Prng.int rng d2) (0.25, Float.nan, 1.);
      set ~row:(Prng.int rng d1) ~col:(Prng.int rng d2)
        (0.5, 0.5, Float.infinity);
      image

let pixels_name = function
  | Uniform -> "uniform"
  | Quarters -> "quarters"
  | Special -> "special"

let qop_print = function
  | QPop -> "Pop"
  | QPush_back i -> Printf.sprintf "Push_back %d" i
  | QRemove i -> Printf.sprintf "Remove %d" i
  | QFirst_with_loc i -> Printf.sprintf "First_with_loc %d" i
  | QFront_nth i -> Printf.sprintf "Front_nth %d" i

(* Pair and location operands are drawn large and reduced modulo the
   image's capacity, so every op names a real pair; location indices may
   exceed the image to probe the out-of-bounds answer. *)
let arbitrary_full_space =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (3, return QPop);
        (3, map (fun i -> QPush_back i) (int_bound 1_000_000));
        (2, map (fun i -> QRemove i) (int_bound 1_000_000));
        (2, map (fun i -> QFirst_with_loc i) (int_bound 1_000_000));
        (1, map (fun i -> QFront_nth i) (int_bound 40));
      ]
  in
  QCheck.make
    ~print:(fun (d1, d2, pixels, seed, ops) ->
      Printf.sprintf "%dx%d %s seed %d: %s" d1 d2 (pixels_name pixels) seed
        (String.concat "; " (List.map qop_print ops)))
    (tup5 (int_range 1 20) (int_range 1 20)
       (oneofl [ Uniform; Quarters; Special ])
       (int_bound 10_000)
       (list_size (int_range 0 80) op))

module Naive = Oppsla.Pair_queue_naive

(* The indexed queue answers ids, -1 for none; the model answers
   options. *)
let same_id ~d2 id p =
  match p with None -> id = -1 | Some p -> id = Pair.id ~d2 p

(* The [n]-th id from the front, walking one link per step as the
   sketch's speculation does. *)
let walk_nth q n =
  let rec go id k =
    if id < 0 || k = 0 then id else go (Pair_queue.next q id) (k - 1)
  in
  go (Pair_queue.front q) n

(* [q] and the list model [m] answer every op alike. *)
let agrees_with_model ~d1 ~d2 q m ops =
  let cap = Pair.count ~d1 ~d2 in
  let member i =
    let p = Pair.of_id ~d2 (i mod cap) in
    if Naive.mem m p then Some p else None
  in
  List.for_all
    (fun op ->
      let same =
        match op with
        | QPop -> same_id ~d2 (Pair_queue.pop q) (Naive.pop m)
        | QPush_back i -> (
            match member i with
            | Some p ->
                Pair_queue.push_back q (Pair.id ~d2 p);
                Naive.push_back m p;
                true
            | None -> not (Pair_queue.mem q (i mod cap)))
        | QRemove i -> (
            match member i with
            | Some p ->
                Pair_queue.remove q (Pair.id ~d2 p);
                Naive.remove m p;
                true
            | None -> not (Pair_queue.mem q (i mod cap)))
        | QFirst_with_loc i ->
            let li = i mod ((d1 * d2) + 3) in
            same_id ~d2
              (Pair_queue.first_with_location q li)
              (Naive.first_with_location m (Location.of_index ~d2 li))
        | QFront_nth i ->
            same_id ~d2 (walk_nth q i) (List.nth_opt (Naive.to_list m) i)
      in
      same
      && Pair_queue.length q = Naive.length m
      && List.equal Pair.equal (Pair_queue.to_list q) (Naive.to_list m))
    ops

let full_space_matches_reference (d1, d2, pixels, seed, ops) =
  let image = image_of ~d1 ~d2 ~seed pixels in
  let reference = reference_order ~d1 ~d2 ~image in
  let q = Pair_queue.full_space ~d1 ~d2 ~image in
  List.equal Pair.equal (Pair_queue.to_list q) reference
  && agrees_with_model ~d1 ~d2 q (Naive.init ~d1 ~d2 reference) ops
  && agrees_with_model ~d1 ~d2
       (Pair_queue.init ~d1 ~d2 reference)
       (Naive.init ~d1 ~d2 reference)
       ops

let qcheck_full_space_reference =
  QCheck.Test.make ~name:"full_space equals the Appendix-A reference"
    ~count:200 arbitrary_full_space full_space_matches_reference

(* The sketch's [closest_loc], written as the paper states it: the
   in-queue pairs with the same corner at the location's neighbours, in
   [Location.neighbors] order. *)
let closest_loc q ~d1 ~d2 id =
  let p = Pair.of_id ~d2 id in
  List.filter_map
    (fun loc ->
      let n = Pair.id ~d2 (Pair.make ~loc ~corner:p.Pair.corner) in
      if Pair_queue.mem q n then Some n else None)
    (Location.neighbors ~d1 ~d2 p.Pair.loc)

(* After the ops have put the queue in a random state, the id-arithmetic
   visit of every pair's neighbours lists exactly [closest_loc]. *)
let neighbors_match_closest_loc (d1, d2, pixels, seed, ops) =
  let image = image_of ~d1 ~d2 ~seed pixels in
  let q = Pair_queue.full_space ~d1 ~d2 ~image in
  ignore
    (agrees_with_model ~d1 ~d2 q
       (Naive.init ~d1 ~d2 (reference_order ~d1 ~d2 ~image))
       ops);
  List.for_all
    (fun id ->
      let visited = ref [] in
      Pair_queue.iter_neighbors q id (fun n -> visited := n :: !visited);
      List.rev !visited = closest_loc q ~d1 ~d2 id)
    (List.init (Pair.count ~d1 ~d2) Fun.id)

let qcheck_neighbors =
  QCheck.Test.make ~name:"iter_neighbors equals closest_loc" ~count:200
    arbitrary_full_space neighbors_match_closest_loc

let full_space_rejects_shape () =
  let image = Tensor.zeros [| 3; 4; 5 |] in
  List.iter
    (fun (d1, d2) ->
      Alcotest.(check bool)
        (Printf.sprintf "%dx%d raises" d1 d2)
        true
        (try
           ignore (Pair_queue.full_space ~d1 ~d2 ~image);
           false
         with Invalid_argument _ -> true))
    [ (5, 4); (4, 4); (0, 5) ];
  Alcotest.(check bool) "4-channel image raises" true
    (try
       ignore
         (Pair_queue.full_space ~d1:4 ~d2:5 ~image:(Tensor.zeros [| 4; 4; 5 |]));
       false
     with Invalid_argument _ -> true)

(* Allocation pins.  [full_space] allocates its queue's arrays plus a
   constant (the center order, its counting array, an 8-slot rank
   scratch): per-pair records or list cells would add at least 3 words
   per pair, 48 KiB at 16x16. *)
let allocated f =
  let before = Gc.allocated_bytes () in
  f ();
  Gc.allocated_bytes () -. before

let full_space_allocation () =
  let d1 = 16 and d2 = 16 in
  let image = Tensor.rand_uniform (Prng.of_int 7) [| 3; d1; d2 |] in
  let build () = ignore (Pair_queue.full_space ~d1 ~d2 ~image) in
  build ();
  let word = float_of_int (Sys.word_size / 8) in
  let cap = Pair.count ~d1 ~d2 in
  (* next, prev, seq (cap words each), loc_corners, the 10-field record:
     each block plus its header. *)
  let queue_words = (3 * (cap + 1)) + (d1 * d2 + 1) + 11 in
  let slack = 4096. in
  let bytes = allocated build in
  if bytes > (float_of_int queue_words *. word) +. slack then
    Alcotest.failf "full_space 16x16 allocated %.0f bytes, bound %.0f + %.0f"
      bytes
      (float_of_int queue_words *. word)
      slack

let pixel_access_allocation () =
  let image = Tensor.rand_uniform (Prng.of_int 8) [| 3; 16; 16 |] in
  let p = { Rgb.r = 0.25; g = 0.5; b = 0.75 } and rank = Array.make 8 0 in
  let empty = allocated ignore in
  let writes =
    allocated (fun () ->
        for i = 0 to 255 do
          Rgb.write_to_image image ~row:(i / 16) ~col:(i mod 16) p
        done)
  and ranks =
    allocated (fun () ->
        for i = 0 to 255 do
          Rgb.rank_corners image ~row:(i / 16) ~col:(i mod 16) rank
        done)
  in
  Alcotest.(check (float 0.)) "write_to_image allocates nothing" empty writes;
  Alcotest.(check (float 0.)) "rank_corners allocates nothing" empty ranks

(* Model-based property test: a random sequence of operations behaves
   like a reference list implementation. *)

type op = Pop | Push_back of int | Remove of int | First_with_loc of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Pop);
        (3, map (fun i -> Push_back i) (int_bound 31));
        (2, map (fun i -> Remove i) (int_bound 31));
        (2, map (fun i -> First_with_loc i) (int_bound 3));
      ])

let op_print = function
  | Pop -> "Pop"
  | Push_back i -> Printf.sprintf "Push_back %d" i
  | Remove i -> Printf.sprintf "Remove %d" i
  | First_with_loc i -> Printf.sprintf "First_with_loc %d" i

let arbitrary_ops =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map op_print l))
    QCheck.Gen.(list_size (int_range 1 60) op_gen)

(* d1 = d2 = 2: ids 0..31; locations 0..3.  The queue is driven by
   ids, the list model by pairs. *)
let model_agrees ops =
  let d2 = 2 in
  let all = List.init 32 (fun id -> Pair.of_id ~d2 id) in
  let q = Pair_queue.init ~d1:2 ~d2 all in
  let model = ref all in
  let ok = ref true in
  let check_eq () =
    if Pair_queue.to_list q <> !model then ok := false
  in
  List.iter
    (fun op ->
      (match op with
      | Pop -> (
          let popped = Pair_queue.pop q in
          match !model with
          | [] -> if popped <> -1 then ok := false
          | m :: rest ->
              if popped = Pair.id ~d2 m then model := rest else ok := false)
      | Push_back id ->
          let p = Pair.of_id ~d2 id in
          if List.exists (Pair.equal p) !model then begin
            Pair_queue.push_back q id;
            model := List.filter (fun x -> not (Pair.equal x p)) !model @ [ p ]
          end
      | Remove id ->
          let p = Pair.of_id ~d2 id in
          if List.exists (Pair.equal p) !model then begin
            Pair_queue.remove q id;
            model := List.filter (fun x -> not (Pair.equal x p)) !model
          end
      | First_with_loc li ->
          let loc = Location.of_index ~d2 li in
          let expected =
            List.find_opt (fun (p : Pair.t) -> Location.equal p.loc loc) !model
          in
          if not (same_id ~d2 (Pair_queue.first_with_location q li) expected)
          then ok := false);
      check_eq ())
    ops;
  !ok

let qcheck_model =
  QCheck.Test.make ~name:"queue agrees with list model" ~count:300
    arbitrary_ops model_agrees

let suite =
  [
    Alcotest.test_case "init and order" `Quick init_and_order;
    Alcotest.test_case "init rejects duplicates" `Quick init_rejects_duplicates;
    Alcotest.test_case "init rejects out of bounds" `Quick
      init_rejects_out_of_bounds;
    Alcotest.test_case "pop empty" `Quick pop_empty;
    Alcotest.test_case "push_back moves to tail" `Quick push_back_moves_to_tail;
    Alcotest.test_case "push_back absent raises" `Quick push_back_absent_raises;
    Alcotest.test_case "remove and mem" `Quick remove_and_mem;
    Alcotest.test_case "first_with_location order" `Quick
      first_with_location_order;
    Alcotest.test_case "full_space complete" `Quick full_space_complete;
    Alcotest.test_case "full_space block structure" `Quick
      full_space_block_structure;
    Alcotest.test_case "full_space center first" `Quick full_space_center_first;
    QCheck_alcotest.to_alcotest qcheck_model;
    Alcotest.test_case "by_center_distance equals comparison sort" `Quick
      by_center_distance_exact;
    QCheck_alcotest.to_alcotest qcheck_full_space_reference;
    QCheck_alcotest.to_alcotest qcheck_neighbors;
    Alcotest.test_case "full_space rejects a mismatched image" `Quick
      full_space_rejects_shape;
    Alcotest.test_case "full_space allocation bound" `Quick
      full_space_allocation;
    Alcotest.test_case "pixel access allocates nothing" `Quick
      pixel_access_allocation;
  ]
