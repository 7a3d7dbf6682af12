(* Tests for the baseline attacks: Sketch+False, Sparse-RS, SuOPA and
   Sketch+Random. *)

module C = Oppsla.Condition
module Sketch = Oppsla.Sketch

let size = 4
let full_space = 8 * size * size
let attackable = Helpers.flat_image ~size 0.49
let hopeless = Helpers.flat_image ~size 0.30
let oracle () = Helpers.mean_threshold_oracle ()

(* Sketch+False *)

let fixed_program_is_const_false () =
  let b1, b2, b3, b4 = C.conditions Baselines.Fixed.program in
  List.iter
    (fun c ->
      Alcotest.(check bool) "const false" true (C.equal c (C.Const false)))
    [ b1; b2; b3; b4 ]

let fixed_equals_sketch_with_false () =
  let a = Baselines.Fixed.attack (oracle ()) ~image:attackable ~true_class:0 in
  let b =
    Sketch.attack (oracle ()) C.const_false_program ~image:attackable
      ~true_class:0
  in
  Alcotest.(check int) "same queries" b.Sketch.queries a.Sketch.queries;
  Alcotest.(check bool) "same success" (b.Sketch.adversarial <> None)
    (a.Sketch.adversarial <> None)

(* Sparse-RS *)

let sparse_rs_finds_easy_target () =
  (* Half the corners flip the 0.49 image at any location, so random
     search succeeds fast. *)
  let r =
    Baselines.Sparse_rs.attack (Prng.of_int 1) (oracle ()) ~image:attackable
      ~true_class:0
  in
  (match r.Sketch.adversarial with
  | None -> Alcotest.fail "expected success"
  | Some (pair, img') ->
      Alcotest.(check int) "flips" 1
        (Oracle.unmetered_classify (oracle ()) img');
      ignore pair);
  Alcotest.(check bool) "few queries" true (r.Sketch.queries <= 16)

let sparse_rs_respects_budget () =
  let config = Baselines.Sparse_rs.default_config ~max_queries:9 in
  let r =
    Baselines.Sparse_rs.attack ~config (Prng.of_int 2) (oracle ())
      ~image:hopeless ~true_class:0
  in
  Alcotest.(check int) "stopped at cap" 9 r.Sketch.queries;
  Alcotest.(check bool) "failed" true (r.Sketch.adversarial = None)

let sparse_rs_deterministic () =
  let run () =
    Baselines.Sparse_rs.attack (Prng.of_int 4) (oracle ()) ~image:attackable
      ~true_class:0
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same queries" a.Sketch.queries b.Sketch.queries

let sparse_rs_never_exceeds_default () =
  let r =
    Baselines.Sparse_rs.attack (Prng.of_int 5) (oracle ()) ~image:hopeless
      ~true_class:0
  in
  Alcotest.(check int) "default cap is the space size" full_space
    r.Sketch.queries

(* SuOPA *)

let su_opa_population_validated () =
  let config = { (Baselines.Su_opa.default_config ~max_queries:100) with population = 3 } in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Baselines.Su_opa.attack ~config (Prng.of_int 1) (oracle ())
            ~image:attackable ~true_class:0);
       false
     with Invalid_argument _ -> true)

let su_opa_spends_budget_on_hopeless () =
  let config =
    { (Baselines.Su_opa.default_config ~max_queries:50) with population = 8 }
  in
  let r =
    Baselines.Su_opa.attack ~config (Prng.of_int 2) (oracle ()) ~image:hopeless
      ~true_class:0
  in
  Alcotest.(check int) "whole budget" 50 r.Sketch.queries;
  Alcotest.(check bool) "failed" true (r.Sketch.adversarial = None)

let su_opa_finds_easy_target () =
  let config =
    { (Baselines.Su_opa.default_config ~max_queries:2000) with population = 10 }
  in
  let r =
    Baselines.Su_opa.attack ~config (Prng.of_int 3) (oracle ())
      ~image:attackable ~true_class:0
  in
  match r.Sketch.adversarial with
  | None -> Alcotest.fail "expected success"
  | Some (_, img') ->
      Alcotest.(check int) "flips" 1 (Oracle.unmetered_classify (oracle ()) img');
      (* Batch semantics: success is only declared once a whole batch has
         been scored, so at least the initial population was queried. *)
      Alcotest.(check bool) "at least the population" true
        (r.Sketch.queries >= 10)

let su_opa_deterministic () =
  let run () =
    let config =
      { (Baselines.Su_opa.default_config ~max_queries:500) with population = 10 }
    in
    Baselines.Su_opa.attack ~config (Prng.of_int 4) (oracle ())
      ~image:attackable ~true_class:0
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same queries" a.Sketch.queries b.Sketch.queries

let su_opa_minimum_queries_is_population () =
  (* Success cannot be declared before the whole initial population is
     scored, unless an initial candidate already succeeds; on a hopeless
     image with a budget equal to the population, exactly the population
     is spent. *)
  let config =
    { (Baselines.Su_opa.default_config ~max_queries:12) with population = 12 }
  in
  let r =
    Baselines.Su_opa.attack ~config (Prng.of_int 5) (oracle ()) ~image:hopeless
      ~true_class:0
  in
  Alcotest.(check int) "population queries" 12 r.Sketch.queries

(* Sketch+Random *)

(* Sketch+Random keeps the sampled program with the lowest average and
   charges the queries of every sample: replay its draws from the same
   seed and score each program on its own oracle.  The special pixel
   sits deep in the default search order, so programs differ. *)
let random_search_picks_best () =
  let training =
    [|
      (Helpers.special_pixel_image ~size ~base:0.52 ~v:0.10 ~row:3 ~col:3, 0);
      (Helpers.special_pixel_image ~size ~base:0.48 ~v:0.90 ~row:3 ~col:3, 1);
      (Helpers.special_pixel_image ~size ~base:0.52 ~v:0.10 ~row:0 ~col:3, 0);
    |]
  in
  let samples = 10 and cap = 64 in
  let out =
    Baselines.Random_search.synthesize ~samples ~max_queries_per_image:cap
      (Prng.of_int 6) (oracle ()) ~training
  in
  let g = Prng.of_int 6 in
  let gen_config = Oppsla.Gen.config_for_image (fst training.(0)) in
  let scored =
    Array.init samples (fun _ ->
        let program = Oppsla.Gen.random_program gen_config g in
        (program, Oppsla.Score.evaluate ~max_queries:cap (oracle ()) program training))
  in
  let avg (_, e) = e.Oppsla.Score.avg_queries in
  let best =
    Array.fold_left (fun b s -> if avg s < avg b then s else b) scored.(0) scored
  in
  Alcotest.(check bool) "sampled programs differ" true
    (Array.exists (fun s -> avg s <> avg best) scored);
  Alcotest.(check (float 0.)) "lowest avg" (avg best)
    out.Baselines.Random_search.best_avg_queries;
  Alcotest.(check int) "synth queries summed"
    (Array.fold_left (fun acc (_, e) -> acc + e.Oppsla.Score.total_queries) 0 scored)
    out.Baselines.Random_search.synth_queries;
  Alcotest.(check bool) "best is the first argmin" true
    (C.equal_program (fst best) out.Baselines.Random_search.best)

let random_search_validates () =
  Alcotest.(check bool) "empty training raises" true
    (try
       ignore
         (Baselines.Random_search.synthesize (Prng.of_int 1) (oracle ())
            ~training:[||]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "samples <= 0 raises" true
    (try
       ignore
         (Baselines.Random_search.synthesize ~samples:0 (Prng.of_int 1)
            (oracle ())
            ~training:[| (attackable, 0) |]);
       false
     with Invalid_argument _ -> true)

let random_search_end_to_end () =
  let out =
    Baselines.Random_search.synthesize ~samples:5 ~max_queries_per_image:64
      (Prng.of_int 7) (oracle ())
      ~training:[| (attackable, 0); (Helpers.flat_image ~size 0.52, 1) |]
  in
  (* Both images succeed in one query under any program here. *)
  Alcotest.(check (float 1e-9)) "avg" 1. out.Baselines.Random_search.best_avg_queries

(* {1 Candidate slots}

   Sparse-RS and SuOPA build every input they forward in reused arena
   slots.  A recording oracle snapshots each input it is handed.  Each
   snapshot must equal the fresh candidate its changed pixels decode to,
   so a pixel an earlier candidate left behind fails the check; the
   answer the cache files under that candidate's key must be the
   snapshot's own; and the inputs of one forward pass must be distinct
   tensors.  The image is dark, so no attack succeeds and each runs to
   its cap through many reused slots, with speculation and rebuilt
   chunks at width 16. *)

let slot_d = 8

let slot_image () =
  Tensor.rand_uniform (Prng.of_int 21) ~lo:0.2 ~hi:0.4 [| 3; slot_d; slot_d |]

(* The mean-threshold answer plus a tiny position-weighted checksum of
   the input, so two different inputs get different answers. *)
let checksum_scores x =
  let m = Tensor.mean x and acc = ref 0. in
  for i = 0 to Tensor.numel x - 1 do
    acc := !acc +. (Tensor.get_flat x i /. (float_of_int i +. 1.37))
  done;
  Tensor.of_array [| 3 |] [| 1. -. m; m; 1e-6 *. !acc |]

let recording_oracle seen =
  let batch_fn xs =
    Array.iteri
      (fun i x ->
        for j = 0 to i - 1 do
          if xs.(j) == x then Alcotest.fail "one slot twice in a forward pass"
        done;
        seen := Tensor.copy x :: !seen)
      xs;
    Array.map checksum_scores xs
  in
  Oracle.of_fn ~batch_fn ~name:"recording" ~num_classes:3 checksum_scores

(* The pixels where [x] differs from [image], row-major. *)
let changed ~image x =
  List.filter
    (fun (row, col) ->
      List.exists
        (fun c -> Tensor.get x [| c; row; col |] <> Tensor.get image [| c; row; col |])
        [ 0; 1; 2 ])
    (List.concat
       (List.init slot_d (fun row -> List.init slot_d (fun col -> (row, col)))))

let corner_at x (row, col) =
  match Oppsla.Rgb.corner_index (Oppsla.Rgb.of_image x ~row ~col) with
  | Some corner -> corner
  | None -> Alcotest.fail "a forwarded pixel holds no corner colour"

(* Each decoder names the fresh candidate a snapshot should be and, when
   the candidate's cache key is public, that key. *)
let decode_pixels ~k ~image x =
  let cells = changed ~image x in
  if List.length cells <> k then
    Alcotest.failf "%d pixels changed, expected %d" (List.length cells) k;
  let pairs =
    List.map
      (fun (row, col) ->
        Oppsla.Pair.make
          ~loc:(Oppsla.Location.make ~row ~col)
          ~corner:(corner_at x (row, col)))
      cells
  in
  ( List.fold_left Sketch.perturb image pairs,
    Some (Oppsla.Space.set_key ~d2:slot_d pairs) )

let decode_patch ~h ~w ~image x =
  match changed ~image x with
  | [] -> Alcotest.fail "no pixel changed"
  | ((row, col) as first) :: _ ->
      let anchor = Oppsla.Location.make ~row ~col
      and corner = corner_at x first in
      ( Oppsla.Space.perturb_patch image ~anchor ~h ~w ~corner,
        Some (Oppsla.Space.patch_key ~anchor ~h ~w ~corner) )

let decode_su_opa ~image x =
  match changed ~image x with
  | [ (row, col) ] ->
      let fresh = Tensor.copy image in
      Oppsla.Rgb.write_to_image fresh ~row ~col (Oppsla.Rgb.of_image x ~row ~col);
      (fresh, None)
  | cells -> Alcotest.failf "%d pixels changed, expected 1" (List.length cells)

let baseline_slot_hygiene () =
  let max_queries = 150 in
  let sparse_rs space ~batch g o ~image =
    ignore
      (Baselines.Sparse_rs.attack_space
         ~config:(Baselines.Sparse_rs.default_config ~max_queries)
         ~batch ~space g o ~image ~true_class:0)
  in
  let su_opa ~batch g o ~image =
    let config =
      { (Baselines.Su_opa.default_config ~max_queries) with population = 12 }
    in
    ignore (Baselines.Su_opa.attack ~config ~batch g o ~image ~true_class:0)
  in
  let attackers =
    [
      ("sparse-rs k=1", sparse_rs (Oppsla.Space.Kpixel 1), decode_pixels ~k:1);
      ("sparse-rs k=3", sparse_rs (Oppsla.Space.Kpixel 3), decode_pixels ~k:3);
      ( "sparse-rs patch 2x2",
        sparse_rs (Oppsla.Space.Patch { h = 2; w = 2 }),
        decode_patch ~h:2 ~w:2 );
      ("su-opa", su_opa, decode_su_opa);
    ]
  in
  let image = slot_image () in
  List.iter
    (fun (name, attack, decode) ->
      List.iter
        (fun batch ->
          let name = Printf.sprintf "%s, batch %d" name batch in
          let seen = ref [] in
          let o = recording_oracle seen in
          let cache = Score_cache.create () in
          Oracle.set_cache o (Some cache);
          attack ~batch (Prng.of_int 3) o ~image;
          Alcotest.(check int) (name ^ ": ran to its cap") max_queries
            (Oracle.queries o);
          if !seen = [] then Alcotest.failf "%s: nothing was forwarded" name;
          List.iter
            (fun x ->
              let fresh, key = decode ~image x in
              if x.Tensor.data <> fresh.Tensor.data then
                Alcotest.failf "%s: a forwarded input differs from its fresh copy"
                  name;
              Option.iter
                (fun key ->
                  if
                    (Score_cache.find cache key).Tensor.data
                    <> (checksum_scores x).Tensor.data
                  then Alcotest.failf "%s: an answer is filed under another key" name)
                key)
            !seen)
        [ 1; 16 ])
    attackers

(* A cold attack (nothing cached, every query forwarded) builds its
   inputs in one slot: one image copy on the major heap for the whole
   attack, not one per query. *)
let sparse_rs_cold_attack_one_copy () =
  let image =
    Tensor.rand_uniform (Prng.of_int 22) ~lo:0.2 ~hi:0.4 [| 3; 16; 16 |]
  in
  let copy_words = float_of_int (Tensor.numel image + 1) in
  let o = oracle () in
  let config = Baselines.Sparse_rs.default_config ~max_queries:256 in
  Gc.minor ();
  let _, _, before = Gc.counters () in
  let r =
    Baselines.Sparse_rs.attack ~config (Prng.of_int 8) o ~image ~true_class:0
  in
  let _, _, after = Gc.counters () in
  Alcotest.(check int) "every query posed" 256 r.Sketch.queries;
  let words = after -. before in
  if words >= 2. *. copy_words then
    Alcotest.failf "%.0f major words, more than two %.0f-word image copies"
      words copy_words

(* The same pin against a network oracle, the attack as the eval
   harness runs it: targeted at the clean image's least likely class of
   an f32 vgg_tiny, so every one of its 256 queries is forwarded and
   the attack fails.  A single-image forward runs the plan on a view of
   the slot and returns a view of the score row, so no query copies the
   image; the warm-up forward first fills the plan's per-domain scratch
   (the GEMM panels and the dense layer's float64 weights). *)
let sparse_rs_cold_network_attack_one_copy () =
  let net = Nn.Zoo.vgg_tiny (Prng.of_int 5) ~image_size:16 ~num_classes:10 in
  let image =
    Tensor.rand_uniform (Prng.of_int 22) ~lo:0.2 ~hi:0.4 [| 3; 16; 16 |]
  in
  let copy_words = float_of_int (Tensor.numel image + 1) in
  let o = Oracle.of_network ~backend:Nn.Backend.F32 net in
  let clean = Oracle.unmetered_scores o image in
  let true_class = Tensor.argmax clean in
  let target = Tensor.argmax (Tensor.scale (-1.) clean) in
  let config = Baselines.Sparse_rs.default_config ~max_queries:256 in
  Gc.minor ();
  let _, _, before = Gc.counters () in
  let r =
    Baselines.Sparse_rs.attack ~config ~goal:(Sketch.Targeted target)
      (Prng.of_int 8) o ~image ~true_class
  in
  let _, _, after = Gc.counters () in
  Alcotest.(check int) "every query posed" 256 r.Sketch.queries;
  Alcotest.(check bool) "attack failed" true (r.Sketch.adversarial = None);
  let words = after -. before in
  if words >= 2. *. copy_words then
    Alcotest.failf "%.0f major words, more than two %.0f-word image copies"
      words copy_words

let suite =
  [
    Alcotest.test_case "fixed program is const false" `Quick
      fixed_program_is_const_false;
    Alcotest.test_case "fixed equals sketch" `Quick fixed_equals_sketch_with_false;
    Alcotest.test_case "sparse-rs finds easy target" `Quick
      sparse_rs_finds_easy_target;
    Alcotest.test_case "sparse-rs respects budget" `Quick
      sparse_rs_respects_budget;
    Alcotest.test_case "sparse-rs deterministic" `Quick sparse_rs_deterministic;
    Alcotest.test_case "sparse-rs cold attack: one image copy" `Quick
      sparse_rs_cold_attack_one_copy;
    Alcotest.test_case "baselines forward fresh candidates from slots" `Quick
      baseline_slot_hygiene;
    Alcotest.test_case "sparse-rs default cap" `Quick
      sparse_rs_never_exceeds_default;
    Alcotest.test_case "su-opa population validated" `Quick
      su_opa_population_validated;
    Alcotest.test_case "su-opa spends budget" `Quick
      su_opa_spends_budget_on_hopeless;
    Alcotest.test_case "su-opa finds easy target" `Quick
      su_opa_finds_easy_target;
    Alcotest.test_case "su-opa deterministic" `Quick su_opa_deterministic;
    Alcotest.test_case "su-opa minimum queries" `Quick
      su_opa_minimum_queries_is_population;
    Alcotest.test_case "random search picks best" `Quick
      random_search_picks_best;
    Alcotest.test_case "random search validates" `Quick random_search_validates;
    Alcotest.test_case "random search end to end" `Quick
      random_search_end_to_end;
    Alcotest.test_case "sparse-rs cold network attack: one image copy" `Quick
      sparse_rs_cold_network_attack_one_copy;
  ]
