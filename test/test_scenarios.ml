(* Properties of the scenario matrix: decision-based (label-only)
   oracles and the k-pixel / patch perturbation spaces.  These pin the
   invariants the scenario-differential grid in diff_runner relies on:
   mode-blind metering, order-insensitive set keys, in-bounds patch
   candidates and the degradation of score-based conditions to
   label-flip predicates.  A last table pins the label-only
   decision-vs-random query totals on two fixed corpora. *)

module Space = Oppsla.Space
module Location = Oppsla.Location
module Gen = Oppsla.Gen
module Condition = Oppsla.Condition

(* (1) Decision-oracle metering charges exactly one query per call —
   cache hits included — through the cached query path at widths 1 and
   16, and [Batcher.query] itself answers with the one-hot label
   vector. *)
let qcheck_decision_metering =
  QCheck.Test.make
    ~name:"decision metering: one query per call, cache hits included"
    ~count:200 QCheck.small_int (fun seed ->
      let g = Prng.of_int seed in
      let calls = 1 + Prng.int g 16 in
      let image = Tensor.rand_uniform g ~lo:0.2 ~hi:0.8 [| 3; 4; 4 |] in
      (* The same key every time: every call after the first is a cache
         hit (or a repeat inside one chunk), and each must still cost one
         query. *)
      let cand =
        { Batcher.key = Score_cache.Custom "pairs:3,7"; input = (fun () -> image) }
      in
      let label =
        Tensor.argmax
          (Oracle.unmetered_scores (Helpers.mean_threshold_oracle ()) image)
      in
      let one_hot s =
        Tensor.numel s = 2
        && Tensor.get_flat s label = 1.0
        && Tensor.get_flat s (1 - label) = 0.0
      in
      List.for_all
        (fun width ->
          let o = Helpers.mean_threshold_oracle () in
          Oracle.set_mode o Oracle.Decision;
          Oracle.set_cache o (Some (Score_cache.create ()));
          let t = Helpers.batcher ~width o in
          let ask () =
            one_hot
              (Batcher.query t
                 ~speculate:(fun _ -> Some cand)
                 ~input:cand.Batcher.input cand.Batcher.key)
          in
          let observed = ref true in
          for _ = 1 to calls do
            observed := ask () && !observed
          done;
          !observed && Oracle.queries o = calls)
        [ 1; 16 ])

(* (2) k-pixel [pairs:] cache keys are a pure function of the set — any
   permutation of the same pixel set produces the identical key. *)
let qcheck_kpixel_key_order_insensitive =
  QCheck.Test.make ~name:"kpixel set keys are order-insensitive" ~count:300
    QCheck.small_int (fun seed ->
      let g = Prng.of_int (seed + 1) in
      let d1 = 2 + Prng.int g 7 and d2 = 2 + Prng.int g 7 in
      let config = { Gen.d1; d2 } in
      let k = 1 + Prng.int g (min 5 (d1 * d2)) in
      let pairs = Gen.random_pixel_set config g ~k in
      let arr = Array.of_list pairs in
      for i = Array.length arr - 1 downto 1 do
        let j = Prng.int g (i + 1) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t
      done;
      Space.set_key ~d2 pairs = Space.set_key ~d2 (Array.to_list arr))

(* (3) Patch candidates never leave the image: for arbitrary image and
   patch shapes, every anchor's cells are in bounds (and the anchor list
   is empty exactly when the patch cannot fit), so [perturb_patch]
   accepts every enumerated anchor. *)
let qcheck_patch_candidates_in_bounds =
  QCheck.Test.make ~name:"patch candidates stay inside the image" ~count:300
    QCheck.small_int (fun seed ->
      let g = Prng.of_int (seed + 2) in
      let d1 = 1 + Prng.int g 8 and d2 = 1 + Prng.int g 8 in
      let h = 1 + Prng.int g 5 and w = 1 + Prng.int g 5 in
      let anchors = Location.patch_anchors ~d1 ~d2 ~h ~w in
      let fits = h <= d1 && w <= d2 in
      let enumeration_ok =
        if fits then List.length anchors = (d1 - h + 1) * (d2 - w + 1)
        else anchors = []
      in
      let cells_ok =
        List.for_all
          (fun anchor ->
            List.for_all
              (Location.in_bounds ~d1 ~d2)
              (Location.patch_cells ~anchor ~h ~w))
          anchors
      in
      let perturb_ok =
        match anchors with
        | [] -> true
        | _ ->
            let image = Tensor.create [| 3; d1; d2 |] 0.5 in
            let anchor = List.nth anchors (Prng.int g (List.length anchors)) in
            let x' =
              Space.perturb_patch image ~anchor ~h ~w ~corner:(Prng.int g 8)
            in
            Tensor.shape x' = Tensor.shape image
      in
      enumeration_ok && cells_ok && perturb_ok)

(* (4) The label-flip predicate (Score_diff > 1/2 on decision-mode
   observations) agrees with the argmax of the raw score oracle: the
   one-hot collapse loses scores but never the label. *)
let qcheck_label_flip_agrees_with_argmax =
  QCheck.Test.make ~name:"label-flip predicate = argmax of score oracle"
    ~count:300 QCheck.small_int (fun seed ->
      let g = Prng.of_int (seed + 3) in
      let size = 4 in
      let o = Helpers.mean_threshold_oracle () in
      let image = Tensor.rand_uniform g ~lo:0.3 ~hi:0.7 [| 3; size; size |] in
      let clean_raw = Helpers.query o image in
      let true_class = Tensor.argmax clean_raw in
      let pair = Gen.random_pair { Gen.d1 = size; d2 = size } g in
      let pert_raw = Helpers.query o (Oppsla.Sketch.perturb image pair) in
      Oracle.set_mode o Oracle.Decision;
      let ctx =
        {
          Condition.d1 = size;
          d2 = size;
          image;
          true_class;
          clean_scores = Oracle.observe o clean_raw;
          pair;
          perturbed_scores = Oracle.observe o pert_raw;
        }
      in
      let flip_predicate =
        Condition.eval
          (Condition.Cmp
             { func = Condition.Score_diff; cmp = Condition.Gt; threshold = 0.5 })
          ctx
      in
      let flipped = Tensor.argmax pert_raw <> true_class in
      flip_predicate = flipped
      && Tensor.argmax (Oracle.observe o pert_raw) = Tensor.argmax pert_raw)

(* (5) The label-only comparison on a corpus where only the corner
   choice matters: flat images at v = 0.5 - 0.3/d^2 against the
   mean-threshold oracle, so exactly one of the eight RGB corners
   (all-ones) flips any single pixel.  A decision-mode Sparse-RS keeps
   one structural edge over blind sampling — its exploit step redraws
   the current pixel's corner without repeating it (7 candidates, one a
   winner) where the uniform baseline redraws from all 8 — so over a
   large corpus it must spend fewer queries.  Each attack runs on its
   own named PRNG stream, so every total is pinned exactly, and each
   space x oracle-mode sweep is run at batch widths 1 and 16 with
   per-image (queries, success) records required equal. *)
type corpus = {
  size : int;
  sweep_images : int;
  cap : int;
  random_queries : int;
  sparse_rs_queries : int;
  sweep_queries : int list;
      (* pixel, kpixel:2, patch:2x2, each score then decision *)
}

let corpora =
  [
    ( "8x8 corpus",
      {
        size = 8;
        sweep_images = 12;
        cap = 64;
        random_queries = 63494;
        sparse_rs_queries = 61357;
        sweep_queries = [ 105; 74; 41; 57; 27; 33 ];
      } );
    ( "16x16 corpus",
      {
        size = 16;
        sweep_images = 24;
        cap = 128;
        random_queries = 63516;
        sparse_rs_queries = 63100;
        sweep_queries = [ 257; 168; 72; 76; 57; 49 ];
      } );
  ]

let decision_beats_random c () =
  let module Sparse_rs = Baselines.Sparse_rs in
  let n_images = 8000 and true_class = 0 in
  let v = 0.5 -. (0.3 /. float_of_int (c.size * c.size)) in
  let image = Helpers.flat_image ~size:c.size v in
  let g0 = Prng.of_int 41 in
  let stream name = Prng.named_stream (Prng.copy g0) name in
  let decision_oracle () =
    let o = Helpers.mean_threshold_oracle () in
    Oracle.set_mode o Oracle.Decision;
    o
  in
  (* The label-only floor: redraw a (location, corner) pair uniformly
     with replacement until the observed label flips. *)
  let random_baseline g =
    let o = decision_oracle () in
    let config = Gen.config_for_image image in
    let rec go q =
      if q >= c.cap then q
      else
        let pair = Gen.random_pair config g in
        let s = Helpers.query o (Oppsla.Sketch.perturb image pair) in
        if Tensor.argmax s <> true_class then q + 1 else go (q + 1)
    in
    go 0
  in
  let sparse_rs g =
    let config =
      { (Sparse_rs.default_config ~max_queries:c.cap) with min_explore = 0.0 }
    in
    (Sparse_rs.attack ~config g (decision_oracle ()) ~image ~true_class)
      .Oppsla.Sketch.queries
  in
  let total name attack =
    let q = ref 0 in
    for i = 0 to n_images - 1 do
      q := !q + attack (stream (Printf.sprintf "%s/%d" name i))
    done;
    !q
  in
  let random_q = total "scenarios/random" random_baseline in
  let sparse_rs_q = total "scenarios/sparse-rs" sparse_rs in
  Alcotest.(check int) "uniform random total queries" c.random_queries random_q;
  Alcotest.(check int) "decision Sparse-RS total queries" c.sparse_rs_queries
    sparse_rs_q;
  Alcotest.(check bool) "decision Sparse-RS beats uniform random" true
    (sparse_rs_q < random_q);
  let cells =
    List.concat_map
      (fun space ->
        List.map
          (fun mode -> (space, mode))
          [ (Oracle.Score, "score"); (Oracle.Decision, "decision") ])
      [ Space.Pixel; Space.Kpixel 2; Space.Patch { h = 2; w = 2 } ]
  in
  List.iter2
    (fun (space, (mode, mode_name)) expected ->
      let cell = Printf.sprintf "%s/%s" (Space.to_string space) mode_name in
      let run batch =
        Array.init c.sweep_images (fun i ->
            let o = Helpers.mean_threshold_oracle () in
            Oracle.set_mode o mode;
            let g = stream (Printf.sprintf "scenarios/sweep/%s/%d" cell i) in
            let r =
              Sparse_rs.attack_space
                ~config:(Sparse_rs.default_config ~max_queries:c.cap)
                ~batch ~space g o ~image ~true_class
            in
            (r.Sparse_rs.queries, r.Sparse_rs.adversarial <> None))
      in
      let r1 = run 1 in
      Alcotest.(check (array (pair int bool)))
        (cell ^ ": batch 16 = batch 1") r1 (run 16);
      Alcotest.(check int) (cell ^ ": total queries") expected
        (Array.fold_left (fun a (q, _) -> a + q) 0 r1);
      Alcotest.(check int) (cell ^ ": flipped") c.sweep_images
        (Array.fold_left (fun a (_, ok) -> a + Bool.to_int ok) 0 r1))
    cells c.sweep_queries

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_decision_metering;
    QCheck_alcotest.to_alcotest qcheck_kpixel_key_order_insensitive;
    QCheck_alcotest.to_alcotest qcheck_patch_candidates_in_bounds;
    QCheck_alcotest.to_alcotest qcheck_label_flip_agrees_with_argmax;
  ]
  @ List.map
      (fun (name, c) ->
        Alcotest.test_case
          (name ^ ": decision Sparse-RS beats uniform random")
          `Quick (decision_beats_random c))
      corpora
