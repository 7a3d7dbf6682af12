(* Properties of the scenario matrix: decision-based (label-only)
   oracles and the k-pixel / patch perturbation spaces.  These pin the
   invariants the scenario-differential grid in diff_runner relies on:
   mode-blind metering, order-insensitive set keys, in-bounds patch
   candidates and the degradation of score-based conditions to
   label-flip predicates. *)

module Space = Oppsla.Space
module Location = Oppsla.Location
module Gen = Oppsla.Gen
module Condition = Oppsla.Condition

(* (1) Decision-oracle metering charges exactly one query per call —
   cache hits included — through the cached query path at widths 1 and
   16. *)
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
      List.for_all
        (fun width ->
          let o = Helpers.mean_threshold_oracle () in
          Oracle.set_mode o Oracle.Decision;
          let t = Batcher.create ~cache:(Score_cache.create ()) ~width o in
          let ask () =
            ignore (Batcher.query t ~speculate:(fun _ -> Some cand) cand)
          in
          for _ = 1 to calls do
            ask ()
          done;
          Oracle.queries o = calls)
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
      let clean_raw = Oracle.scores o image in
      let true_class = Tensor.argmax clean_raw in
      let pair = Gen.random_pair { Gen.d1 = size; d2 = size } g in
      let pert_raw = Oracle.scores o (Oppsla.Sketch.perturb image pair) in
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

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_decision_metering;
    QCheck_alcotest.to_alcotest qcheck_kpixel_key_order_insensitive;
    QCheck_alcotest.to_alcotest qcheck_patch_candidates_in_bounds;
    QCheck_alcotest.to_alcotest qcheck_label_flip_agrees_with_argmax;
  ]
