(* Tests for Algorithm 1 (the one-pixel attack sketch).

   Most tests run against the mean-threshold toy classifier from
   [Helpers]: class 1 iff the image mean exceeds 0.5.  Its geometry is
   exact: perturbing pixel (i,j) of a flat image of brightness v to
   corner (r,g,b) moves the mean by (r+g+b-3v) / (3*size^2), so we can
   predict precisely which images are attackable and by which corners. *)

module C = Oppsla.Condition
module Sketch = Oppsla.Sketch
module Pair = Oppsla.Pair
module Location = Oppsla.Location

let size = 4
let full_space = 8 * size * size

(* Brightness 0.49: class 0; corners with r+g+b >= 2 flip it.
   Brightness 0.30: class 0; no corner can flip it. *)
let attackable = Helpers.flat_image ~size 0.49
let hopeless = Helpers.flat_image ~size 0.30

let oracle () = Helpers.mean_threshold_oracle ()

let perturb_changes_three_values () =
  let img = Helpers.flat_image ~size 0.2 in
  let pair = Pair.make ~loc:(Location.make ~row:1 ~col:2) ~corner:7 in
  let img' = Sketch.perturb img pair in
  Alcotest.(check (float 0.)) "original untouched" 0.2
    (Tensor.get img [| 0; 1; 2 |]);
  Alcotest.(check (float 0.)) "red written" 1. (Tensor.get img' [| 0; 1; 2 |]);
  Alcotest.(check (float 0.)) "green written" 1. (Tensor.get img' [| 1; 1; 2 |]);
  Alcotest.(check (float 0.)) "blue written" 1. (Tensor.get img' [| 2; 1; 2 |]);
  let diff = ref 0 in
  for i = 0 to Tensor.numel img - 1 do
    if Tensor.get_flat img i <> Tensor.get_flat img' i then incr diff
  done;
  Alcotest.(check int) "exactly three values changed" 3 !diff

let success_exists_ground_truth () =
  Alcotest.(check bool) "0.49 attackable" true
    (Sketch.success_exists (oracle ()) ~image:attackable ~true_class:0);
  Alcotest.(check bool) "0.30 hopeless" false
    (Sketch.success_exists (oracle ()) ~image:hopeless ~true_class:0)

let const_false_first_query_succeeds () =
  (* On a flat 0.49 image the farthest corner from every pixel is white
     (distance 1.53 vs 1.47 for black), and white flips the class, so
     the fixed prioritization succeeds on its very first query, at the
     center-most location. *)
  let r =
    Sketch.attack (oracle ()) C.const_false_program ~image:attackable
      ~true_class:0
  in
  Alcotest.(check int) "one query" 1 r.Sketch.queries;
  match r.Sketch.adversarial with
  | None -> Alcotest.fail "expected success"
  | Some (pair, adversarial) ->
      Alcotest.(check int) "white corner" 7 pair.Pair.corner;
      Alcotest.(check (float 1e-9)) "center-most location" 0.5
        (Location.center_distance ~d1:size ~d2:size pair.Pair.loc);
      Alcotest.(check int) "flips the class" 1
        (Oracle.unmetered_classify (oracle ()) adversarial)

let const_false_bright_image () =
  (* Brightness 0.51, class 1: black is the farthest corner and flips. *)
  let image = Helpers.flat_image ~size 0.51 in
  let r =
    Sketch.attack (oracle ()) C.const_false_program ~image ~true_class:1
  in
  Alcotest.(check int) "one query" 1 r.Sketch.queries;
  match r.Sketch.adversarial with
  | None -> Alcotest.fail "expected success"
  | Some (pair, _) -> Alcotest.(check int) "black corner" 0 pair.Pair.corner

let hopeless_exhausts_space () =
  let r =
    Sketch.attack (oracle ()) C.const_false_program ~image:hopeless
      ~true_class:0
  in
  Alcotest.(check bool) "no adversarial" true (r.Sketch.adversarial = None);
  Alcotest.(check int) "full enumeration" full_space r.Sketch.queries

(* The queue-reordering logic must neither skip nor double-query pairs:
   on a hopeless image EVERY program spends exactly the full space. *)
let qcheck_exhaustive_for_all_programs =
  let config = Helpers.gen_config ~size in
  QCheck.Test.make ~name:"any program enumerates the whole space" ~count:60
    QCheck.small_int (fun seed ->
      let g = Prng.of_int seed in
      let program = Oppsla.Gen.random_program config g in
      let r =
        Sketch.attack (oracle ()) program ~image:hopeless ~true_class:0
      in
      r.Sketch.adversarial = None && r.Sketch.queries = full_space)

let eager_program_exhausts_too () =
  (* All-true conditions exercise the eager phase heavily. *)
  let program =
    C.program_of_array
      [| C.Const true; C.Const true; C.Const true; C.Const true |]
  in
  let r = Sketch.attack (oracle ()) program ~image:hopeless ~true_class:0 in
  Alcotest.(check int) "still full enumeration" full_space r.Sketch.queries

(* Success never depends on the program (Section 3: every instantiation
   explores the same space). *)
let qcheck_success_program_independent =
  let config = Helpers.gen_config ~size in
  QCheck.Test.make ~name:"success is program-independent" ~count:60
    QCheck.small_int (fun seed ->
      let g = Prng.of_int seed in
      let program = Oppsla.Gen.random_program config g in
      let r =
        Sketch.attack (oracle ()) program ~image:attackable ~true_class:0
      in
      match r.Sketch.adversarial with
      | None -> false
      | Some (pair, _) ->
          (* Any returned pair must genuinely flip the class, and the
             count stays within the space. *)
          let img' = Sketch.perturb attackable pair in
          Oracle.unmetered_classify (oracle ()) img' = 1
          && r.Sketch.queries >= 1
          && r.Sketch.queries <= full_space)

let max_queries_respected () =
  let r =
    Sketch.attack ~max_queries:10 (oracle ()) C.const_false_program
      ~image:hopeless ~true_class:0
  in
  Alcotest.(check int) "capped" 10 r.Sketch.queries;
  Alcotest.(check bool) "failed" true (r.Sketch.adversarial = None)

let max_queries_zero () =
  let r =
    Sketch.attack ~max_queries:0 (oracle ()) C.const_false_program
      ~image:attackable ~true_class:0
  in
  Alcotest.(check int) "no queries" 0 r.Sketch.queries;
  Alcotest.(check bool) "failed" true (r.Sketch.adversarial = None)

let deterministic () =
  let run () =
    Sketch.attack (oracle ())
      (Oppsla.Dsl.parse_program_exn
         "B1: avg(orig) < 0.6; B2: max(pert) > 0.5; B3: score_diff > 0.01; \
          B4: center < 2")
      ~image:attackable ~true_class:0
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same queries" a.Sketch.queries b.Sketch.queries;
  Alcotest.(check bool) "same outcome" true
    (match (a.Sketch.adversarial, b.Sketch.adversarial) with
    | Some (p, _), Some (q, _) -> Pair.equal p q
    | None, None -> true
    | Some _, None | None, Some _ -> false)

(* A B1 condition that always holds pushes all same-corner neighbours of
   a failed pair to the back, changing the visit order but nothing
   else. *)
let reordering_changes_order_not_totals () =
  let always_b1 =
    C.program_of_array
      [| C.Const true; C.Const false; C.Const false; C.Const false |]
  in
  let base =
    Sketch.attack (oracle ()) C.const_false_program ~image:hopeless
      ~true_class:0
  in
  let reordered =
    Sketch.attack (oracle ()) always_b1 ~image:hopeless ~true_class:0
  in
  Alcotest.(check int) "same total" base.Sketch.queries reordered.Sketch.queries

(* Rigged non-flat image: exactly one location is attackable (a pixel at
   0.5-epsilon in an otherwise hopeless image would not isolate by
   location since the mean is global; instead rig an oracle keyed to one
   pixel). *)
let pinpoint_oracle () =
  (* Class flips iff pixel (2,1) is exactly white. *)
  Oracle.of_fn ~name:"pinpoint" ~num_classes:2 (fun x ->
      let r = Tensor.get x [| 0; 2; 1 |]
      and g = Tensor.get x [| 1; 2; 1 |]
      and b = Tensor.get x [| 2; 2; 1 |] in
      if r = 1. && g = 1. && b = 1. then Tensor.of_array [| 2 |] [| 0.; 1. |]
      else Tensor.of_array [| 2 |] [| 1.; 0. |])

let finds_the_needle () =
  let image = Helpers.flat_image ~size 0.3 in
  let r =
    Sketch.attack (pinpoint_oracle ()) C.const_false_program ~image
      ~true_class:0
  in
  match r.Sketch.adversarial with
  | None -> Alcotest.fail "expected to find the unique adversarial pair"
  | Some (pair, _) ->
      Alcotest.(check bool) "right location" true
        (Location.equal pair.Pair.loc (Location.make ~row:2 ~col:1));
      Alcotest.(check int) "white" 7 pair.Pair.corner

let qcheck_needle_found_by_all_programs =
  let config = Helpers.gen_config ~size in
  QCheck.Test.make ~name:"every program finds a unique needle" ~count:40
    QCheck.small_int (fun seed ->
      let g = Prng.of_int seed in
      let program = Oppsla.Gen.random_program config g in
      let image = Helpers.flat_image ~size 0.3 in
      let r =
        Sketch.attack (pinpoint_oracle ()) program ~image ~true_class:0
      in
      match r.Sketch.adversarial with
      | Some (pair, _) ->
          Location.equal pair.Pair.loc (Location.make ~row:2 ~col:1)
          && pair.Pair.corner = 7
      | None -> false)

(* {1 Slot hygiene}

   [attack] forwards every candidate from one in-place slot, reused
   across queries.  A recording [batch_fn] snapshots every input it is
   handed; each snapshot must differ from the image in exactly one pixel
   and equal [perturb image pair] for the pair that pixel decodes to.
   The scores carry a position-weighted checksum of the input, so every
   answer the attack consumes must also equal the answer for its own
   key's perturbed image. *)

let checksum_scores x =
  let m = Tensor.mean x and acc = ref 0. in
  for i = 0 to Tensor.numel x - 1 do
    acc := !acc +. (Tensor.get_flat x i /. (float_of_int i +. 1.37))
  done;
  Tensor.of_array [| 3 |] [| 1. -. m; m; 0.001 *. !acc |]

exception Injected

(* The first forward pass for which [fail ~call] holds raises
   [Injected]; later ones succeed. *)
let recording_oracle ?(fail = fun ~call:_ -> false) seen =
  let calls = ref 0 and failed = ref false in
  let batch_fn xs =
    incr calls;
    Array.iter (fun x -> seen := Tensor.copy x :: !seen) xs;
    if (not !failed) && fail ~call:!calls then begin
      failed := true;
      raise Injected
    end;
    Array.map checksum_scores xs
  in
  Oracle.of_fn ~batch_fn ~name:"recording" ~num_classes:3 checksum_scores

(* The pair whose perturbation [x] is, if [x] differs from [image] in
   exactly one pixel and that pixel holds a corner. *)
let decode ~image x =
  let moved = ref [] in
  for row = 0 to size - 1 do
    for col = 0 to size - 1 do
      if
        List.exists
          (fun c ->
            let at = [| c; row; col |] in
            Tensor.get x at <> Tensor.get image at)
          [ 0; 1; 2 ]
      then moved := (row, col) :: !moved
    done
  done;
  match !moved with
  | [ (row, col) ] -> (
      match Oppsla.Rgb.corner_index (Oppsla.Rgb.of_image x ~row ~col) with
      | Some corner ->
          Some (Pair.make ~loc:(Location.make ~row ~col) ~corner)
      | None -> None)
  | _ -> None

let check_snapshots name ~image seen =
  List.iter
    (fun x ->
      match decode ~image x with
      | None ->
          Alcotest.failf "%s: a forwarded input is no one-pixel candidate" name
      | Some pair ->
          if x.Tensor.data <> (Sketch.perturb image pair).Tensor.data then
            Alcotest.failf "%s: forwarded input differs from perturb" name)
    seen

(* A hopeless image with distinct non-corner pixels: every attack walks
   the whole space, and B1 (push back) plus B4 (eager check) fire on
   every failed pair, so the queue is edited and the slot reused
   often. *)
let hygiene_image () =
  Tensor.rand_uniform (Prng.of_int 11) ~lo:0.2 ~hi:0.4 [| 3; size; size |]

let hygiene_program =
  C.program_of_array
    [| C.Const true; C.Const false; C.Const false; C.Const true |]

let slot_hygiene () =
  let image = hygiene_image () in
  List.iter
    (fun cached ->
      let name = Printf.sprintf "cache %b" cached in
      let seen = ref [] in
      let o = recording_oracle seen in
      if cached then Oracle.set_cache o (Some (Score_cache.create ()));
      let consumed_exact = ref true in
      let on_query _ pair scores =
        let expected = checksum_scores (Sketch.perturb image pair) in
        if scores.Tensor.data <> expected.Tensor.data then
          consumed_exact := false
      in
      (* With the cache on, a capped first attack leaves a prefix of the
         space cached, so the full attack mixes cache-first answers with
         forwarded ones — the pattern of re-running programs during
         synthesis. *)
      if cached then
        ignore
          (Sketch.attack ~max_queries:40 o hygiene_program ~image
             ~true_class:0);
      let r = Sketch.attack ~on_query o hygiene_program ~image ~true_class:0 in
      Alcotest.(check int) (name ^ ": full enumeration") full_space
        r.Sketch.queries;
      Alcotest.(check bool) (name ^ ": answers match their keys") true
        !consumed_exact;
      Alcotest.(check bool) (name ^ ": inputs were forwarded") true
        (!seen <> []);
      check_snapshots name ~image !seen)
    [ false; true ]

(* A [batch_fn] that raises once, in the middle of the attack, leaves
   the meter at the queries consumed so far, and the next attack on the
   same oracle (and cache) still forwards exact inputs. *)
let slot_hygiene_after_failure () =
  let image = hygiene_image () in
  List.iter
    (fun cached ->
      let name = Printf.sprintf "cache %b" cached in
      let seen = ref [] in
      let fail ~call = call >= 3 in
      let o = recording_oracle ~fail seen in
      if cached then Oracle.set_cache o (Some (Score_cache.create ()));
      let consumed = ref 0 in
      let on_query n _ _ = consumed := n in
      (match Sketch.attack ~on_query o hygiene_program ~image ~true_class:0 with
      | _ -> Alcotest.failf "%s: the injected failure did not surface" name
      | exception Injected -> ());
      Alcotest.(check int) (name ^ ": meter = queries consumed") !consumed
        (Oracle.queries o);
      check_snapshots name ~image !seen;
      seen := [];
      let before = Oracle.queries o in
      let r = Sketch.attack o hygiene_program ~image ~true_class:0 in
      Alcotest.(check int) (name ^ ": next attack complete") full_space
        r.Sketch.queries;
      Alcotest.(check int) (name ^ ": next attack metered") full_space
        (Oracle.queries o - before);
      check_snapshots (name ^ ", next attack") ~image !seen)
    [ false; true ]

(* Allocation pin for the warm query path.  A second attack on the same
   cache finds every key resident, so each query is answered by the
   batcher's cache path: no forward pass and no input.  With no
   journal or trace open, what it allocates per query is the
   interpreter's own cost; a change that brings back a per-query
   [Pair.t], option, list, context record, boxed float or closure
   pushes it over the bound.  The program's holes cover every compiled
   kind ([pert], [orig], [center], [score_diff]) and fire, so the
   neighbour visit and the eager phase both run.  Under a label-only
   oracle every answer is observed as a one-hot vector, which must not
   be built per query either. *)
let warm_program =
  C.program_of_array
    [|
      C.Cmp { func = C.Max C.Pert; cmp = C.Gt; threshold = 0.5 };
      C.Cmp { func = C.Avg C.Orig; cmp = C.Lt; threshold = 0.3 };
      C.Cmp { func = C.Center; cmp = C.Lt; threshold = 3. };
      C.Cmp { func = C.Score_diff; cmp = C.Gt; threshold = 0. };
    |]

let warm_words_per_query ~mode ~d ~max_queries =
  let image =
    Tensor.rand_uniform (Prng.of_int 12) ~lo:0.2 ~hi:0.4 [| 3; d; d |]
  in
  let o = Helpers.mean_threshold_oracle () in
  Oracle.set_mode o mode;
  let cache = Score_cache.create () in
  Oracle.set_cache o (Some cache);
  let attack () =
    Sketch.attack ~max_queries o warm_program ~image ~true_class:0
  in
  ignore (attack ());
  let misses = (Score_cache.stats cache).misses in
  let before = Gc.minor_words () in
  let r = attack () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every key was cached" misses
    (Score_cache.stats cache).misses;
  words /. float_of_int r.Sketch.queries

(* Bounds, from measured values of 0.72 and 0.35 (the whole 16x16
   space, 2048 queries, score and label-only) and 11.1 in both modes (a
   64-query attack, the length of a synthesis attack, so the per-attack
   set-up of about 700 words is in it).  A per-query allocation of two
   words (one option or boxed float) breaks the first; the second
   leaves the set-up about 300 words of room, less than a centre-order
   table (about 560 words) rebuilt per attack. *)
let warm_attack_allocation () =
  Alcotest.(check bool) "no journal or trace open" false
    (Telemetry.Journal.enabled () || Telemetry.Trace.enabled ());
  let check name ~mode ~max_queries ~bound =
    let w = warm_words_per_query ~mode ~d:16 ~max_queries in
    if w > bound then
      Alcotest.failf "%s: %.2f minor words per warm query, bound %.1f" name w
        bound
  in
  check "whole space" ~mode:Oracle.Score ~max_queries:2048 ~bound:2.5;
  check "64-query attack" ~mode:Oracle.Score ~max_queries:64 ~bound:16.;
  check "whole space, label-only" ~mode:Oracle.Decision ~max_queries:2048
    ~bound:2.5;
  check "64-query attack, label-only" ~mode:Oracle.Decision ~max_queries:64
    ~bound:16.

(* The same whole-space bound inside an observed run that opens no
   trace or journal ([--metrics FILE] alone): the observability bracket
   must render nothing per span or per heartbeat, so a warm query costs
   what it costs in a bare run. *)
let warm_attack_allocation_observed () =
  let tmp = Filename.temp_file "oppsla_warm_metrics" ".json" in
  let obs =
    Telemetry.Obs.start { Telemetry.Obs.default with metrics = Some tmp }
  in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Obs.stop obs;
      Printexc.set_uncaught_exception_handler
        Printexc.default_uncaught_exception_handler;
      Sys.remove tmp)
    (fun () ->
      List.iter
        (fun (name, mode) ->
          let w = warm_words_per_query ~mode ~d:16 ~max_queries:2048 in
          if w > 2.5 then
            Alcotest.failf
              "%s under --metrics: %.2f minor words per warm query, bound 2.5"
              name w)
        [
          ("whole space", Oracle.Score);
          ("whole space, label-only", Oracle.Decision);
        ])

(* The shared key tables name exactly the keys [cache_key] builds, so
   caching and batching see the same keys as before they were shared;
   the typed equality agrees with structural equality. *)
let corner_keys_match () =
  List.iter
    (fun (d1, d2) ->
      let keys = Sketch.corner_keys ~d1 ~d2 in
      let name = Printf.sprintf "%dx%d" d1 d2 in
      Alcotest.(check int) (name ^ ": one key per pair") (Pair.count ~d1 ~d2)
        (Array.length keys);
      Array.iteri
        (fun id key ->
          let built = Sketch.cache_key (Pair.of_id ~d2 id) in
          if
            not
              (key = built
              && Score_cache.equal_key key built)
          then Alcotest.failf "%s: key %d differs from cache_key" name id)
        keys;
      Alcotest.(check bool) (name ^ ": one shared table") true
        (keys == Sketch.corner_keys ~d1 ~d2))
    [ (16, 16); (24, 24); (3, 5) ];
  let k = Sketch.corner_keys ~d1:4 ~d2:4 in
  Alcotest.(check bool) "distinct pairs, distinct keys" false
    (Score_cache.equal_key k.(0) k.(1) || Score_cache.equal_key k.(0) k.(8));
  Alcotest.(check bool) "kinds differ" false
    (Score_cache.equal_key Score_cache.Clean (Score_cache.Custom "clean"))

let suite =
  [
    Alcotest.test_case "corner keys match cache_key" `Quick corner_keys_match;
    Alcotest.test_case "warm attack allocation" `Quick warm_attack_allocation;
    Alcotest.test_case "warm attack allocation under --metrics" `Quick
      warm_attack_allocation_observed;
    Alcotest.test_case "perturb changes three values" `Quick
      perturb_changes_three_values;
    Alcotest.test_case "success_exists ground truth" `Quick
      success_exists_ground_truth;
    Alcotest.test_case "const false first query" `Quick
      const_false_first_query_succeeds;
    Alcotest.test_case "const false bright image" `Quick
      const_false_bright_image;
    Alcotest.test_case "hopeless exhausts space" `Quick hopeless_exhausts_space;
    Alcotest.test_case "eager program exhausts too" `Quick
      eager_program_exhausts_too;
    Alcotest.test_case "max_queries respected" `Quick max_queries_respected;
    Alcotest.test_case "max_queries zero" `Quick max_queries_zero;
    Alcotest.test_case "deterministic" `Quick deterministic;
    Alcotest.test_case "reordering preserves totals" `Quick
      reordering_changes_order_not_totals;
    Alcotest.test_case "finds the needle" `Quick finds_the_needle;
    QCheck_alcotest.to_alcotest qcheck_exhaustive_for_all_programs;
    QCheck_alcotest.to_alcotest qcheck_success_program_independent;
    QCheck_alcotest.to_alcotest qcheck_needle_found_by_all_programs;
    Alcotest.test_case "slot hygiene: forwarded inputs = perturb" `Quick
      slot_hygiene;
    Alcotest.test_case "slot hygiene: exact after a batch_fn failure" `Quick
      slot_hygiene_after_failure;
  ]
