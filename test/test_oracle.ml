(* Tests for the query-metered oracle. *)

let image = Helpers.flat_image ~size:4 0.6

let counting () =
  let o = Helpers.mean_threshold_oracle () in
  Alcotest.(check int) "starts at 0" 0 (Oracle.queries o);
  ignore (Helpers.query o image);
  ignore (Helpers.query o image);
  ignore (Helpers.query o image);
  Alcotest.(check int) "three queries" 3 (Oracle.queries o)

let classify_bright_dark () =
  let o = Helpers.mean_threshold_oracle () in
  let classify x = Tensor.argmax (Helpers.query o x) in
  Alcotest.(check int) "bright is class 1" 1
    (classify (Helpers.flat_image ~size:4 0.9));
  Alcotest.(check int) "dark is class 0" 0
    (classify (Helpers.flat_image ~size:4 0.1));
  Alcotest.(check int) "unmetered agrees" 1
    (Oracle.unmetered_classify o (Helpers.flat_image ~size:4 0.9))

let unmetered_does_not_count () =
  let o = Helpers.mean_threshold_oracle () in
  ignore (Oracle.unmetered_classify o image);
  ignore (Oracle.unmetered_scores o image);
  Alcotest.(check int) "not counted" 0 (Oracle.queries o)

let of_fn_validates_classes () =
  Alcotest.(check bool) "num_classes <= 0 raises" true
    (try
       ignore (Oracle.of_fn ~num_classes:0 (fun _ -> Tensor.zeros [| 0 |]));
       false
     with Invalid_argument _ -> true);
  let bad =
    Oracle.of_fn ~num_classes:3 (fun _ -> Tensor.zeros [| 2 |])
  in
  Alcotest.(check bool) "wrong vector length raises" true
    (try
       ignore (Oracle.forward bad image);
       false
     with Invalid_argument _ -> true);
  let two =
    Oracle.of_fn ~num_classes:2
      ~batch_fn:(fun xs ->
        Array.map (fun _ -> Tensor.zeros [| 2 |]) (Array.append xs xs))
      (fun _ -> Tensor.zeros [| 2 |])
  in
  Alcotest.(check bool) "batch_fn answering two vectors for one raises" true
    (try
       ignore (Oracle.forward two image);
       false
     with Invalid_argument _ -> true)

let clone_independent_and_cacheless () =
  let o = Helpers.mean_threshold_oracle () in
  ignore (Helpers.query o image);
  Oracle.set_cache o (Some (Score_cache.create ()));
  let c = Oracle.clone o in
  Alcotest.(check int) "clone counter starts at 0" 0 (Oracle.queries c);
  Alcotest.(check string) "clone keeps the name" (Oracle.name o)
    (Oracle.name c);
  Alcotest.(check int) "clone keeps the classes" (Oracle.num_classes o)
    (Oracle.num_classes c);
  (* A clone is meant to cross a domain boundary, so it must not alias
     the parent's unsynchronized memo table. *)
  Alcotest.(check bool) "clone drops the cache" true (Oracle.cache c = None);
  Alcotest.(check bool) "parent keeps the cache" true
    (Oracle.cache o <> None);
  ignore (Helpers.query c image);
  Alcotest.(check int) "counters are independent" 1 (Oracle.queries o)

let decision_mode_observe () =
  let o = Helpers.mean_threshold_oracle () in
  let bright = Helpers.flat_image ~size:4 0.9 in
  let s = Helpers.query o bright in
  Alcotest.(check bool) "score-mode observe is the identity" true
    (Oracle.observe o s == s);
  Oracle.set_mode o Oracle.Decision;
  let h = Oracle.observe o s in
  Alcotest.(check (float 1e-9)) "winner collapses to 1" 1.0
    (Tensor.get_flat h 1);
  Alcotest.(check (float 1e-9)) "loser collapses to 0" 0.0
    (Tensor.get_flat h 0);
  (* A label-only decision is a metered query, observed by the batcher. *)
  let decide x = Tensor.argmax (Helpers.query o x) in
  Alcotest.(check int) "decision = argmax" 1 (decide bright);
  Alcotest.(check int) "each decision is metered" 2 (Oracle.queries o)

(* The clone contract for decision mode, pinned: the cache (per-image
   mutable working state) is dropped, the counter restarts — and the
   mode (the threat-model identity of the oracle) is PRESERVED, as an
   independent copy. *)
let clone_mode_contract () =
  let o = Helpers.mean_threshold_oracle () in
  Oracle.set_mode o Oracle.Decision;
  Oracle.set_cache o (Some (Score_cache.create ()));
  ignore (Helpers.query o image);
  let c = Oracle.clone o in
  Alcotest.(check bool) "clone preserves Decision mode" true
    (Oracle.mode c = Oracle.Decision);
  Alcotest.(check bool) "clone still drops the cache" true
    (Oracle.cache c = None);
  Alcotest.(check int) "clone still resets the counter" 0 (Oracle.queries c);
  (* The copy is independent in both directions. *)
  Oracle.set_mode c Oracle.Score;
  Alcotest.(check bool) "flipping the clone leaves the parent" true
    (Oracle.mode o = Oracle.Decision);
  Oracle.set_mode c Oracle.Decision;
  Oracle.set_mode o Oracle.Score;
  Alcotest.(check bool) "flipping the parent leaves the clone" true
    (Oracle.mode c = Oracle.Decision);
  Alcotest.(check bool) "score-mode clone stays in score mode" true
    (Oracle.mode (Oracle.clone o) = Oracle.Score)

let of_network_metadata () =
  let net =
    Nn.Zoo.vgg_tiny (Prng.of_int 3) ~image_size:16 ~num_classes:10
  in
  let o = Oracle.of_network net in
  Alcotest.(check int) "classes" 10 (Oracle.num_classes o);
  Alcotest.(check string) "name" "vgg_tiny" (Oracle.name o)

let suite =
  [
    Alcotest.test_case "query counting" `Quick counting;
    Alcotest.test_case "classify bright/dark" `Quick classify_bright_dark;
    Alcotest.test_case "unmetered calls" `Quick unmetered_does_not_count;
    Alcotest.test_case "of_fn validation" `Quick of_fn_validates_classes;
    Alcotest.test_case "clone: fresh counter, no cache" `Quick
      clone_independent_and_cacheless;
    Alcotest.test_case "decision mode: decide and observe" `Quick
      decision_mode_observe;
    Alcotest.test_case "clone: mode preserved, independent" `Quick
      clone_mode_contract;
    Alcotest.test_case "of_network metadata" `Quick of_network_metadata;
  ]
