(* The batched-inference differential suite.

   Two contracts are enforced here.  First, the im2col+GEMM engine is a
   pure reformulation: matmul agrees with the naive triple loop exactly,
   conv2d_gemm_batch agrees with the direct conv loop of
   Helpers.naive_conv bit-for-bit, and row [i] of the compiled boxed
   plan equals the single-image Network.scores of image [i]
   element-for-element, for every zoo architecture (the same float64
   kernels on both sides, so that check covers the plan compiler).
   Second, the batcher's one-candidate query step meters exactly: every
   query is charged once, in the order posed, whether the cache answers
   it or it is forwarded; a cache hit forwards nothing; and a forward
   pass that raises charges nothing. *)

module Sketch = Oppsla.Sketch
module C = Oppsla.Condition

let size = 4

(* {1 Kernels} *)

let matmul_golden () =
  let a = Tensor.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let b = Tensor.of_array [| 3; 2 |] [| 7.; 8.; 9.; 10.; 11.; 12. |] in
  Alcotest.(check (array (float 0.)))
    "2x3 * 3x2" [| 58.; 64.; 139.; 154. |] (Tensor.matmul a b).Tensor.data;
  Alcotest.(check (list int))
    "result shape" [ 2; 2 ]
    (Array.to_list (Tensor.shape (Tensor.matmul a b)));
  let raises f =
    try
      ignore (f ());
      false
    with Tensor.Shape_mismatch _ -> true
  in
  let bad = Tensor.of_array [| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check bool) "matmul inner mismatch" true
    (raises (fun () -> Tensor.matmul a bad));
  Alcotest.(check bool) "matmul_nt inner mismatch" true
    (raises (fun () -> Tensor.matmul_nt a bad))

(* The blocked/tiled GEMM must agree exactly with the textbook triple
   loop: every output element accumulates in ascending-k order whatever
   the tiling, so there is no tolerance here. *)
let matmul_matches_naive () =
  let g = Prng.of_int 7 in
  List.iter
    (fun (m, k, n) ->
      let a = Tensor.randn g [| m; k |] in
      let b = Tensor.randn g [| k; n |] in
      let naive =
        Tensor.init [| m; n |] (fun o ->
            let i = o / n and j = o mod n in
            let acc = ref 0. in
            for p = 0 to k - 1 do
              acc :=
                !acc
                +. (Tensor.get_flat a ((i * k) + p)
                   *. Tensor.get_flat b ((p * n) + j))
            done;
            !acc)
      in
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "matmul %dx%dx%d = naive" m k n)
        naive.Tensor.data
        (Tensor.matmul a b).Tensor.data)
    (* Sizes straddling the 4x8 register tile and the column blocking:
       remainders in every dimension, plus a k large enough to force
       multiple j-blocks. *)
    [ (1, 1, 1); (3, 5, 7); (4, 4, 4); (6, 9, 5); (17, 33, 19); (2, 700, 70) ]

(* The same exactness as bits, over every row remainder of the 4-row
   tile (m mod 4), every column remainder of the 8-column tile and its
   2-column and 1-column tails (n mod 8), and k = 1.  Bits, because
   [float 0.] equates -0.0 with +0.0. *)
let qcheck_matmul_bitwise =
  QCheck.Test.make ~name:"matmul = ascending-p f64 loop, bitwise" ~count:80
    QCheck.(
      quad (int_range 0 99999) (int_range 1 13) (int_range 1 21)
        (int_range 1 19))
    (fun (seed, m, k, n) ->
      let g = Prng.of_int seed in
      let a = Tensor.randn g [| m; k |] in
      let b = Tensor.randn (Prng.split g) [| k; n |] in
      let c = Tensor.matmul a b in
      let ok = ref (Tensor.shape c = [| m; n |]) in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          let acc = ref 0. in
          for p = 0 to k - 1 do
            acc :=
              !acc
              +. (Tensor.get_flat a ((i * k) + p)
                 *. Tensor.get_flat b ((p * n) + j))
          done;
          if
            Int64.bits_of_float (Tensor.get_flat c ((i * n) + j))
            <> Int64.bits_of_float !acc
          then ok := false
        done
      done;
      !ok)

(* A contraction canary: 1 * -1 + (1 + e) * (1 - e) with e = 2^-30.
   Rounded product by product, as OCaml's [+.] and [*.] do, the second
   product is 1 - 2^-60, which rounds to 1, so the sum is +0.0; a fused
   multiply-add keeps the product exact and gives -2^-60.  Every row of
   [a] is [1; 1 + e] and every column of [b] is [-1; 1 - e], and the
   5 x 11 result reaches the 4-row tile and the 1-row remainder, each
   with the 8-column tile, the 2-column tile and the last odd column,
   so a kernel build that contracts on any of its paths fails here. *)
let matmul_no_contraction () =
  let e = Float.ldexp 1. (-30) in
  let a = Tensor.init [| 5; 2 |] (fun i -> if i mod 2 = 0 then 1. else 1. +. e) in
  let b = Tensor.init [| 2; 11 |] (fun i -> if i < 11 then -1. else 1. -. e) in
  let c = Tensor.matmul a b in
  for i = 0 to Tensor.numel c - 1 do
    Alcotest.(check int64)
      (Printf.sprintf "element %d is +0.0" i)
      (Int64.bits_of_float 0.)
      (Int64.bits_of_float (Tensor.get_flat c i))
  done

(* Row [i] of [matmul_nt a b] is the direct matvec [b a_i] of
   [Helpers.naive_dense], exactly. *)
let matmul_nt_rows_are_matvec () =
  let g = Prng.of_int 8 in
  let m = 5 and k = 11 and n = 6 in
  let a = Tensor.randn g [| m; k |] in
  let b = Tensor.randn g [| n; k |] in
  let out = Tensor.matmul_nt a b in
  let mv = Helpers.naive_dense ~weight:b a in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      Alcotest.(check (float 0.))
        (Printf.sprintf "row %d col %d" i j)
        (Tensor.get_flat mv ((i * n) + j))
        (Tensor.get_flat out ((i * n) + j))
    done
  done

(* [channel_stats] gives each (image, channel) plane its own mean and
   [1/sqrt(var + eps)] — the plain two-pass numbers, whatever else is in
   the batch — and [channel_norm_batch] normalizes image [i] of a batch
   exactly as it normalizes that image alone, the way [Layer.forward]
   runs it. *)
let channel_stats_per_image () =
  let g = Prng.of_int 11 in
  let n = 3 and c = 2 and h = 4 and w = 5 and eps = 1e-5 in
  let plane = h * w in
  let x = Tensor.randn g [| n; c; h; w |] in
  let gamma = Tensor.randn g [| c |] and beta = Tensor.randn g [| c |] in
  let mu, inv_std = Tensor.channel_stats ~eps x in
  let y = Tensor.channel_norm_batch ~gamma ~beta ~eps x in
  for img = 0 to n - 1 do
    let base = img * c * plane in
    let one =
      Tensor.init [| 1; c; h; w |] (fun o -> Tensor.get_flat x (base + o))
    in
    let mu1, inv_std1 = Tensor.channel_stats ~eps one in
    for ch = 0 to c - 1 do
      let off = base + (ch * plane) in
      let v i = Tensor.get_flat x (off + i) in
      let sum = ref 0. in
      for i = 0 to plane - 1 do
        sum := !sum +. v i
      done;
      let mean = !sum /. float_of_int plane in
      let var = ref 0. in
      for i = 0 to plane - 1 do
        var := !var +. ((v i -. mean) *. (v i -. mean))
      done;
      let istd = 1. /. sqrt ((!var /. float_of_int plane) +. eps) in
      let p = (img * c) + ch in
      Alcotest.(check (float 0.))
        (Printf.sprintf "image %d channel %d mean" img ch) mean mu.(p);
      Alcotest.(check (float 0.))
        (Printf.sprintf "image %d channel %d inv std" img ch) istd
        inv_std.(p);
      Alcotest.(check (float 0.)) "mean alone" mean mu1.(ch);
      Alcotest.(check (float 0.)) "inv std alone" istd inv_std1.(ch)
    done;
    Alcotest.(check (array (float 0.)))
      (Printf.sprintf "image %d normalized alone" img)
      (Tensor.channel_norm_batch ~gamma ~beta ~eps one).Tensor.data
      (Array.sub y.Tensor.data base (c * plane))
  done

let conv_gemm_agrees () =
  let g = Prng.of_int 10 in
  let n = 3 and in_c = 2 and h = 6 and w = 5 and out_c = 4 in
  let image = in_c * h * w in
  let batch = Tensor.randn g [| n; in_c; h; w |] in
  List.iter
    (fun (stride, pad, k, with_bias) ->
      let weight = Tensor.randn g [| out_c; in_c; k; k |] in
      let bias =
        if with_bias then Some (Tensor.randn g [| out_c |]) else None
      in
      let name =
        Printf.sprintf "k%d s%d p%d bias:%b" k stride pad with_bias
      in
      let batched =
        Tensor.conv2d_gemm_batch ~stride ~pad batch ~weight ~bias
      in
      let ostride = Tensor.numel batched / n in
      for img = 0 to n - 1 do
        let x =
          Tensor.init [| 1; in_c; h; w |] (fun o ->
              Tensor.get_flat batch ((img * image) + o))
        in
        let direct = Helpers.naive_conv ~stride ~pad weight bias x in
        let one = Tensor.conv2d_gemm_batch ~stride ~pad x ~weight ~bias in
        Alcotest.(check (array (float 0.)))
          (name ^ ": batch of one = direct") direct.Tensor.data
          one.Tensor.data;
        Alcotest.(check (array (float 0.)))
          (Printf.sprintf "%s: batched image %d = direct" name img)
          direct.Tensor.data
          (Array.sub batched.Tensor.data (img * ostride) ostride)
      done)
    [
      (1, 0, 3, true);
      (1, 1, 3, true);
      (1, 1, 3, false);
      (2, 1, 3, true);
      (1, 2, 2, true);
      (2, 0, 1, false);
    ]

(* {1 Network engine} *)

(* Cross-engine property: the compiled boxed plan, the one batched
   inference engine, is bit-identical to the single-image layer walk
   over the same float64 kernels, which checks the plan compiler.  For
   every zoo architecture and batch widths 1-5, row [i] of
   Boxed_engine.scores_batch equals Network.scores of image [i], and so
   does a metered query of image [i] on a boxed network oracle (a batch
   of one through the same plan). *)
let qcheck_boxed_plan_matches_direct =
  QCheck.Test.make ~name:"Boxed plan rows = Network.scores (zoo)" ~count:8
    QCheck.(pair (int_range 0 9999) (int_range 1 5))
    (fun (seed, n) ->
      let g = Prng.of_int seed in
      let classes = 4 and image = 3 * 8 * 8 in
      List.for_all
        (fun arch ->
          let make = Option.get (Nn.Zoo.by_name arch) in
          let net = make (Prng.split g) ~image_size:8 ~num_classes:classes in
          let batch = Tensor.rand_uniform g [| n; 3; 8; 8 |] in
          let xs =
            Array.init n (fun i ->
                Tensor.init [| 3; 8; 8 |] (fun o ->
                    Tensor.get_flat batch ((i * image) + o)))
          in
          let plan = Nn.Backend.Boxed_engine.compile net in
          let out = Nn.Backend.Boxed_engine.scores_batch plan batch in
          let oracle = Oracle.of_network ~backend:Nn.Backend.Boxed net in
          Tensor.shape out = [| n; classes |]
          && Array.for_all Fun.id
               (Array.mapi
                  (fun i x ->
                    let direct = (Nn.Network.scores net x).Tensor.data in
                    direct = Array.sub out.Tensor.data (i * classes) classes
                    && direct = (Helpers.query oracle x).Tensor.data)
                  xs))
        Nn.Zoo.names)

(* {1 The one-candidate query step} *)

let counting_oracle calls =
  Oracle.of_fn ~name:"counting" ~num_classes:2 (fun x ->
      incr calls;
      let m = Tensor.mean x in
      Tensor.of_array [| 2 |] [| 1. -. m; m |])

(* Candidate [v]: its key, and an input whose mean is [v / 10]. *)
let key v = Score_cache.Custom (string_of_int v)
let input v () = Tensor.create [| 2; 2 |] (float_of_int v /. 10.)
let ask t v = Batcher.query t ~input:(input v) (key v)

(* Without a cache every query is one forward pass of its own
   candidate, charged once it is answered. *)
let batcher_metering () =
  Batcher.reset_global_stats ();
  let calls = ref 0 in
  let oracle = counting_oracle calls in
  let t = Helpers.batcher oracle in
  List.iteri
    (fun i v ->
      let s = ask t v in
      Alcotest.(check (float 0.))
        (Printf.sprintf "answer for candidate %d" v)
        (float_of_int v /. 10.) (Tensor.get_flat s 1);
      Alcotest.(check int) "one forward per query" (i + 1) !calls;
      Alcotest.(check int) "one metered query each" (i + 1)
        (Oracle.queries oracle);
      Alcotest.(check int) "spent" (i + 1) (Batcher.spent t))
    [ 1; 2; 1 ];
  let s = Batcher.global_stats () in
  Alcotest.(check int) "stats: queries" 3 (Oracle.queries oracle);
  Alcotest.(check int) "stats: forward passes" 3 s.Batcher.batches;
  Alcotest.(check int) "stats: prepared = forward passes" 3 s.Batcher.prepared;
  Alcotest.(check int) "stats: no buffer hits" 0 s.Batcher.buffer_hits;
  Alcotest.(check int) "stats: nothing discarded" 0 s.Batcher.discarded

let batcher_cache_excludes_hits () =
  let calls = ref 0 in
  let oracle = counting_oracle calls in
  let cache = Score_cache.create () in
  (* Pre-resolve candidate 2: its query must not reach the forward
     pass. *)
  Score_cache.add cache (key 2) (Tensor.of_array [| 2 |] [| 0.8; 0.2 |]);
  Oracle.set_cache oracle (Some cache);
  let t = Helpers.batcher oracle in
  ignore (ask t 1);
  Alcotest.(check int) "a miss is forwarded" 1 !calls;
  let s2 = ask t 2 in
  Alcotest.(check (float 0.)) "cached answer served" 0.2
    (Tensor.get_flat s2 1);
  Alcotest.(check int) "the hit left the forward pass" 1 !calls;
  ignore (ask t 3);
  Alcotest.(check int) "the next miss is forwarded" 2 !calls;
  Alcotest.(check int) "hits are still metered" 3 (Oracle.queries oracle);
  Alcotest.(check bool) "misses were cached" true
    (List.for_all
       (fun v ->
         match Score_cache.find cache (key v) with
         | _ -> true
         | exception Not_found -> false)
       [ 1; 3 ])

exception Injected

(* A forward pass that raises charges nothing.  Batcher half: a cached
   batcher serves one candidate, then the next candidate's forward pass
   raises — the exception reaches the caller, the meter stays at one
   query and the cache gains nothing; the same query posed again is
   forwarded afresh and charged as query 2.  Attack half: an [on_query]
   hook raising at query 5 of a sketch leaves exactly five queries
   charged against five forward passes. *)
let batcher_failing_forward () =
  let forwards = ref 0 in
  let batch_fn xs =
    incr forwards;
    if !forwards = 2 then raise Injected;
    Array.map (fun x -> Tensor.of_array [| 2 |] [| 0.5; Tensor.mean x |]) xs
  in
  let oracle =
    Oracle.of_fn ~batch_fn ~name:"faulty" ~num_classes:2 (fun _ ->
        Alcotest.fail "single-image path used")
  in
  let cache = Score_cache.create () in
  Oracle.set_cache oracle (Some cache);
  let t = Helpers.batcher oracle in
  ignore (ask t 1);
  Alcotest.(check int) "one query served" 1 (Oracle.queries oracle);
  Alcotest.(check int) "one entry" 1 (Score_cache.stats cache).entries;
  (match ask t 2 with
  | _ -> Alcotest.fail "the failing forward pass did not surface"
  | exception Injected -> ());
  Alcotest.(check int) "failed forward charges nothing" 1
    (Oracle.queries oracle);
  Alcotest.(check int) "failed forward stores nothing" 1
    (Score_cache.stats cache).entries;
  Alcotest.(check int) "failed forward spends nothing" 1 (Batcher.spent t);
  let s2 = ask t 2 in
  Alcotest.(check int) "forwarded afresh" 3 !forwards;
  Alcotest.(check (float 0.)) "answer for candidate 2" 0.2
    (Tensor.get_flat s2 1);
  Alcotest.(check int) "charged as query 2" 2 (Oracle.queries oracle);
  let forwards = ref 0 in
  let mean_scores x =
    let m = Tensor.mean x in
    Tensor.of_array [| 2 |] [| 1. -. m; m |]
  in
  let batch_fn xs =
    incr forwards;
    Array.map mean_scores xs
  in
  let oracle =
    Oracle.of_fn ~batch_fn ~name:"counting" ~num_classes:2 mean_scores
  in
  let on_query n _ _ = if n = 5 then raise Injected in
  (match
     Sketch.attack ~on_query oracle C.const_false_program
       ~image:(Helpers.flat_image ~size 0.30) ~true_class:0
   with
  | _ -> Alcotest.fail "the raising hook did not surface"
  | exception Injected -> ());
  Alcotest.(check int) "attack charged five queries" 5 (Oracle.queries oracle);
  Alcotest.(check int) "five forward passes" 5 !forwards

(* {1 Cache-first queries}

   A candidate the cache already holds is answered from the cache: no
   input is built and nothing is forwarded. *)

let prefilled keys =
  let cache = Score_cache.create () in
  List.iter
    (fun v ->
      Score_cache.add cache (key v)
        (Tensor.of_array [| 2 |] [| 0.5; float_of_int v |]))
    keys;
  cache

let batcher_cache_first_hit () =
  Batcher.reset_global_stats ();
  let calls = ref 0 in
  let oracle = counting_oracle calls in
  let cache = prefilled [ 1 ] in
  Oracle.set_cache oracle (Some cache);
  let t = Helpers.batcher oracle in
  let s =
    Batcher.query t
      ~input:(fun () -> Alcotest.fail "input built for a cached candidate")
      (key 1)
  in
  Alcotest.(check (float 0.)) "cached answer" 1. (Tensor.get_flat s 1);
  Alcotest.(check int) "nothing forwarded" 0 !calls;
  Alcotest.(check int) "one metered query" 1 (Oracle.queries oracle);
  Alcotest.(check int) "one hit counted" 1 (Score_cache.stats cache).hits;
  let st = Batcher.global_stats () in
  Alcotest.(check int) "no forward pass" 0 st.Batcher.batches;
  Alcotest.(check int) "nothing prepared" 0 st.Batcher.prepared;
  Alcotest.(check int) "query counted" 1 (Oracle.queries oracle)

(* Each cache-first answer is metered and counted as one hit, and its
   charge is journaled as a cached one ([hit = true]); a forwarded
   answer is journaled with [hit = false]. *)
let batcher_cache_first_meters () =
  let calls = ref 0 in
  let oracle = counting_oracle calls in
  let cache = prefilled [ 1; 2 ] in
  Oracle.set_cache oracle (Some cache);
  let t = Helpers.batcher oracle in
  let path = Filename.temp_file "oppsla_batch_journal" ".jsonl" in
  Telemetry.Journal.to_file path;
  Fun.protect ~finally:Telemetry.Journal.close (fun () ->
      ignore (ask t 1);
      ignore (ask t 2);
      ignore (ask t 3));
  let records = (Evalharness.Audit.load_strict path).records in
  Sys.remove path;
  Alcotest.(check int) "all answers metered" 3 (Oracle.queries oracle);
  Alcotest.(check int) "both cached answers counted as hits" 2
    (Score_cache.stats cache).hits;
  Alcotest.(check int) "only the miss forwarded" 1 !calls;
  Alcotest.(check (list bool))
    "journal hit per charge" [ true; true; false ]
    (List.map (fun (r : Evalharness.Audit.record) -> r.hit) records)

(* {1 Attacks on a network oracle} *)

let check_result name (seq : Sketch.result) (b : Sketch.result) =
  Alcotest.(check int) (name ^ ": queries") seq.Sketch.queries b.Sketch.queries;
  match (seq.Sketch.adversarial, b.Sketch.adversarial) with
  | None, None -> ()
  | Some (p_seq, x_seq), Some (p_b, x_b) ->
      Alcotest.(check bool)
        (name ^ ": same adversarial pair")
        true
        (Oppsla.Pair.equal p_seq p_b);
      Alcotest.(check (array (float 0.)))
        (name ^ ": same adversarial tensor")
        x_seq.Tensor.data x_b.Tensor.data
  | _ -> Alcotest.fail (name ^ ": success flag diverged")

(* The compiled plan against the single-image layer walk
   ([Network.scores]) on whole attacks: the result and the full query
   trace must match with the score cache off and on, for an untargeted
   goal and for a targeted one.  The target is the least likely class:
   a one-pixel flip to it almost never exists, so that attack streams
   queries to the cap. *)
let sketch_plan_on_network () =
  let g = Prng.of_int 77 in
  let num_classes = 3 in
  let net = Nn.Zoo.vgg_tiny (Prng.split g) ~image_size:8 ~num_classes in
  let image = Tensor.rand_uniform g [| 3; 8; 8 |] in
  let program = Oppsla.Gen.random_program (Helpers.gen_config ~size:8) g in
  let true_class = Nn.Network.classify net image in
  let scores = Nn.Network.scores net image in
  let least = ref 0 in
  for c = 1 to num_classes - 1 do
    if Tensor.get_flat scores c < Tensor.get_flat scores !least then least := c
  done;
  let run ~goal ~cache oracle =
    let log = ref [] in
    if cache then Oracle.set_cache oracle (Some (Score_cache.create ()));
    let r =
      Sketch.attack ~goal ~max_queries:48
        ~on_query:(fun i pair scores ->
          log := (i, pair, Array.copy scores.Tensor.data) :: !log)
        oracle program ~image ~true_class
    in
    (r, List.rev !log, Oracle.queries oracle)
  in
  List.iter
    (fun (goal_name, goal) ->
      let reference, reference_log, reference_metered =
        run ~goal ~cache:false
          (Oracle.of_fn ~num_classes (Nn.Network.scores net))
      in
      List.iter
        (fun cache ->
          let r, log, metered = run ~goal ~cache (Oracle.of_network net) in
          let name = Printf.sprintf "network %s cache %b" goal_name cache in
          check_result name reference r;
          Alcotest.(check int) (name ^ ": metered queries") reference_metered
            metered;
          Alcotest.(check bool) (name ^ ": query trace") true
            (List.length reference_log = List.length log
            && List.for_all2
               (fun (i, p, s) (i', p', s') ->
                 i = i' && Oppsla.Pair.equal p p' && s = s')
               reference_log log))
        [ false; true ])
    [ ("untargeted", Sketch.Untargeted); ("targeted", Sketch.Targeted !least) ]

(* Each forward pass is one cache miss: the inputs the oracle's batched
   scoring function sees equal the cache's misses, less the [Clean]
   entry (the sketch reads the clean scores through the single-image
   function).  Sparse-RS proposes the same candidate more than once;
   a repeat is a cache hit and must not be forwarded again.  The oracle
   never flips, so every attack runs to its cap. *)
let forwards_equal_cache_misses () =
  let size = 8 in
  let rows = ref 0 in
  let never_flips () =
    let s = Tensor.of_array [| 2 |] [| 1.; 0. |] in
    Oracle.of_fn ~num_classes:2
      ~batch_fn:(fun xs ->
        rows := !rows + Array.length xs;
        Array.map (fun _ -> s) xs)
      (fun _ -> s)
  in
  let attackers =
    [
      ( "sketch",
        fun oracle image ->
          ignore
            (Sketch.attack ~max_queries:256 oracle C.const_false_program
               ~image ~true_class:0) );
      ( "sparse_rs",
        fun oracle image ->
          let config =
            { Baselines.Sparse_rs.max_queries = 256; min_explore = 0.1 }
          in
          ignore
            (Baselines.Sparse_rs.attack ~config (Prng.of_int 3) oracle ~image
               ~true_class:0) );
      ( "su_opa",
        fun oracle image ->
          let config =
            { Baselines.Su_opa.population = 10; f = 0.5; max_queries = 256 }
          in
          ignore
            (Baselines.Su_opa.attack ~config (Prng.of_int 4) oracle ~image
               ~true_class:0) );
    ]
  in
  List.iter
    (fun (name, attack) ->
      let image = Tensor.rand_uniform (Prng.of_int 1) [| 3; size; size |] in
      let oracle = never_flips () in
      let cache = Score_cache.create () in
      Oracle.set_cache oracle (Some cache);
      rows := 0;
      attack oracle image;
      let s = Score_cache.stats cache in
      let clean =
        match Score_cache.find cache Score_cache.Clean with
        | _ -> 1
        | exception Not_found -> 0
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: rows forwarded = misses" name)
        (s.Score_cache.misses - clean)
        !rows)
    attackers

let suite =
  [
    Alcotest.test_case "matmul golden values and shape guards" `Quick
      matmul_golden;
    Alcotest.test_case "matmul = naive triple loop (exact)" `Quick
      matmul_matches_naive;
    Alcotest.test_case "matmul_nt rows = matvec" `Quick
      matmul_nt_rows_are_matvec;
    Alcotest.test_case "channel_stats and norm: batch = per image" `Quick
      channel_stats_per_image;
    Alcotest.test_case "conv2d_gemm_batch = direct conv2d (exact)" `Quick
      conv_gemm_agrees;
    QCheck_alcotest.to_alcotest qcheck_boxed_plan_matches_direct;
    Alcotest.test_case "batcher: metering, one forward pass per query"
      `Quick batcher_metering;
    Alcotest.test_case "batcher: cache hits leave the forward pass" `Quick
      batcher_cache_excludes_hits;
    Alcotest.test_case "batcher: a failing forward pass charges nothing"
      `Quick batcher_failing_forward;
    Alcotest.test_case "sketch: compiled plan = layer walk on a conv net"
      `Quick sketch_plan_on_network;
    Alcotest.test_case "batcher: cache-first hit builds no input" `Quick
      batcher_cache_first_hit;
    Alcotest.test_case "batcher: cache-first meters before counting the hit"
      `Quick batcher_cache_first_meters;
    Alcotest.test_case "batcher: one forward pass per cache miss" `Quick
      forwards_equal_cache_misses;
    QCheck_alcotest.to_alcotest qcheck_matmul_bitwise;
    Alcotest.test_case "matmul rounds every multiply and add" `Quick
      matmul_no_contraction;
  ]
