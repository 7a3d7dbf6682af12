(* Property and golden tests for the pluggable tensor backends.

   The f32 kernels are checked four ways: the blocked GEMM against a
   naive float64 reference on the same float32-rounded operands, bit
   for bit (the kernel accumulates in float64 in ascending order and
   rounds once at the store); the gathered im2col panel against
   the patch layout computed by direct indexing (padding positions must
   read back as explicit zeros); the full conv against a plain
   ascending-p float64 loop and, inside whole zoo plans, against the
   float32 im2col panel path, both bit for bit; and the fused
   conv→norm→relu epilogue against the unfused composition, which must
   be bit-identical — the fusion saves passes, never rounding.  The
   shape-descriptor round-trip and the serialize golden run over both
   backends: weights written by one network load into another and must
   produce the same argmax through the layer engine, the boxed plan and
   the f32 plan, and the two plans must agree on a batch of one-pixel
   candidates.  Above the kernels, Sketch attacks must charge the same
   queries and succeed alike on either plan. *)

(* Round to the nearest float32, as [of_tensor] does on the f32 path. *)
let round32 x = Int32.float_of_bits (Int32.bits_of_float x)

(* Bitwise tensor equality: float [<>] would equate -0.0 with +0.0 and
   fail on equal NaNs. *)
let same_bits a b =
  Tensor.shape a = Tensor.shape b
  &&
  let ok = ref true in
  for i = 0 to Tensor.numel a - 1 do
    if
      Int64.bits_of_float (Tensor.get_flat a i)
      <> Int64.bits_of_float (Tensor.get_flat b i)
    then ok := false
  done;
  !ok

let argmax_row t ~row ~classes =
  let best = ref 0 in
  for j = 1 to classes - 1 do
    if
      Tensor.get_flat t ((row * classes) + j)
      > Tensor.get_flat t ((row * classes) + !best)
    then best := j
  done;
  !best

(* {1 GEMM vs naive float64 reference} *)

(* The kernel accumulates each element in float64 in ascending-p order
   from the +0.0 [matmul] seeds, on the float32 operands widened, and
   rounds once at the store: that is exactly one [round32] of the plain
   loop's sum, at any size and any tile remainder. *)
let qcheck_gemm_matches_naive =
  QCheck.Test.make ~name:"f32 blocked GEMM = naive f64 on rounded operands"
    ~count:60
    QCheck.(
      quad (int_range 0 99999) (int_range 1 13) (int_range 1 21)
        (int_range 1 19))
    (fun (seed, m, k, n) ->
      let g = Prng.of_int seed in
      let a = Tensor.rand_uniform g ~lo:(-1.) ~hi:1. [| m; k |] in
      let b = Tensor.rand_uniform (Prng.split g) ~lo:(-1.) ~hi:1. [| k; n |] in
      let c = Tensor_f32.matmul (Tensor_f32.of_tensor a) (Tensor_f32.of_tensor b) in
      let ok = ref (Tensor_f32.shape c = [| m; n |]) in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          let acc = ref 0. in
          for p = 0 to k - 1 do
            acc :=
              !acc
              +. round32 (Tensor.get_flat a ((i * k) + p))
                 *. round32 (Tensor.get_flat b ((p * n) + j))
          done;
          let got = Tensor_f32.get_flat c ((i * n) + j) in
          if Int64.bits_of_float got <> Int64.bits_of_float (round32 !acc) then
            ok := false
        done
      done;
      !ok)

(* {1 im2col panel layout} *)

let qcheck_im2col_layout =
  QCheck.Test.make ~name:"f32 im2col panel matches direct patch indexing"
    ~count:80
    QCheck.(
      quad (int_range 0 99999)
        (pair (int_range 1 3) (pair (int_range 2 7) (int_range 2 7)))
        (pair (int_range 1 3) (int_range 1 3))
        (pair (int_range 1 2) (int_range 0 2)))
    (fun (seed, (in_c, (h, w)), (kh, kw), (stride, pad)) ->
      let oh = ((h + (2 * pad) - kh) / stride) + 1
      and ow = ((w + (2 * pad) - kw) / stride) + 1 in
      QCheck.assume (oh >= 1 && ow >= 1 && kh <= h + (2 * pad) && kw <= w + (2 * pad));
      let g = Prng.of_int seed in
      let x = Tensor.rand_uniform g ~lo:(-1.) ~hi:1. [| in_c; h; w |] in
      let panel =
        Tensor_f32.im2col ~stride ~pad ~kh ~kw (Tensor_f32.of_tensor x)
      in
      let ok = ref (Tensor_f32.shape panel = [| in_c * kh * kw; oh * ow |]) in
      for ci = 0 to in_c - 1 do
        for ki = 0 to kh - 1 do
          for kj = 0 to kw - 1 do
            let r = (((ci * kh) + ki) * kw) + kj in
            for oy = 0 to oh - 1 do
              for ox = 0 to ow - 1 do
                let iy = (oy * stride) + ki - pad
                and ix = (ox * stride) + kj - pad in
                let expect =
                  if iy >= 0 && iy < h && ix >= 0 && ix < w then
                    round32 (Tensor.get x [| ci; iy; ix |])
                  else 0.
                in
                let got =
                  Tensor_f32.get_flat panel ((r * oh * ow) + (oy * ow) + ox)
                in
                if got <> expect then ok := false
              done
            done
          done
        done
      done;
      !ok)

(* {1 Shape-descriptor round-trip} *)

(* [of_tensor] then [to_tensor] must preserve the shape and (up to the
   backend's storage width) every element; [reshape] must relabel the
   descriptor without touching the flat data. *)
let roundtrip_case (type b) name
    (module B : Tensor_sig.S with type t = b) ~rounds () =
  let g = Prng.of_int 4242 in
  let t = Tensor.rand_uniform g ~lo:(-2.) ~hi:2. [| 2; 3; 4 |] in
  let b = B.of_tensor t in
  Alcotest.(check (array int)) (name ^ " shape survives of_tensor") [| 2; 3; 4 |]
    (B.shape b);
  let r = B.reshape b [| 4; 6 |] in
  Alcotest.(check (array int)) (name ^ " reshape relabels") [| 4; 6 |]
    (B.shape r);
  let back = B.to_tensor (B.reshape r [| 2; 3; 4 |]) in
  Alcotest.(check (array int)) (name ^ " shape survives round-trip")
    [| 2; 3; 4 |] (Tensor.shape back);
  for i = 0 to Tensor.numel t - 1 do
    Alcotest.(check (float 0.))
      (Printf.sprintf "%s element %d round-trips" name i)
      (rounds (Tensor.get_flat t i))
      (Tensor.get_flat back i)
  done

let boxed_roundtrip = roundtrip_case "boxed" (module Tensor_boxed) ~rounds:Fun.id
let f32_roundtrip = roundtrip_case "f32" (module Tensor_f32) ~rounds:round32

let qcheck_f32_reshape_preserves_flat =
  QCheck.Test.make ~name:"f32 reshape preserves flat storage" ~count:50
    QCheck.(triple (int_range 0 99999) (int_range 1 8) (int_range 1 8))
    (fun (seed, a, b) ->
      let g = Prng.of_int seed in
      let t = Tensor.rand_uniform g ~lo:(-1.) ~hi:1. [| a * b |] in
      let x = Tensor_f32.of_tensor t in
      let r = Tensor_f32.reshape x [| a; b |] in
      let ok = ref (Tensor_f32.shape r = [| a; b |]) in
      for i = 0 to (a * b) - 1 do
        if Tensor_f32.get_flat r i <> Tensor_f32.get_flat x i then ok := false
      done;
      !ok)

(* {1 Fused conv epilogue = unfused composition, bit-exactly} *)

let fusion_case (type b) (module B : Tensor_sig.S with type t = b)
    (seed, batch, in_c, out_c, size) =
  let g = Prng.of_int seed in
  let weight = Tensor.randn g ~sigma:0.5 [| out_c; in_c; 3; 3 |] in
  let bias = Tensor.randn (Prng.split g) ~sigma:0.1 [| out_c |] in
  let gamma = Tensor.rand_uniform (Prng.split g) ~lo:0.5 ~hi:1.5 [| out_c |] in
  let beta = Tensor.randn (Prng.split g) ~sigma:0.2 [| out_c |] in
  let eps = 1e-5 in
  let x =
    B.of_tensor
      (Tensor.rand_uniform (Prng.split g) ~lo:(-1.) ~hi:1.
         [| batch; in_c; size; size |])
  in
  let w = B.of_tensor weight
  and bs = B.of_tensor bias
  and gm = B.of_tensor gamma
  and bt = B.of_tensor beta in
  let fused =
    B.conv2d_batch ~stride:1 ~pad:1 ~weight:w ~bias:bs ~norm:(gm, bt, eps)
      ~relu:true x
  in
  let unfused =
    B.relu
      (B.channel_norm_batch ~gamma:gm ~beta:bt ~eps
         (B.conv2d_batch ~stride:1 ~pad:1 ~weight:w ~bias:bs x))
  in
  same_bits (B.to_tensor fused) (B.to_tensor unfused)

let qcheck_fusion name case =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s fused conv/norm/relu = unfused, bitwise" name)
    ~count:20
    QCheck.(
      quad (int_range 0 99999) (int_range 1 3)
        (pair (int_range 1 3) (int_range 1 5))
        (int_range 3 7))
    (fun (seed, batch, (in_c, out_c), size) ->
      case (seed, batch, in_c, out_c, size))

let qcheck_fusion_f32 = qcheck_fusion "f32" (fusion_case (module Tensor_f32))
let qcheck_fusion_boxed = qcheck_fusion "boxed" (fusion_case (module Tensor_boxed))

(* {1 Incremental input conv = cold conv, bit for bit} *)

let pack xs =
  let per = Tensor.numel (List.hd xs) in
  let b =
    Tensor.zeros
      (Array.append [| List.length xs |] (Tensor.shape (List.hd xs)))
  in
  List.iteri
    (fun i x -> Array.blit x.Tensor.data 0 b.Tensor.data (i * per) per)
    xs;
  b

(* [k] pixels of a CHW image set to RGB corners, drawn from the four
   corners, the border and the interior alike so that receptive fields
   clipped by padding are covered.  Pixels may repeat; k = 0 is the
   clean image itself. *)
let candidate g clean k =
  let c = Tensor.dim clean 0
  and h = Tensor.dim clean 1
  and w = Tensor.dim clean 2 in
  let y = Tensor.copy clean in
  for _ = 1 to k do
    let row, col =
      match Prng.int g 3 with
      | 0 -> ((h - 1) * Prng.int g 2, (w - 1) * Prng.int g 2)
      | 1 ->
          if Prng.bool g then (Prng.int g h, (w - 1) * Prng.int g 2)
          else ((h - 1) * Prng.int g 2, Prng.int g w)
      | _ -> (Prng.int g h, Prng.int g w)
    in
    let corner = Prng.int g 8 in
    for ch = 0 to c - 1 do
      Tensor.set y [| ch; row; col |]
        (if corner land (1 lsl (ch mod 3)) <> 0 then 1. else 0.)
    done
  done;
  y

(* A batch mixing clean images, 0..4-pixel candidates of them and
   unrelated images, in random order. *)
let mixed_batch g ~len cleans =
  let shape = Tensor.shape cleans.(0) in
  List.init len (fun _ ->
      match Prng.int g 4 with
      | 0 -> Prng.choice g cleans
      | 1 -> Tensor.rand_uniform (Prng.split g) shape
      | _ -> candidate g (Prng.choice g cleans) (Prng.int g 5))

let zoo_net ~arch ~size seed =
  (Option.get (Nn.Zoo.by_name (List.nth Nn.Zoo.names arch)))
    (Prng.of_int seed) ~image_size:size ~num_classes:4

module F32_plan = Nn.Backend.F32_engine

(* The cold reference: a freshly compiled plan per image, so its input
   conv has no reference image and runs in full. *)
let cold_rows net rows =
  List.map
    (fun x -> F32_plan.scores_batch (F32_plan.compile net) (pack [ x ]))
    rows

(* Each row of [warm] (a batch score) against its cold single-image
   score. *)
let rows_match warm cold =
  let classes = Tensor.dim warm 1 in
  List.for_all Fun.id
    (List.mapi
       (fun i c ->
         same_bits c
           (Tensor.init [| 1; classes |] (fun j ->
                Tensor.get_flat warm ((i * classes) + j))))
       cold)

(* One stream round on a shared warm plan: score a clean image, then a
   mixed batch.  Returns each call's rows with its scores. *)
let warm_round plan g ~size ~len =
  let clean = Tensor.rand_uniform (Prng.split g) [| 3; size; size |] in
  let other = Tensor.rand_uniform (Prng.split g) [| 3; size; size |] in
  let rows = mixed_batch g ~len [| clean; clean; other |] in
  List.map
    (fun xs -> (xs, F32_plan.scores_batch plan (pack xs)))
    [ [ clean ]; rows ]

(* Every row of every call against its cold single-image score. *)
let all_match net calls =
  List.for_all (fun (xs, warm) -> rows_match warm (cold_rows net xs)) calls

let incremental_gen =
  QCheck.(
    quad (int_range 0 99999) (int_range 0 4) (int_range 0 2) (int_range 1 8))

let qcheck_incremental_zoo =
  QCheck.Test.make
    ~name:"f32 zoo plans: warm incremental input conv = cold plan, bitwise"
    ~count:25 incremental_gen
    (fun (seed, arch, size_i, len) ->
      let size = [| 8; 12; 16 |].(size_i) in
      let net = zoo_net ~arch ~size seed in
      let plan = F32_plan.compile net in
      let g = Prng.of_int (seed + 1) in
      (* The cold plans of the first check replace this domain's state,
         so the last round on the warm plan starts it afresh. *)
      all_match net
        (warm_round plan g ~size ~len @ warm_round plan g ~size ~len)
      && all_match net (warm_round plan g ~size ~len))

(* Four streams of sixteen rounds share one plan through a pool: at
   width 2 they run concurrently on two domains, each holding its own
   reference image.  The cold scores are computed after the pool, so the
   streams spend their time on the shared plan. *)
let qcheck_incremental_pool width =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "f32 pool %d: warm incremental input conv = cold plan, bitwise"
         width)
    ~count:8 incremental_gen
    (fun (seed, arch, size_i, len) ->
      let size = [| 8; 12; 16 |].(size_i) in
      let net = zoo_net ~arch ~size seed in
      let plan = F32_plan.compile net in
      let streams =
        Domain_pool.Pool.with_pool ~domains:width (fun pool ->
            Domain_pool.Pool.map pool
              (fun k ->
                let g = Prng.of_int ((seed * 4) + k) in
                List.concat_map
                  (fun _ -> warm_round plan g ~size ~len)
                  (List.init 16 Fun.id))
              (Array.init 4 Fun.id))
      in
      Array.for_all (all_match net) streams)

(* The kernel itself: random kernel size, stride, pad and epilogue, a
   bias holding -0.0 and +0.0, and a memoized call sequence (clean, then
   mixed batches) against the same calls without a memo. *)
let qcheck_incremental_conv =
  QCheck.Test.make
    ~name:"f32 memo conv2d_batch = no memo, bitwise" ~count:60
    QCheck.(
      quad (int_range 0 99999)
        (pair (int_range 1 3) (int_range 1 4))
        (pair (int_range 3 10) (pair (int_range 1 3) (int_range 1 3)))
        (triple (int_range 1 2) (int_range 0 2) (int_range 0 2)))
    (fun (seed, (in_c, out_c), (size, (kh, kw)), (stride, pad, epilogue)) ->
      let oh = ((size + (2 * pad) - kh) / stride) + 1
      and ow = ((size + (2 * pad) - kw) / stride) + 1 in
      QCheck.assume (oh >= 1 && ow >= 1);
      let g = Prng.of_int seed in
      let weight =
        Tensor_f32.of_tensor
          (Tensor.randn (Prng.split g) ~sigma:0.5 [| out_c; in_c; kh; kw |])
      in
      let bias =
        Tensor_f32.of_tensor
          (Tensor.init [| out_c |] (fun i ->
               match i mod 3 with 0 -> -0. | 1 -> 0. | _ -> Prng.normal g ()))
      in
      let norm =
        if epilogue = 2 then
          Some
            ( Tensor_f32.of_tensor (Tensor.create [| out_c |] 1.1),
              Tensor_f32.of_tensor (Tensor.create [| out_c |] (-0.1)),
              1e-5 )
        else None
      in
      let relu = epilogue >= 1 in
      let conv ?memo xs =
        Tensor_f32.to_tensor
          (Tensor_f32.conv2d_batch ?memo ~stride ~pad ~weight ~bias ?norm
             ~relu (Tensor_f32.of_tensor (pack xs)))
      in
      let memo = Tensor_f32.conv_memo () in
      let clean = Tensor.rand_uniform (Prng.split g) [| in_c; size; size |] in
      let agree xs = same_bits (conv ~memo xs) (conv xs) in
      agree [ clean ]
      && agree (mixed_batch g ~len:(1 + Prng.int g 6) [| clean |])
      && agree (mixed_batch g ~len:(1 + Prng.int g 6) [| clean |]))

(* The executed-FLOP ledger on vgg_tiny at 16x16 (256 input-conv
   columns, 2*8*27 flops each): after the clean forward, a candidate
   costs the cold forward minus the input conv's columns it did not
   recompute. *)
let incremental_flops () =
  let flops () =
    Telemetry.Counter.get
      (Telemetry.Metrics.counter "backend.f32.gemm_flops")
  in
  let net = Nn.Zoo.vgg_tiny (Prng.of_int 5) ~image_size:16 ~num_classes:10 in
  let plan = F32_plan.compile net in
  let clean = Tensor.rand_uniform (Prng.of_int 6) [| 3; 16; 16 |] in
  let cost x =
    let before = flops () in
    ignore (F32_plan.scores_batch plan (pack [ x ]));
    flops () - before
  in
  let cold = cost clean in
  let per_col = 2 * 8 * 27 in
  let pixel row col =
    let y = Tensor.copy clean in
    for c = 0 to 2 do
      Tensor.set y [| c; row; col |] (float_of_int (c land 1))
    done;
    y
  in
  let rest = cold - (per_col * 256) in
  Alcotest.(check int) "clean again: no input-conv column" rest (cost clean);
  Alcotest.(check int) "interior pixel: 9 columns" (rest + (per_col * 9))
    (cost (pixel 7 9));
  Alcotest.(check int) "border pixel: 6 columns" (rest + (per_col * 6))
    (cost (pixel 0 5));
  Alcotest.(check int) "corner pixel: 4 columns" (rest + (per_col * 4))
    (cost (pixel 15 15));
  Alcotest.(check int) "unrelated image: full input conv" cold
    (cost (Tensor.rand_uniform (Prng.of_int 8) [| 3; 16; 16 |]))

(* Minor words per warm f32 [scores_batch] call on vgg_tiny 16x16: one
   clean forward, then width-1 batches of one-pixel candidates of that
   image, the forward an attack query runs.  The batches are packed
   before the count, so it holds the plan's own allocation only (shape
   descriptors, span closures, the boxed result).  Measured at 466
   words; one more optional argument and closure per conv call adds
   about 5, which the bound does not leave room for. *)
let warm_forward_words () =
  Alcotest.(check bool) "no journal, trace or ring open" false
    (Telemetry.Journal.enabled () || Telemetry.Trace.enabled ()
   || Telemetry.Ring.enabled ());
  let net = Nn.Zoo.vgg_tiny (Prng.of_int 5) ~image_size:16 ~num_classes:10 in
  let plan = F32_plan.compile net in
  let clean = Tensor.rand_uniform (Prng.of_int 6) [| 3; 16; 16 |] in
  let candidates =
    Array.init 16 (fun i ->
        let y = Tensor.copy clean in
        for c = 0 to 2 do
          Tensor.set y [| c; i * 5 mod 16; i * 11 mod 16 |]
            (float_of_int ((i lsr c) land 1))
        done;
        pack [ y ])
  in
  ignore (F32_plan.scores_batch plan (pack [ clean ]));
  Array.iter (fun x -> ignore (F32_plan.scores_batch plan x)) candidates;
  let calls = 64 in
  let before = Gc.minor_words () in
  for i = 0 to calls - 1 do
    ignore (F32_plan.scores_batch plan candidates.(i mod 16))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int calls in
  if words > 470. then
    Alcotest.failf "%.1f minor words per warm forward, bound 470" words

(* {1 Serialize golden: one weight file, every engine} *)

let golden_arch g =
  let width = 6 and size = 8 and classes = 4 in
  Nn.Network.create ~name:"backend_golden" ~input_shape:[| 3; size; size |]
    ~num_classes:classes
    [
      Nn.Layer.conv2d g ~pad:1 ~in_c:3 ~out_c:width ~k:3 ();
      Nn.Layer.channel_norm ~channels:width;
      Nn.Layer.relu ();
      Nn.Layer.max_pool ~size:2 ();
      Nn.Layer.flatten ();
      Nn.Layer.dense g ~in_dim:(width * 4 * 4) ~out_dim:classes ();
    ]

let serialize_cross_backend () =
  let source = golden_arch (Prng.of_int 7) in
  (* Different seed: the target starts with genuinely different weights,
     so agreement below proves the load, not the initialisation. *)
  let target = golden_arch (Prng.of_int 9001) in
  let path = Filename.temp_file "backend_golden" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Nn.Serialize.save path source;
      Nn.Serialize.load path target);
  let boxed = Nn.Backend.Boxed_engine.compile target in
  let f32 = Nn.Backend.F32_engine.compile target in
  let g = ref (Prng.of_int 515) in
  let images =
    Array.init 10 (fun _ ->
        g := Prng.split !g;
        Tensor.rand_uniform !g [| 3; 8; 8 |])
  in
  for i = 0 to 9 do
    let x = images.(i) in
    let batch =
      Tensor.init [| 1; 3; 8; 8 |] (fun o -> Tensor.get_flat x o)
    in
    let reference = Nn.Network.classify source x in
    Alcotest.(check int)
      (Printf.sprintf "image %d: loaded layer engine = source argmax" i)
      reference
      (Nn.Network.classify target x);
    let bscores = Nn.Backend.Boxed_engine.scores_batch boxed batch in
    let fscores = Nn.Backend.F32_engine.scores_batch f32 batch in
    Alcotest.(check int)
      (Printf.sprintf "image %d: boxed plan argmax" i)
      reference
      (argmax_row bscores ~row:0 ~classes:4);
    Alcotest.(check int)
      (Printf.sprintf "image %d: f32 plan argmax" i)
      reference
      (argmax_row fscores ~row:0 ~classes:4);
    (* The boxed plan is bit-identical to the layer engine; the f32 plan
       is held to the cross-backend tolerance policy. *)
    let direct = Nn.Network.scores target x in
    for c = 0 to 3 do
      Alcotest.(check (float 0.))
        (Printf.sprintf "image %d class %d: boxed scores bit-equal" i c)
        (Tensor.get_flat direct c)
        (Tensor.get_flat bscores c);
      let d = Float.abs (Tensor.get_flat fscores c -. Tensor.get_flat direct c) in
      if d > Nn.Backend.score_tol then
        Alcotest.failf "image %d class %d: f32 delta %.3e above tolerance %.0e"
          i c d Nn.Backend.score_tol
    done
  done;
  (* The probe batch attack queries pose: each image, then four
     one-pixel RGB-corner candidates of it, in one batch (so the f32
     input conv also runs incrementally).  The two plans must agree on
     every row's argmax and stay within the tolerance per class. *)
  let probes =
    List.concat_map
      (fun x ->
        x
        :: List.init 4 (fun j ->
               let y = Tensor.copy x in
               let pos = j * 131 mod 64 in
               for c = 0 to 2 do
                 Tensor.set_flat y ((c * 64) + pos)
                   (if (j + c) land 1 = 0 then 1. else 0.)
               done;
               y))
      (Array.to_list images)
  in
  let batch = pack probes in
  let bscores = Nn.Backend.Boxed_engine.scores_batch boxed batch in
  let fscores = Nn.Backend.F32_engine.scores_batch f32 batch in
  for row = 0 to List.length probes - 1 do
    Alcotest.(check int)
      (Printf.sprintf "probe %d: f32 argmax = boxed argmax" row)
      (argmax_row bscores ~row ~classes:4)
      (argmax_row fscores ~row ~classes:4);
    for c = row * 4 to (row * 4) + 3 do
      let d =
        Float.abs (Tensor.get_flat fscores c -. Tensor.get_flat bscores c)
      in
      if d > Nn.Backend.score_tol then
        Alcotest.failf "probe %d: f32 delta %.3e above tolerance %.0e" row d
          Nn.Backend.score_tol
    done
  done

(* {1 Full conv = naive ascending-p float64 loop, bitwise} *)

(* Exact float32 values, kept in float64. *)
let as_f32 t = Tensor_f32.to_tensor (Tensor_f32.of_tensor t)

(* The direct loop of [Helpers.naive_conv] rounded to float32: every
   output element is the float32 rounding of its bias seed (-0.0 seeds
   +0.0) plus the tap products in ascending tap order, a padding tap
   adding [w * +0.0]. *)
let naive_conv ~stride ~pad weight bias x =
  let seed = Tensor.map (fun b -> if b <> 0. then b else 0.) bias in
  Helpers.naive_conv ~finish:round32 ~stride ~pad weight (Some seed) x

(* Output channels reach 12, so the GEMM runs both its 4-row tiles
   and a remainder of up to three rows. *)
let qcheck_conv_naive =
  QCheck.Test.make
    ~name:"f32 pool 1: conv2d_batch = naive ascending-p f64 loop, bitwise"
    ~count:40
    QCheck.(
      quad (int_range 0 99999)
        (triple (int_range 1 4) (int_range 1 12) (int_range 1 4))
        (pair (pair (int_range 1 9) (int_range 1 9))
           (pair (int_range 1 5) (int_range 1 5)))
        (pair (int_range 1 2) (int_range 0 2)))
    (fun (seed, (in_c, out_c, batch), ((h, w), (kh, kw)), (stride, pad)) ->
      QCheck.assume (kh <= h + (2 * pad) && kw <= w + (2 * pad));
      let g = Prng.of_int seed in
      let weight =
        as_f32
          (Tensor.randn (Prng.split g) ~sigma:0.5 [| out_c; in_c; kh; kw |])
      in
      let bias =
        as_f32
          (Tensor.init [| out_c |] (fun i ->
               match i mod 3 with 0 -> -0. | 1 -> 0. | _ -> Prng.normal g ()))
      in
      let x =
        as_f32
          (Tensor.rand_uniform (Prng.split g) ~lo:(-1.) ~hi:1.
             [| batch; in_c; h; w |])
      in
      let got =
        Tensor_f32.to_tensor
          (Tensor_f32.conv2d_batch ~stride ~pad
             ~weight:(Tensor_f32.of_tensor weight)
             ~bias:(Tensor_f32.of_tensor bias) (Tensor_f32.of_tensor x))
      in
      same_bits got (naive_conv ~stride ~pad weight bias x))

(* {1 Zoo plans = the float32 im2col panel path, bitwise} *)

(* The full conv as it ran before the gather: im2col into a float32
   panel (per-tap in-bounds ranges, padding stored as zeros), a second
   pass widening that panel to float64, then the ascending-p GEMM sum
   from the bias seed, rounded once.  The epilogue, max-pool included,
   is the unfused composition, which the fusion properties pin to the
   fused one. *)
module Panel_f32 = struct
  include Tensor_f32

  type ba = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

  let div_floor a b = if a >= 0 then a / b else -((-a + b - 1) / b)
  let div_ceil a b = if a >= 0 then (a + b - 1) / b else -(-a / b)

  let fill_range (od : ba) pos len = Bigarray.Array1.(fill (sub od pos len) 0.)

  let im2col_into ~stride ~pad ~kh ~kw ~in_c ~h ~w ~oh ~ow ~xoff (xd : ba)
      (od : ba) =
    for ic = 0 to in_c - 1 do
      for ky = 0 to kh - 1 do
        let oy_lo = max 0 (div_ceil (pad - ky) stride)
        and oy_hi = min (oh - 1) (div_floor (h - 1 + pad - ky) stride) in
        for kx = 0 to kw - 1 do
          let row = (((ic * kh) + ky) * kw) + kx in
          let ox_lo = max 0 (div_ceil (pad - kx) stride)
          and ox_hi = min (ow - 1) (div_floor (w - 1 + pad - kx) stride) in
          let rbase = row * (oh * ow) in
          if oy_lo > oy_hi || ox_lo > ox_hi then fill_range od rbase (oh * ow)
          else begin
            for oy = 0 to oy_lo - 1 do
              fill_range od (rbase + (oy * ow)) ow
            done;
            for oy = oy_hi + 1 to oh - 1 do
              fill_range od (rbase + (oy * ow)) ow
            done;
            for oy = oy_lo to oy_hi do
              let iy = (oy * stride) - pad + ky in
              let orow = rbase + (oy * ow)
              and xrow = xoff + (((ic * h) + iy) * w) - pad + kx in
              fill_range od orow ox_lo;
              fill_range od (orow + ox_hi + 1) (ow - ox_hi - 1);
              for ox = ox_lo to ox_hi do
                Bigarray.Array1.set od (orow + ox)
                  (Bigarray.Array1.get xd (xrow + (ox * stride)))
              done
            done
          end
        done
      done
    done

  let conv2d_batch ?memo:_ ~stride ~pad ~weight ~bias ?norm
      ?(relu = false) ?max_pool x =
    let xt = to_tensor x and wt = to_tensor weight and bt = to_tensor bias in
    let n = Tensor.dim xt 0 and in_c = Tensor.dim xt 1
    and h = Tensor.dim xt 2 and w = Tensor.dim xt 3 in
    let out_c = Tensor.dim wt 0
    and kh = Tensor.dim wt 2 and kw = Tensor.dim wt 3 in
    let oh = ((h + (2 * pad) - kh) / stride) + 1
    and ow = ((w + (2 * pad) - kw) / stride) + 1 in
    let kk = in_c * kh * kw and cols = oh * ow and image = in_c * h * w in
    let xd = Bigarray.(Array1.of_array float32 c_layout xt.Tensor.data) in
    let patches = Bigarray.(Array1.create float32 c_layout (kk * cols)) in
    let b64 = Array.make (kk * cols) 0. in
    let out = Tensor.zeros [| n; out_c; oh; ow |] in
    for img = 0 to n - 1 do
      im2col_into ~stride ~pad ~kh ~kw ~in_c ~h ~w ~oh ~ow ~xoff:(img * image)
        xd patches;
      for i = 0 to (kk * cols) - 1 do
        b64.(i) <- Bigarray.Array1.get patches i
      done;
      for oc = 0 to out_c - 1 do
        for j = 0 to cols - 1 do
          let b = Tensor.get_flat bt oc in
          let acc = ref (if b <> 0. then b else 0.) in
          for p = 0 to kk - 1 do
            acc :=
              !acc
              +. (Tensor.get_flat wt ((oc * kk) + p) *. b64.((p * cols) + j))
          done;
          Tensor.set_flat out ((((img * out_c) + oc) * cols) + j) (round32 !acc)
        done
      done
    done;
    let y = of_tensor out in
    let y =
      match norm with
      | Some (gamma, beta, eps) -> channel_norm_batch ~gamma ~beta ~eps y
      | None -> y
    in
    let y = if relu then Tensor_f32.relu y else y in
    match max_pool with
    | Some (size, stride) -> max_pool2d_batch ~stride ~size y
    | None -> y
end

module Panel_plan = Nn.Backend.Make (Panel_f32)

(* All five zoo nets, one warm plan each, a clean image then mixed
   batches (so the input conv also runs incrementally). *)
let qcheck_zoo_panel =
  QCheck.Test.make
    ~name:"f32 pool 1: zoo plans = float32 im2col panel path, bitwise"
    ~count:4
    QCheck.(pair (int_range 0 99999) (int_range 0 2))
    (fun (seed, size_i) ->
      let size = [| 8; 12; 16 |].(size_i) in
      List.for_all
        (fun arch ->
          let net = zoo_net ~arch ~size (seed + arch) in
          let plan = F32_plan.compile net
          and reference = Panel_plan.compile net in
          let g = Prng.of_int (seed + 1) in
          let image () =
            Tensor.rand_uniform (Prng.split g) [| 3; size; size |]
          in
          let clean = image () in
          let other = image () in
          List.for_all
            (fun xs ->
              let batch = pack xs in
              same_bits
                (F32_plan.scores_batch plan batch)
                (Panel_plan.scores_batch reference batch))
            ([ clean ]
            :: List.init 4 (fun _ ->
                   mixed_batch g ~len:(1 + Prng.int g 8)
                     [| clean; clean; other |])))
        (List.init (List.length Nn.Zoo.names) Fun.id))

(* {1 Fused relu on NaN and signed zeros} *)

(* A 1x1 conv over a 3x3 plane holding NaN, both zeros and both signs of
   finite values, into a +1 and a -1 channel.  The fused clamp must map
   NaN to +0.0 like [relu] and the boxed engine, with the norm (whose
   plane statistics the NaN poisons: every output is 0) and without. *)
let fusion_nan_zeros () =
  let pixels = [| Float.nan; -0.; 0.; 1.5; -1.5; 0.25; -0.; 2.; -3. |] in
  let x = Tensor.of_array [| 1; 1; 3; 3 |] pixels in
  let weight = Tensor.of_array [| 2; 1; 1; 1 |] [| 1.; -1. |] in
  let bias = Tensor.of_array [| 2 |] [| 0.; -0. |] in
  let gamma = Tensor.of_array [| 2 |] [| 1.; 1. |] in
  let beta = Tensor.of_array [| 2 |] [| 0.; 0. |] in
  let run (type b) (module B : Tensor_sig.S with type t = b) ~fused ~norm =
    let w = B.of_tensor weight and bs = B.of_tensor bias in
    let nb =
      if norm then Some (B.of_tensor gamma, B.of_tensor beta, 1e-5) else None
    in
    let x = B.of_tensor x in
    B.to_tensor
      (if fused then
         B.conv2d_batch ~stride:1 ~pad:0 ~weight:w ~bias:bs ?norm:nb
           ~relu:true x
       else
         let y = B.conv2d_batch ~stride:1 ~pad:0 ~weight:w ~bias:bs x in
         B.relu
           (match nb with
           | Some (gamma, beta, eps) -> B.channel_norm_batch ~gamma ~beta ~eps y
           | None -> y))
  in
  let clamp v = if v > 0. then v else 0. in
  let plain =
    Tensor.of_array [| 1; 2; 3; 3 |]
      (Array.append (Array.map clamp pixels)
         (Array.map (fun v -> clamp (-.v)) pixels))
  in
  List.iter
    (fun norm ->
      let expect = if norm then Tensor.zeros [| 1; 2; 3; 3 |] else plain in
      List.iter
        (fun (name, got) ->
          if not (same_bits got expect) then
            Alcotest.failf "%s (norm %b): not the relu of the conv" name norm)
        [
          ("f32 fused", run (module Tensor_f32) ~fused:true ~norm);
          ("f32 unfused", run (module Tensor_f32) ~fused:false ~norm);
          ("boxed fused", run (module Tensor_boxed) ~fused:true ~norm);
          ("boxed unfused", run (module Tensor_boxed) ~fused:false ~norm);
        ])
    [ false; true ]

(* {1 Fused max-pool = max-pool of the epilogue, bitwise} *)

(* Up to three pixels of a CHW image set to NaN, +-0.0 or +-inf. *)
let sprinkle g x =
  let c = Tensor.dim x 0 and h = Tensor.dim x 1 and w = Tensor.dim x 2 in
  let y = Tensor.copy x in
  for _ = 1 to Prng.int g 4 do
    Tensor.set y
      [| Prng.int g c; Prng.int g h; Prng.int g w |]
      [| Float.nan; 0.; -0.; Float.infinity; Float.neg_infinity |].(Prng.int g 5)
  done;
  y

(* Windows 2/2, 3/2, 2/1 and 3/3 over a 3x3 pad-1 conv, with and
   without the norm (whose beta holds -0.0, so unclamped outputs can be
   -0.0), with and without the relu (the kernel then pools unfused), on
   inputs seeded with NaN, signed zeros and infinities.  With [memo] a
   clean image and then mixed batches of its candidates run through the
   incremental conv.  Output channels reach 12, so the GEMM runs both
   its 4-row tiles and a remainder. *)
let qcheck_pool_fusion =
  QCheck.Test.make
    ~name:
      "f32 pool 1: conv2d_batch ~max_pool = max_pool2d_batch of the \
       epilogue, bitwise"
    ~count:40
    QCheck.(
      quad (int_range 0 99999) (int_range 0 3)
        (triple bool bool bool)
        (pair (int_range 1 12) (int_range 0 6)))
    (fun (seed, wi, (norm, relu, memo), (out_c, extra)) ->
      let size, stride = [| (2, 2); (3, 2); (2, 1); (3, 3) |].(wi) in
      let g = Prng.of_int seed in
      let in_c = 1 + Prng.int g 3 and side = size + extra in
      let f32 = Tensor_f32.of_tensor in
      let weight =
        f32 (Tensor.randn (Prng.split g) ~sigma:0.5 [| out_c; in_c; 3; 3 |])
      and bias =
        f32
          (Tensor.init [| out_c |] (fun i ->
               match i mod 3 with 0 -> -0. | 1 -> 0. | _ -> Prng.normal g ()))
      in
      let norm =
        if norm then
          Some
            ( f32 (Tensor.rand_uniform (Prng.split g) ~lo:0.5 ~hi:1.5 [| out_c |]),
              f32
                (Tensor.init [| out_c |] (fun i ->
                     if i mod 2 = 0 then -0. else Prng.normal g ~sigma:0.2 ())),
              1e-5 )
        else None
      in
      let check ~memo xs =
        let x = f32 (pack xs) in
        let fused =
          Tensor_f32.conv2d_batch ?memo ~stride:1 ~pad:1 ~weight ~bias
            ?norm ~relu ~max_pool:(size, stride) x
        in
        let y = Tensor_f32.conv2d_batch ~stride:1 ~pad:1 ~weight ~bias x in
        let y =
          match norm with
          | Some (gamma, beta, eps) ->
              Tensor_f32.channel_norm_batch ~gamma ~beta ~eps y
          | None -> y
        in
        let y = if relu then Tensor_f32.relu y else y in
        same_bits (Tensor_f32.to_tensor fused)
          (Tensor_f32.to_tensor (Tensor_f32.max_pool2d_batch ~stride ~size y))
      in
      let clean =
        sprinkle g
          (Tensor.rand_uniform (Prng.split g) ~lo:(-1.) ~hi:1.
             [| in_c; side; side |])
      in
      let memo = if memo then Some (Tensor_f32.conv_memo ()) else None in
      List.for_all
        (fun xs -> check ~memo xs)
        ([ clean ]
        :: List.init 3 (fun _ ->
               List.map (sprinkle g)
                 (mixed_batch g ~len:(1 + Prng.int g 4) [| clean |]))))

(* {1 Plan shape: where the max-pools went} *)

(* The per-step spans of one forward, in order: each [backend.*] step
   span's name without the prefix, marked when a conv carries the zoo's
   fused 2x2/2 max-pool. *)
let step_spans scores x =
  let has line sub = Helpers.contains line sub in
  List.filter_map
    (fun line ->
      List.find_map
        (fun step ->
          if has line (Printf.sprintf "\"name\": \"backend.%s\"" step) then
            Some
              (if has line "\"max_pool\": \"2x2/2\"" then
                 step ^ "+max_pool 2x2/2"
               else step)
          else None)
        [ "conv"; "norm"; "relu"; "pool"; "dense" ])
    (Helpers.with_trace_file (fun () -> ignore (scores x)))

(* The f32 plan folds each max-pool that follows a relu'd conv into that
   conv's epilogue, so an f32 vgg_tiny forward emits no [backend.pool]
   span; the boxed plan ([fuse = false]) keeps every layer a step of its
   own.  No zoo net's f32 forward runs a pool step straight after a
   conv (every zoo conv before a pool has a relu). *)
let plan_shape () =
  let x16 = pack [ Tensor.rand_uniform (Prng.of_int 4) [| 3; 16; 16 |] ] in
  let net = Nn.Zoo.vgg_tiny (Prng.of_int 3) ~image_size:16 ~num_classes:10 in
  let boxed = Nn.Backend.Boxed_engine.compile net in
  Alcotest.(check (list string))
    "f32 vgg_tiny steps"
    [ "conv+max_pool 2x2/2"; "conv+max_pool 2x2/2"; "conv"; "dense" ]
    (step_spans (F32_plan.scores_batch (F32_plan.compile net)) x16);
  Alcotest.(check (list string))
    "boxed vgg_tiny steps"
    [
      "conv"; "norm"; "relu"; "pool"; "conv"; "norm"; "relu"; "pool"; "conv";
      "relu"; "dense";
    ]
    (step_spans (Nn.Backend.Boxed_engine.scores_batch boxed) x16);
  let x8 = pack [ Tensor.rand_uniform (Prng.of_int 4) [| 3; 8; 8 |] ] in
  List.iteri
    (fun arch name ->
      let spans =
        step_spans
          (F32_plan.scores_batch (F32_plan.compile (zoo_net ~arch ~size:8 1)))
          x8
      in
      List.iteri
        (fun i s ->
          if s = "pool" && i > 0 && List.nth spans (i - 1) = "conv" then
            Alcotest.failf "%s: a pool step right after a conv" name)
        spans)
    Nn.Zoo.names

(* {1 Dense = naive ascending-p float64 loop, bitwise} *)

(* Two weight matrices of one shape run in turn on this domain: the
   per-domain float64 copy must follow the weight, not the shape. *)
let qcheck_dense_naive =
  QCheck.Test.make
    ~name:"f32 dense_batch = naive ascending-p f64 loop, across weight swaps"
    ~count:40
    QCheck.(
      quad (int_range 0 99999) (int_range 1 4) (int_range 1 40)
        (int_range 1 11))
    (fun (seed, n, k, out_dim) ->
      let g = Prng.of_int seed in
      let matrix () =
        as_f32 (Tensor.randn (Prng.split g) ~sigma:0.5 [| out_dim; k |])
      in
      let w1 = matrix () and w2 = matrix () in
      let bias =
        as_f32
          (Tensor.init [| out_dim |] (fun i ->
               match i mod 3 with 0 -> -0. | 1 -> 0. | _ -> Prng.normal g ()))
      in
      let x =
        as_f32 (Tensor.rand_uniform (Prng.split g) ~lo:(-1.) ~hi:1. [| n; k |])
      in
      let naive weight = Helpers.naive_dense ~finish:round32 ~bias ~weight x in
      let fw1 = Tensor_f32.of_tensor w1 and fw2 = Tensor_f32.of_tensor w2 in
      let fb = Tensor_f32.of_tensor bias and fx = Tensor_f32.of_tensor x in
      let dense w =
        Tensor_f32.to_tensor (Tensor_f32.dense_batch ~weight:w ~bias:fb fx)
      in
      same_bits (dense fw1) (naive w1)
      && same_bits (dense fw2) (naive w2)
      && same_bits (dense fw1) (naive w1))

(* {1 Attack records: boxed = f32} *)

(* Query metering sits above the backend, so a Sketch+False attack's
   per-image (queries, success) record must not depend on the plan that
   scored its queries.  The net has two
   max-pools, one after a conv;norm;relu and one after a conv;relu, so
   the f32 plan fuses both kinds of epilogue and both pools.  The
   targeted attacks aim at the least likely class.  At the 48-query cap
   every attack runs out without success, so those records change only
   when a plan lets an attack succeed or stop early.  A second,
   untargeted sweep caps each attack at the whole pair space on images
   where a flipping pair exists, so its attacks succeed and a wrong
   score shows as a changed query count or success flag.  The f32
   sweeps must also have run fused epilogues
   ([backend.f32.fusion_hits] grows). *)
let attack_records_across_backends () =
  let g = Prng.of_int 23 in
  let size = 8 and width = 8 and classes = 4 and max_queries = 48 in
  let net =
    let pg = Prng.split g in
    Nn.Network.create ~name:"backend_records" ~input_shape:[| 3; size; size |]
      ~num_classes:classes
      [
        Nn.Layer.conv2d pg ~pad:1 ~in_c:3 ~out_c:width ~k:3 ();
        Nn.Layer.channel_norm ~channels:width;
        Nn.Layer.relu ();
        Nn.Layer.conv2d pg ~pad:1 ~in_c:width ~out_c:width ~k:3 ();
        Nn.Layer.channel_norm ~channels:width;
        Nn.Layer.relu ();
        Nn.Layer.max_pool ~size:2 ();
        Nn.Layer.conv2d pg ~pad:1 ~in_c:width ~out_c:width ~k:3 ();
        Nn.Layer.relu ();
        Nn.Layer.max_pool ~size:2 ();
        Nn.Layer.flatten ();
        Nn.Layer.dense pg
          ~in_dim:(width * (size / 4) * (size / 4))
          ~out_dim:classes ();
      ]
  in
  let samples =
    List.init 2 (fun _ ->
        let image = Tensor.rand_uniform (Prng.split g) [| 3; size; size |] in
        let scores = Nn.Network.scores net image in
        let target = ref 0 in
        for c = 1 to classes - 1 do
          if Tensor.get_flat scores c < Tensor.get_flat scores !target then
            target := c
        done;
        (image, Nn.Network.classify net image, !target))
  in
  let attack ~backend ~max_queries ~goal (image, true_class) =
    let r =
      Oppsla.Sketch.attack ~max_queries ~goal (Oracle.of_network ~backend net)
        Oppsla.Condition.const_false_program ~image ~true_class
    in
    (r.Oppsla.Sketch.queries, r.Oppsla.Sketch.adversarial <> None)
  in
  let sweep ~backend ~targeted =
    List.map
      (fun (image, true_class, target) ->
        let goal =
          if targeted then Oppsla.Sketch.Targeted target
          else Oppsla.Sketch.Untargeted
        in
        attack ~backend ~max_queries ~goal (image, true_class))
      samples
  in
  (* Two images the boxed net can flip with one corner pixel, drawn
     after [samples] from the same stream.  Every random image lands in
     one class and the black image in another, so each image is the
     near side of an 8-step bisection between a random image and black:
     within 1/256 of the segment from the decision boundary, not on
     it. *)
  let flippable =
    let oracle = Oracle.of_network net in
    let black = Tensor.zeros [| 3; size; size |] in
    List.init 2 (fun _ ->
        let a = Tensor.rand_uniform (Prng.split g) [| 3; size; size |] in
        let true_class = Nn.Network.classify net a in
        if Nn.Network.classify net black = true_class then
          Alcotest.fail "random and black images share a class";
        let mix t = Tensor.map2 (fun x y -> x +. (t *. (y -. x))) a black in
        let lo = ref 0. and hi = ref 1. in
        for _ = 1 to 8 do
          let mid = (!lo +. !hi) /. 2. in
          if Nn.Network.classify net (mix mid) = true_class then lo := mid
          else hi := mid
        done;
        let image = mix !lo in
        if not (Oppsla.Sketch.success_exists oracle ~image ~true_class) then
          Alcotest.fail "no flipping pair next to the boundary";
        (image, true_class))
  in
  let full_sweep ~backend =
    List.map
      (attack ~backend ~max_queries:(8 * size * size)
         ~goal:Oppsla.Sketch.Untargeted)
      flippable
  in
  let fusion_hits () =
    Telemetry.Counter.get
      (Telemetry.Metrics.counter "backend.f32.fusion_hits")
  in
  let hits = fusion_hits () in
  (* Every f32 sweep must match its boxed run; returns that run. *)
  let check_sweep label run =
    let reference = run ~backend:Nn.Backend.Boxed in
    Alcotest.(check (list (pair int bool)))
      (Printf.sprintf "f32 = boxed (%s)" label)
      reference
      (run ~backend:Nn.Backend.F32);
    reference
  in
  List.iter
    (fun targeted ->
      let label = if targeted then "targeted" else "untargeted" in
      ignore (check_sweep label (sweep ~targeted)))
    [ true; false ];
  Alcotest.(check bool) "a full-space attack succeeds" true
    (List.exists snd (check_sweep "untargeted, full space" full_sweep));
  Alcotest.(check bool) "f32 sweeps ran fused conv epilogues" true
    (fusion_hits () > hits)

let suite =
  [
    Alcotest.test_case "boxed descriptor round-trip" `Quick boxed_roundtrip;
    Alcotest.test_case "f32 descriptor round-trip" `Quick f32_roundtrip;
    Alcotest.test_case "serialize cross-backend golden" `Quick
      serialize_cross_backend;
    QCheck_alcotest.to_alcotest qcheck_gemm_matches_naive;
    QCheck_alcotest.to_alcotest qcheck_im2col_layout;
    QCheck_alcotest.to_alcotest qcheck_f32_reshape_preserves_flat;
    QCheck_alcotest.to_alcotest qcheck_fusion_f32;
    QCheck_alcotest.to_alcotest qcheck_fusion_boxed;
    QCheck_alcotest.to_alcotest qcheck_incremental_conv;
    QCheck_alcotest.to_alcotest qcheck_incremental_zoo;
    QCheck_alcotest.to_alcotest (qcheck_incremental_pool 1);
    QCheck_alcotest.to_alcotest (qcheck_incremental_pool 2);
    Alcotest.test_case "f32 input-conv FLOP ledger on vgg_tiny" `Quick
      incremental_flops;
    Alcotest.test_case "f32 warm forward minor words on vgg_tiny" `Quick
      warm_forward_words;
    QCheck_alcotest.to_alcotest qcheck_conv_naive;
    QCheck_alcotest.to_alcotest qcheck_zoo_panel;
    Alcotest.test_case "fused relu maps NaN and -0.0 to +0.0" `Quick
      fusion_nan_zeros;
    QCheck_alcotest.to_alcotest qcheck_pool_fusion;
    Alcotest.test_case "f32 plans fuse max-pool, no backend.pool span"
      `Quick plan_shape;
    QCheck_alcotest.to_alcotest qcheck_dense_naive;
    Alcotest.test_case "attack records: boxed = f32" `Quick
      attack_records_across_backends;
  ]
