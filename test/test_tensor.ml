(* Tests for the tensor library: shape discipline, elementwise ops,
   linear algebra, convolution/pooling (against numerical gradients), and
   softmax/losses. *)

let approx ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

let check_tensor ?(eps = 1e-6) msg expected actual =
  Alcotest.(check bool) msg true (Tensor.equal ~eps expected actual)

(* Construction and shapes *)

let construction () =
  let t = Tensor.create [| 2; 3 |] 1.5 in
  Alcotest.(check int) "numel" 6 (Tensor.numel t);
  Alcotest.(check (array int)) "shape" [| 2; 3 |] (Tensor.shape t);
  Alcotest.(check (float 0.)) "value" 1.5 (Tensor.get t [| 1; 2 |]);
  Alcotest.(check int) "ndim" 2 (Tensor.ndim t);
  Alcotest.(check int) "dim 1" 3 (Tensor.dim t 1)

let of_array_mismatch () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Tensor.of_array [| 2; 2 |] [| 1.; 2.; 3. |]);
       false
     with Tensor.Shape_mismatch _ -> true)

let reshape_shares_data () =
  let t = Tensor.init [| 2; 3 |] float_of_int in
  let r = Tensor.reshape t [| 3; 2 |] in
  Tensor.set r [| 0; 0 |] 42.;
  Alcotest.(check (float 0.)) "aliased" 42. (Tensor.get t [| 0; 0 |])

let reshape_bad () =
  let t = Tensor.zeros [| 2; 3 |] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Tensor.reshape t [| 7 |]);
       false
     with Tensor.Shape_mismatch _ -> true)

(* Multi-index access goes through the row-major flat index. *)
let flat_index_checks () =
  let t = Tensor.init [| 2; 3; 4 |] float_of_int in
  Alcotest.(check (float 0.)) "row major"
    (float_of_int ((1 * 12) + (2 * 4) + 3))
    (Tensor.get t [| 1; 2; 3 |]);
  Alcotest.(check bool) "oob raises" true
    (try
       ignore (Tensor.get t [| 0; 3; 0 |]);
       false
     with Invalid_argument _ -> true)

(* Elementwise *)

let elementwise_ops () =
  let a = Tensor.of_array [| 3 |] [| 1.; -2.; 3. |] in
  let b = Tensor.of_array [| 3 |] [| 4.; 5.; -6. |] in
  check_tensor "add" (Tensor.of_array [| 3 |] [| 5.; 3.; -3. |]) (Tensor.add a b);
  check_tensor "scale" (Tensor.of_array [| 3 |] [| 2.; -4.; 6. |]) (Tensor.scale 2. a);
  check_tensor "relu" (Tensor.of_array [| 3 |] [| 1.; 0.; 3. |]) (Tensor.relu a)

let shape_mismatch_binary () =
  let a = Tensor.zeros [| 2 |] and b = Tensor.zeros [| 3 |] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Tensor.add a b);
       false
     with Tensor.Shape_mismatch _ -> true)

let inplace_ops () =
  let a = Tensor.of_array [| 2 |] [| 1.; 2. |] in
  let b = Tensor.of_array [| 2 |] [| 10.; 20. |] in
  Tensor.add_inplace a b;
  check_tensor "add_inplace" (Tensor.of_array [| 2 |] [| 11.; 22. |]) a;
  Tensor.axpy ~alpha:2. b a;
  check_tensor "axpy" (Tensor.of_array [| 2 |] [| 31.; 62. |]) a;
  Tensor.scale_inplace 0.5 a;
  check_tensor "scale_inplace" (Tensor.of_array [| 2 |] [| 15.5; 31. |]) a;
  Tensor.fill a 0.;
  check_tensor "fill" (Tensor.zeros [| 2 |]) a

(* Reductions *)

let reductions () =
  let t = Tensor.of_array [| 4 |] [| 1.; -2.; 3.; 2. |] in
  Alcotest.(check (float 1e-9)) "sum" 4. (Tensor.sum t);
  Alcotest.(check (float 1e-9)) "mean" 1. (Tensor.mean t);
  Alcotest.(check (float 1e-9)) "max" 3. (Tensor.max_val t);
  Alcotest.(check (float 1e-9)) "min" (-2.) (Tensor.min_val t);
  Alcotest.(check int) "argmax" 2 (Tensor.argmax t);
  Alcotest.(check (float 1e-9)) "sq_norm" 18. (Tensor.sq_norm t)

let argmax_first_occurrence () =
  let t = Tensor.of_array [| 3 |] [| 5.; 5.; 1. |] in
  Alcotest.(check int) "first max" 0 (Tensor.argmax t)

(* Linear algebra *)

let matmul_known () =
  let a = Tensor.of_array [| 2; 3 |] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let b = Tensor.of_array [| 3; 2 |] [| 7.; 8.; 9.; 10.; 11.; 12. |] in
  check_tensor "product"
    (Tensor.of_array [| 2; 2 |] [| 58.; 64.; 139.; 154. |])
    (Tensor.matmul a b)

(* The dense layer's matrix-vector product: [matmul_nt] of [x] as one
   row against [a] is [(a x)ᵀ]. *)
let matvec_agrees_with_matmul () =
  let g = Prng.of_int 17 in
  let a = Tensor.randn g [| 4; 5 |] and x = Tensor.randn g [| 5 |] in
  let via_matmul =
    Tensor.flatten (Tensor.matmul a (Tensor.reshape x [| 5; 1 |]))
  in
  check_tensor ~eps:1e-9 "matvec" via_matmul
    (Tensor.flatten (Tensor.matmul_nt (Tensor.reshape x [| 1; 5 |]) a))

(* [matvec_t a y = aᵀ y], i.e. the row [yᵀ a]. *)
let matvec_t_is_transpose () =
  let g = Prng.of_int 18 in
  let a = Tensor.randn g [| 4; 5 |] and y = Tensor.randn g [| 4 |] in
  check_tensor ~eps:1e-9 "matvec_t"
    (Tensor.flatten (Tensor.matmul (Tensor.reshape y [| 1; 4 |]) a))
    (Tensor.matvec_t a y)

let outer_known () =
  let y = Tensor.of_array [| 2 |] [| 1.; 2. |] in
  let x = Tensor.of_array [| 3 |] [| 3.; 4.; 5. |] in
  check_tensor "outer"
    (Tensor.of_array [| 2; 3 |] [| 3.; 4.; 5.; 6.; 8.; 10. |])
    (Tensor.outer y x)

let transpose_involutive () =
  let g = Prng.of_int 19 in
  let a = Tensor.randn g [| 3; 7 |] in
  check_tensor ~eps:0. "double transpose" a (Tensor.transpose (Tensor.transpose a))

let dot_symmetric () =
  let g = Prng.of_int 20 in
  let a = Tensor.randn g [| 9 |] and b = Tensor.randn g [| 9 |] in
  Alcotest.(check (float 1e-9)) "commutes" (Tensor.dot a b) (Tensor.dot b a)

(* Convolution: the one float64 kernel, [conv2d_gemm_batch], on a
   batch of one CHW image (as [Layer.forward] runs it). *)

let conv2d ?stride ?pad x ~weight ~bias =
  let s = Tensor.shape x in
  let y =
    Tensor.conv2d_gemm_batch ?stride ?pad
      (Tensor.reshape x [| 1; s.(0); s.(1); s.(2) |])
      ~weight ~bias
  in
  let o = Tensor.shape y in
  Tensor.reshape y [| o.(1); o.(2); o.(3) |]

let conv_identity_kernel () =
  (* A 1x1 kernel of weight 1 on one channel is the identity. *)
  let g = Prng.of_int 21 in
  let x = Tensor.randn g [| 1; 5; 5 |] in
  let w = Tensor.of_array [| 1; 1; 1; 1 |] [| 1. |] in
  check_tensor ~eps:0. "identity" x (conv2d x ~weight:w ~bias:None)

let conv_known_values () =
  (* 2x2 mean filter over a 3x3 ramp. *)
  let x = Tensor.init [| 1; 3; 3 |] float_of_int in
  let w = Tensor.create [| 1; 1; 2; 2 |] 0.25 in
  let y = conv2d x ~weight:w ~bias:None in
  Alcotest.(check (array int)) "shape" [| 1; 2; 2 |] (Tensor.shape y);
  check_tensor "means"
    (Tensor.of_array [| 1; 2; 2 |] [| 2.; 3.; 5.; 6. |])
    y

let conv_bias_and_stride () =
  let x = Tensor.ones [| 1; 4; 4 |] in
  let w = Tensor.ones [| 1; 1; 2; 2 |] in
  let bias = Tensor.of_array [| 1 |] [| 10. |] in
  let y = conv2d ~stride:2 x ~weight:w ~bias:(Some bias) in
  Alcotest.(check (array int)) "shape" [| 1; 2; 2 |] (Tensor.shape y);
  check_tensor "values" (Tensor.create [| 1; 2; 2 |] 14.) y

let conv_padding () =
  (* Padded 3x3 sum filter over an image with a single lit center pixel:
     the center is inside every window, so each output cell equals its
     value. *)
  let x = Tensor.zeros [| 1; 3; 3 |] in
  Tensor.set x [| 0; 1; 1 |] 5.;
  let w = Tensor.ones [| 1; 1; 3; 3 |] in
  let y = conv2d ~pad:1 x ~weight:w ~bias:None in
  Alcotest.(check (array int)) "same spatial size" [| 1; 3; 3 |]
    (Tensor.shape y);
  check_tensor "padded" (Tensor.create [| 1; 3; 3 |] 5.) y

let conv_channel_mixing () =
  (* Two input channels summed by a 1x1 kernel. *)
  let x =
    Tensor.of_array [| 2; 1; 2 |] [| 1.; 2.; 10.; 20. |]
  in
  let w = Tensor.of_array [| 1; 2; 1; 1 |] [| 1.; 1. |] in
  check_tensor "sum of channels"
    (Tensor.of_array [| 1; 1; 2 |] [| 11.; 22. |])
    (conv2d x ~weight:w ~bias:None)

(* Numerical gradient checking for the backward passes. *)

let numeric_grad f x =
  let eps = 1e-5 in
  let n = Tensor.numel x in
  let grad = Tensor.zeros (Tensor.shape x) in
  for i = 0 to n - 1 do
    let v = Tensor.get_flat x i in
    Tensor.set_flat x i (v +. eps);
    let fp = f x in
    Tensor.set_flat x i (v -. eps);
    let fm = f x in
    Tensor.set_flat x i v;
    Tensor.set_flat grad i ((fp -. fm) /. (2. *. eps))
  done;
  grad

let conv_backward_matches_numeric () =
  let g = Prng.of_int 22 in
  let x = Tensor.randn g [| 2; 4; 4 |] in
  let w = Tensor.randn g [| 3; 2; 3; 3 |] in
  (* Loss = sum of outputs; then dout = ones and the analytic gradients
     must match finite differences of the loss. *)
  let loss x w = Tensor.sum (conv2d ~pad:1 x ~weight:w ~bias:None) in
  let dout = Tensor.ones [| 3; 4; 4 |] in
  let dx, dw, db = Tensor.conv2d_backward ~pad:1 ~x ~weight:w dout in
  let ndx = numeric_grad (fun x -> loss x w) x in
  let ndw = numeric_grad (fun w -> loss x w) w in
  check_tensor ~eps:1e-3 "dx" ndx dx;
  check_tensor ~eps:1e-3 "dw" ndw dw;
  (* dbias of a sum loss is the number of output positions. *)
  check_tensor ~eps:1e-9 "db" (Tensor.create [| 3 |] 16.) db

let im2col_known () =
  (* 2x2 image, 2x2 kernel, no padding: a single column holding the
     whole image in row-major patch order. *)
  let x = Tensor.of_array [| 1; 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let cols = Tensor.im2col ~kh:2 ~kw:2 x in
  Alcotest.(check (array int)) "shape" [| 4; 1 |] (Tensor.shape cols);
  check_tensor "contents" (Tensor.of_array [| 4; 1 |] [| 1.; 2.; 3.; 4. |]) cols

(* Against the direct loop of [Helpers.naive_conv]: same seed, same
   ascending tap order, so the GEMM formulation must match it bit for
   bit. *)
let conv_gemm_matches_direct () =
  let g = Prng.of_int 27 in
  List.iter
    (fun (stride, pad) ->
      let x = Tensor.randn g [| 1; 3; 6; 6 |] in
      let w = Tensor.randn g [| 4; 3; 3; 3 |] in
      let bias = Some (Tensor.randn g [| 4 |]) in
      let direct = Helpers.naive_conv ~stride ~pad w bias x in
      let gemm = Tensor.conv2d_gemm_batch ~stride ~pad x ~weight:w ~bias in
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "stride %d pad %d" stride pad)
        direct.Tensor.data gemm.Tensor.data)
    [ (1, 0); (1, 1); (2, 0); (2, 1); (3, 2) ]

let max_pool_forward () =
  let x =
    Tensor.of_array [| 1; 4; 4 |]
      [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10.; 11.; 12.; 13.; 14.; 15.; 16. |]
  in
  let y, switches = Tensor.max_pool2d ~size:2 x in
  check_tensor "pooled" (Tensor.of_array [| 1; 2; 2 |] [| 6.; 8.; 14.; 16. |]) y;
  Alcotest.(check (array int)) "switches" [| 5; 7; 13; 15 |] switches

let max_pool_backward () =
  let x = Tensor.init [| 1; 4; 4 |] float_of_int in
  let _, switches = Tensor.max_pool2d ~size:2 x in
  let dout = Tensor.of_array [| 1; 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let dx = Tensor.max_pool2d_backward ~x_shape:[| 1; 4; 4 |] ~switches dout in
  Alcotest.(check (float 0.)) "routed to argmax" 4. (Tensor.get dx [| 0; 3; 3 |]);
  Alcotest.(check (float 0.)) "zero elsewhere" 0. (Tensor.get dx [| 0; 0; 0 |]);
  Alcotest.(check (float 1e-9)) "mass conserved" 10. (Tensor.sum dx)

(* Softmax and losses *)

let softmax_properties () =
  let t = Tensor.of_array [| 3 |] [| 1.; 2.; 3. |] in
  let s = Tensor.softmax t in
  Alcotest.(check (float 1e-9)) "sums to 1" 1. (Tensor.sum s);
  Alcotest.(check bool) "monotone" true
    (Tensor.get_flat s 0 < Tensor.get_flat s 1
    && Tensor.get_flat s 1 < Tensor.get_flat s 2)

let softmax_shift_invariant () =
  let t = Tensor.of_array [| 3 |] [| 1.; 2.; 3. |] in
  check_tensor ~eps:1e-12 "shift invariant" (Tensor.softmax t)
    (Tensor.softmax (Tensor.add_scalar 100. t))

let softmax_overflow_safe () =
  let t = Tensor.of_array [| 2 |] [| 1000.; 1001. |] in
  let s = Tensor.softmax t in
  Alcotest.(check bool) "finite" true
    (Float.is_finite (Tensor.get_flat s 0) && Float.is_finite (Tensor.get_flat s 1))

(* [cross_entropy] reads the log-softmax: label [c]'s loss is
   [-log (softmax t).(c)]. *)
let log_softmax_consistent () =
  let g = Prng.of_int 24 in
  let t = Tensor.randn g [| 5 |] in
  let s = Tensor.softmax t in
  for c = 0 to 4 do
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "label %d: log softmax = log . softmax" c)
      (-.log (Tensor.get_flat s c))
      (Tensor.cross_entropy t c)
  done

let cross_entropy_known () =
  let t = Tensor.of_array [| 2 |] [| 0.; 0. |] in
  Alcotest.(check (float 1e-9)) "uniform" (log 2.) (Tensor.cross_entropy t 0)

let cross_entropy_grad_numeric () =
  let g = Prng.of_int 25 in
  let t = Tensor.randn g [| 4 |] in
  let analytic = Tensor.cross_entropy_grad (Tensor.copy t) 2 in
  let numeric = numeric_grad (fun t -> Tensor.cross_entropy t 2) t in
  check_tensor ~eps:1e-4 "matches numeric" numeric analytic

let cross_entropy_bad_label () =
  let t = Tensor.zeros [| 3 |] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Tensor.cross_entropy t 5);
       false
     with Invalid_argument _ -> true)

(* Concat / split *)

let concat_split_roundtrip () =
  let g = Prng.of_int 26 in
  let a = Tensor.randn g [| 2; 3; 3 |] in
  let b = Tensor.randn g [| 1; 3; 3 |] in
  let c = Tensor.randn g [| 4; 3; 3 |] in
  let one t = Tensor.reshape t (Array.append [| 1 |] (Tensor.shape t)) in
  let batch = Tensor.concat_channels_batch [ one a; one b; one c ] in
  Alcotest.(check (array int)) "shape" [| 1; 7; 3; 3 |] (Tensor.shape batch);
  let joined = Tensor.reshape batch [| 7; 3; 3 |] in
  match Tensor.split_channels joined [ 2; 1; 4 ] with
  | [ a'; b'; c' ] ->
      check_tensor ~eps:0. "a" a a';
      check_tensor ~eps:0. "b" b b';
      check_tensor ~eps:0. "c" c c'
  | _ -> Alcotest.fail "wrong number of pieces"

let split_bad_counts () =
  let t = Tensor.zeros [| 3; 2; 2 |] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Tensor.split_channels t [ 1; 1 ]);
       false
     with Invalid_argument _ -> true)

(* QCheck properties *)

let small_shape =
  QCheck.Gen.(
    map (fun (a, b) -> [| a; b |]) (pair (int_range 1 5) (int_range 1 5)))

let arbitrary_tensor =
  QCheck.make
    QCheck.Gen.(
      small_shape >>= fun shape ->
      let n = shape.(0) * shape.(1) in
      map
        (fun l -> Tensor.of_array shape (Array.of_list l))
        (list_repeat n (float_range (-10.) 10.)))

let qcheck_map_identity =
  QCheck.Test.make ~name:"map id = id" ~count:100 arbitrary_tensor (fun t ->
      Tensor.equal t (Tensor.map Fun.id t))

let qcheck_add_comm =
  QCheck.Test.make ~name:"scale distributes over add" ~count:100
    arbitrary_tensor (fun t ->
      Tensor.equal ~eps:1e-9
        (Tensor.scale 2. t)
        (Tensor.add t t))

let qcheck_flatten_preserves_sum =
  QCheck.Test.make ~name:"flatten preserves sum" ~count:100 arbitrary_tensor
    (fun t -> approx ~eps:1e-9 (Tensor.sum t) (Tensor.sum (Tensor.flatten t)))

let qcheck_softmax_normalized =
  QCheck.Test.make ~name:"softmax sums to one" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 8) (float_range (-20.) 20.))
    (fun l ->
      let t = Tensor.of_array [| List.length l |] (Array.of_list l) in
      approx ~eps:1e-9 1. (Tensor.sum (Tensor.softmax t)))

let suite =
  [
    Alcotest.test_case "construction" `Quick construction;
    Alcotest.test_case "of_array mismatch" `Quick of_array_mismatch;
    Alcotest.test_case "reshape shares data" `Quick reshape_shares_data;
    Alcotest.test_case "reshape bad" `Quick reshape_bad;
    Alcotest.test_case "flat_index" `Quick flat_index_checks;
    Alcotest.test_case "elementwise ops" `Quick elementwise_ops;
    Alcotest.test_case "binary shape mismatch" `Quick shape_mismatch_binary;
    Alcotest.test_case "inplace ops" `Quick inplace_ops;
    Alcotest.test_case "reductions" `Quick reductions;
    Alcotest.test_case "argmax first occurrence" `Quick argmax_first_occurrence;
    Alcotest.test_case "matmul known" `Quick matmul_known;
    Alcotest.test_case "matvec vs matmul" `Quick matvec_agrees_with_matmul;
    Alcotest.test_case "matvec_t is transpose" `Quick matvec_t_is_transpose;
    Alcotest.test_case "outer known" `Quick outer_known;
    Alcotest.test_case "transpose involutive" `Quick transpose_involutive;
    Alcotest.test_case "dot symmetric" `Quick dot_symmetric;
    Alcotest.test_case "conv identity kernel" `Quick conv_identity_kernel;
    Alcotest.test_case "conv known values" `Quick conv_known_values;
    Alcotest.test_case "conv bias and stride" `Quick conv_bias_and_stride;
    Alcotest.test_case "conv padding" `Quick conv_padding;
    Alcotest.test_case "conv channel mixing" `Quick conv_channel_mixing;
    Alcotest.test_case "conv backward numeric" `Slow conv_backward_matches_numeric;
    Alcotest.test_case "im2col known" `Quick im2col_known;
    Alcotest.test_case "conv gemm matches direct" `Quick
      conv_gemm_matches_direct;
    Alcotest.test_case "max pool forward" `Quick max_pool_forward;
    Alcotest.test_case "max pool backward" `Quick max_pool_backward;
    Alcotest.test_case "softmax properties" `Quick softmax_properties;
    Alcotest.test_case "softmax shift invariant" `Quick softmax_shift_invariant;
    Alcotest.test_case "softmax overflow safe" `Quick softmax_overflow_safe;
    Alcotest.test_case "log softmax consistent" `Quick log_softmax_consistent;
    Alcotest.test_case "cross entropy known" `Quick cross_entropy_known;
    Alcotest.test_case "cross entropy grad numeric" `Quick
      cross_entropy_grad_numeric;
    Alcotest.test_case "cross entropy bad label" `Quick cross_entropy_bad_label;
    Alcotest.test_case "concat/split roundtrip" `Quick concat_split_roundtrip;
    Alcotest.test_case "split bad counts" `Quick split_bad_counts;
    QCheck_alcotest.to_alcotest qcheck_map_identity;
    QCheck_alcotest.to_alcotest qcheck_add_comm;
    QCheck_alcotest.to_alcotest qcheck_flatten_preserves_sum;
    QCheck_alcotest.to_alcotest qcheck_softmax_normalized;
  ]
