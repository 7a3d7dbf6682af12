(* Tests for layers, networks, optimizers, training and serialization. *)

let check_tensor ?(eps = 1e-6) msg expected actual =
  Alcotest.(check bool) msg true (Tensor.equal ~eps expected actual)

let g () = Prng.of_int 123

(* Shape inference agrees with actual execution for every layer kind. *)
let output_shape_agrees () =
  let rng = g () in
  let cases =
    [
      (Nn.Layer.conv2d rng ~pad:1 ~in_c:3 ~out_c:4 ~k:3 (), [| 3; 8; 8 |]);
      (Nn.Layer.conv2d rng ~stride:2 ~in_c:2 ~out_c:5 ~k:2 (), [| 2; 8; 8 |]);
      (Nn.Layer.dense rng ~in_dim:12 ~out_dim:7 (), [| 12 |]);
      (Nn.Layer.relu (), [| 3; 4; 4 |]);
      (Nn.Layer.max_pool ~size:2 (), [| 3; 8; 8 |]);
      (Nn.Layer.flatten (), [| 3; 4; 4 |]);
      (Nn.Layer.channel_norm ~channels:3, [| 3; 4; 4 |]);
      ( Nn.Layer.residual
          [ Nn.Layer.conv2d rng ~pad:1 ~in_c:3 ~out_c:3 ~k:3 () ],
        [| 3; 6; 6 |] );
      ( Nn.Layer.inception
          [
            [ Nn.Layer.conv2d rng ~in_c:3 ~out_c:2 ~k:1 () ];
            [ Nn.Layer.conv2d rng ~pad:1 ~in_c:3 ~out_c:3 ~k:3 () ];
          ],
        [| 3; 5; 5 |] );
      (Nn.Layer.dense_block rng ~in_c:3 ~growth:2 ~layers:2 (), [| 3; 5; 5 |]);
    ]
  in
  List.iteri
    (fun i (layer, in_shape) ->
      let x = Tensor.rand_uniform rng in_shape in
      let y = Nn.Layer.forward layer x in
      Alcotest.(check (array int))
        (Printf.sprintf "case %d (%s)" i (Nn.Layer.describe layer))
        (Nn.Layer.output_shape layer in_shape)
        (Tensor.shape y))
    cases

let zoo_shapes () =
  let rng = g () in
  List.iter
    (fun arch ->
      let net =
        (Option.get (Nn.Zoo.by_name arch)) rng ~image_size:16 ~num_classes:10
      in
      let x = Tensor.rand_uniform rng [| 3; 16; 16 |] in
      Alcotest.(check (array int))
        arch [| 10 |]
        (Tensor.shape (Nn.Network.logits net x)))
    Nn.Zoo.names

let zoo_unknown () =
  Alcotest.(check bool) "unknown arch" true (Nn.Zoo.by_name "alexnet" = None)

let zoo_rejects_bad_size () =
  let rng = g () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Nn.Zoo.vgg_tiny rng ~image_size:10 ~num_classes:10);
       false
     with Invalid_argument _ -> true)

let forward_deterministic () =
  let rng = g () in
  let net = Nn.Zoo.resnet_tiny rng ~image_size:16 ~num_classes:10 in
  let x = Tensor.rand_uniform rng [| 3; 16; 16 |] in
  check_tensor ~eps:0. "same logits" (Nn.Network.logits net x)
    (Nn.Network.logits net x)

let network_create_validates () =
  let rng = g () in
  Alcotest.(check bool) "raises on shape mismatch" true
    (try
       ignore
         (Nn.Network.create ~name:"bad" ~input_shape:[| 3; 8; 8 |]
            ~num_classes:10
            [ Nn.Layer.flatten (); Nn.Layer.dense rng ~in_dim:192 ~out_dim:7 () ]);
       false
     with Invalid_argument _ -> true)

let scores_are_probabilities () =
  let rng = g () in
  let net = Nn.Zoo.googlenet_tiny rng ~image_size:16 ~num_classes:10 in
  let s = Nn.Network.scores net (Tensor.rand_uniform rng [| 3; 16; 16 |]) in
  Alcotest.(check (float 1e-9)) "sum 1" 1. (Tensor.sum s);
  Alcotest.(check bool) "non-negative" true (Tensor.min_val s >= 0.)

(* End-to-end gradient check through a small but representative stack:
   conv -> norm -> relu -> max pool -> flatten -> dense. *)
let network_gradient_numeric () =
  let rng = g () in
  let net =
    Nn.Network.create ~name:"grad-check" ~input_shape:[| 2; 4; 4 |]
      ~num_classes:3
      [
        Nn.Layer.conv2d rng ~pad:1 ~in_c:2 ~out_c:3 ~k:3 ();
        Nn.Layer.channel_norm ~channels:3;
        Nn.Layer.relu ();
        Nn.Layer.max_pool ~size:2 ();
        Nn.Layer.flatten ();
        Nn.Layer.dense rng ~in_dim:12 ~out_dim:3 ();
      ]
  in
  let x = Tensor.rand_uniform rng [| 2; 4; 4 |] in
  let label = 1 in
  let loss () = Tensor.cross_entropy (Nn.Network.logits net x) label in
  let params = Nn.Network.params net in
  List.iter Nn.Param.zero_grad params;
  let logits = Nn.Network.forward_train net x in
  ignore (Nn.Network.backward net (Tensor.cross_entropy_grad logits label));
  let eps = 1e-5 in
  List.iter
    (fun (p : Nn.Param.t) ->
      (* Check a few entries of each parameter against finite
         differences. *)
      let n = Tensor.numel p.value in
      let step = max 1 (n / 5) in
      let i = ref 0 in
      while !i < n do
        let v = Tensor.get_flat p.value !i in
        Tensor.set_flat p.value !i (v +. eps);
        let fp = loss () in
        Tensor.set_flat p.value !i (v -. eps);
        let fm = loss () in
        Tensor.set_flat p.value !i v;
        let numeric = (fp -. fm) /. (2. *. eps) in
        let analytic = Tensor.get_flat p.grad !i in
        if Float.abs (numeric -. analytic) > 1e-3 then
          Alcotest.failf "%s[%d]: analytic %g vs numeric %g" p.name !i analytic
            numeric;
        i := !i + step
      done)
    params

(* The same check through the composite layers (residual with projection,
   inception, dense block). *)
let composite_gradient_numeric () =
  let rng = g () in
  let net =
    Nn.Network.create ~name:"grad-check-composite" ~input_shape:[| 2; 4; 4 |]
      ~num_classes:2
      [
        Nn.Layer.residual
          ~projection:(Nn.Layer.conv2d rng ~in_c:2 ~out_c:3 ~k:1 ())
          [ Nn.Layer.conv2d rng ~pad:1 ~in_c:2 ~out_c:3 ~k:3 () ];
        Nn.Layer.relu ();
        Nn.Layer.inception
          [
            [ Nn.Layer.conv2d rng ~in_c:3 ~out_c:2 ~k:1 () ];
            [ Nn.Layer.conv2d rng ~pad:1 ~in_c:3 ~out_c:2 ~k:3 () ];
          ];
        Nn.Layer.dense_block rng ~in_c:4 ~growth:2 ~layers:2 ();
        Nn.Layer.flatten ();
        Nn.Layer.dense rng ~in_dim:128 ~out_dim:2 ();
      ]
  in
  let x = Tensor.rand_uniform rng [| 2; 4; 4 |] in
  let label = 0 in
  let loss () = Tensor.cross_entropy (Nn.Network.logits net x) label in
  let params = Nn.Network.params net in
  List.iter Nn.Param.zero_grad params;
  let logits = Nn.Network.forward_train net x in
  ignore (Nn.Network.backward net (Tensor.cross_entropy_grad logits label));
  let eps = 1e-5 in
  List.iter
    (fun (p : Nn.Param.t) ->
      let n = Tensor.numel p.value in
      let step = max 1 (n / 3) in
      let i = ref 0 in
      while !i < n do
        let v = Tensor.get_flat p.value !i in
        Tensor.set_flat p.value !i (v +. eps);
        let fp = loss () in
        Tensor.set_flat p.value !i (v -. eps);
        let fm = loss () in
        Tensor.set_flat p.value !i v;
        let numeric = (fp -. fm) /. (2. *. eps) in
        let analytic = Tensor.get_flat p.grad !i in
        if Float.abs (numeric -. analytic) > 1e-3 then
          Alcotest.failf "%s[%d]: analytic %g vs numeric %g" p.name !i analytic
            numeric;
        i := !i + step
      done)
    params

let backward_without_forward_fails () =
  let rng = g () in
  let layer = Nn.Layer.conv2d rng ~in_c:1 ~out_c:1 ~k:1 () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Nn.Layer.backward layer (Tensor.zeros [| 1; 2; 2 |]));
       false
     with Failure _ -> true)

let channel_norm_normalizes () =
  let rng = g () in
  let layer = Nn.Layer.channel_norm ~channels:2 in
  let x = Tensor.rand_uniform rng ~lo:3. ~hi:9. [| 2; 4; 4 |] in
  let y = Nn.Layer.forward layer x in
  (* With gamma=1, beta=0: each channel has mean ~0 and variance ~1. *)
  List.iter
    (fun piece ->
      Alcotest.(check (float 1e-6)) "mean 0" 0. (Tensor.mean piece);
      Alcotest.(check bool) "var near 1" true
        (Float.abs ((Tensor.sq_norm piece /. 16.) -. 1.) < 0.01))
    (Tensor.split_channels y [ 1; 1 ])

(* Training *)

let toy_problem rng n =
  (* Two classes separated by overall brightness. *)
  Array.init n (fun i ->
      let label = i mod 2 in
      let base = if label = 0 then 0.2 else 0.8 in
      let img =
        Tensor.init [| 1; 4; 4 |] (fun _ ->
            base +. Prng.normal rng ~sigma:0.05 ())
      in
      (img, label))

let training_learns () =
  let rng = g () in
  let net =
    Nn.Network.create ~name:"toy" ~input_shape:[| 1; 4; 4 |] ~num_classes:2
      [
        Nn.Layer.flatten ();
        Nn.Layer.dense rng ~in_dim:16 ~out_dim:2 ();
      ]
  in
  let train = toy_problem rng 40 in
  let config =
    { (Nn.Train.default_config ()) with epochs = 10; batch_size = 8 }
  in
  let reports = Nn.Train.fit ~config rng net train in
  let last = List.nth reports (List.length reports - 1) in
  Alcotest.(check bool) "learned" true (last.Nn.Train.train_acc > 0.9);
  Alcotest.(check bool)
    "loss decreased" true
    (last.Nn.Train.train_loss < (List.hd reports).Nn.Train.train_loss)

let training_deterministic () =
  let run () =
    let rng = Prng.of_int 55 in
    let net =
      Nn.Network.create ~name:"det" ~input_shape:[| 1; 4; 4 |] ~num_classes:2
        [ Nn.Layer.flatten (); Nn.Layer.dense rng ~in_dim:16 ~out_dim:2 () ]
    in
    let train = toy_problem rng 20 in
    let config = { (Nn.Train.default_config ()) with epochs = 3 } in
    ignore (Nn.Train.fit ~config rng net train);
    Nn.Network.logits net (Tensor.create [| 1; 4; 4 |] 0.5)
  in
  check_tensor ~eps:0. "bit-identical training" (run ()) (run ())

(* Training golden: each zoo net at 8x8, trained two epochs through
   [Train.fit] (partial last batch, one learning-rate decay) from a fixed
   seed.  The expected digests of its parameters' float bits come from a
   build whose [Layer.forward] ran its own direct loops, so they are an
   independent record; any change to the training arithmetic (forward,
   backward, softmax, optimizer) fails here.  The reported per-epoch
   [train_loss] bits are pinned beside them. *)
let param_digest net =
  let b = Buffer.create 4096 in
  List.iter
    (fun (p : Nn.Param.t) ->
      Array.iter
        (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v))
        p.value.Tensor.data)
    (Nn.Network.params net);
  Digest.to_hex (Digest.string (Buffer.contents b))

let training_golden () =
  List.iter
    (fun (arch, expected, losses) ->
      let g = Prng.of_int 2024 in
      let make = Option.get (Nn.Zoo.by_name arch) in
      let net = make (Prng.split g) ~image_size:8 ~num_classes:3 in
      let train =
        Array.init 6 (fun i -> (Tensor.rand_uniform g [| 3; 8; 8 |], i mod 3))
      in
      let config =
        { (Nn.Train.default_config ()) with epochs = 2; batch_size = 4 }
      in
      let reports = Nn.Train.fit ~config g net train in
      Alcotest.(check string) arch expected (param_digest net);
      Alcotest.(check (list string)) (arch ^ ": train_loss bits") losses
        (List.map
           (fun (r : Nn.Train.report) ->
             Printf.sprintf "%Lx" (Int64.bits_of_float r.train_loss))
           reports))
    [
      ( "vgg_tiny",
        "35287fe059d9eabc52acfc75600d9401",
        [ "3ff87b14111a5285"; "3ff2107c7cb3c1be" ] );
      ( "resnet_tiny",
        "9ec8eaf71d54b608d93fc5ae7597915e",
        [ "4008736192871100"; "400024cd1a1156c3" ] );
      ( "googlenet_tiny",
        "7db521f231c914dbe50ec04de0665b4f",
        [ "3ff47844453faff9"; "3ff29dd94d4d56fa" ] );
      ( "densenet_tiny",
        "c79739d013d3750a697b21ea57200276",
        [ "400030b0c10656bb"; "3ffb5eca0809ea2d" ] );
      ( "resnet50_tiny",
        "570edd1b552803636f45869227edaab9",
        [ "3ffc98e6315996cf"; "3ffdf32cf788bcc8" ] );
    ]

let sgd_momentum_moves_params () =
  let rng = g () in
  let p = Nn.Param.create "w" (Tensor.rand_uniform rng [| 4 |]) in
  let before = Tensor.copy p.value in
  Tensor.fill p.grad 1.;
  let opt = Nn.Optimizer.sgd ~lr:0.1 ~momentum:0. () in
  Nn.Optimizer.step opt [ p ];
  check_tensor ~eps:1e-9 "one sgd step"
    (Tensor.add_scalar (-0.1) before)
    p.value

let optimizer_lr_mutable () =
  let opt = Nn.Optimizer.sgd ~lr:0.1 () in
  Nn.Optimizer.set_lr opt 0.05;
  Alcotest.(check (float 0.)) "lr updated" 0.05 (Nn.Optimizer.lr opt)

let accuracy_counts () =
  let net =
    Nn.Network.create ~name:"acc" ~input_shape:[| 1; 1; 1 |] ~num_classes:2
      [
        Nn.Layer.flatten ();
        Nn.Layer.dense (g ()) ~in_dim:1 ~out_dim:2 ();
      ]
  in
  let x = Tensor.ones [| 1; 1; 1 |] in
  let predicted = Nn.Network.classify net x in
  let samples = [| (x, predicted); (x, 1 - predicted) |] in
  Alcotest.(check (float 1e-9)) "half right" 0.5 (Nn.Network.accuracy net samples)

(* Serialization *)

let with_temp_file f =
  let path = Filename.temp_file "oppsla_test" ".weights" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let serialize_roundtrip () =
  let rng = g () in
  let net = Nn.Zoo.densenet_tiny rng ~image_size:16 ~num_classes:10 in
  let x = Tensor.rand_uniform rng [| 3; 16; 16 |] in
  let before = Nn.Network.logits net x in
  with_temp_file (fun path ->
      Nn.Serialize.save path net;
      (* A fresh net with different weights, same architecture. *)
      let net' =
        Nn.Zoo.densenet_tiny (Prng.of_int 999) ~image_size:16 ~num_classes:10
      in
      Alcotest.(check bool) "fresh net differs" false
        (Tensor.equal before (Nn.Network.logits net' x));
      Nn.Serialize.load path net';
      check_tensor ~eps:0. "exact roundtrip" before (Nn.Network.logits net' x))

let serialize_wrong_network () =
  let rng = g () in
  let a = Nn.Zoo.vgg_tiny rng ~image_size:16 ~num_classes:10 in
  let b = Nn.Zoo.resnet_tiny rng ~image_size:16 ~num_classes:10 in
  with_temp_file (fun path ->
      Nn.Serialize.save path a;
      Alcotest.(check bool) "raises" true
        (try
           Nn.Serialize.load path b;
           false
         with Nn.Serialize.Format_error _ -> true))

let serialize_truncated () =
  let rng = g () in
  let net = Nn.Zoo.vgg_tiny rng ~image_size:16 ~num_classes:10 in
  with_temp_file (fun path ->
      Nn.Serialize.save path net;
      let contents = In_channel.with_open_text path In_channel.input_all in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            (String.sub contents 0 (String.length contents / 2)));
      Alcotest.(check bool) "raises" true
        (try
           Nn.Serialize.load path net;
           false
         with Nn.Serialize.Format_error _ -> true))

let param_count_positive () =
  List.iter
    (fun arch ->
      let net =
        (Option.get (Nn.Zoo.by_name arch)) (g ()) ~image_size:16 ~num_classes:10
      in
      Alcotest.(check bool)
        (arch ^ " has params") true
        (Nn.Network.param_count net > 100))
    Nn.Zoo.names

let describe_mentions_layers () =
  let net = Nn.Zoo.vgg_tiny (g ()) ~image_size:16 ~num_classes:10 in
  let d = Nn.Network.describe net in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        ("describe mentions " ^ needle)
        true
        (Helpers.contains d needle))
    [ "conv2d"; "dense"; "max_pool"; "channel_norm" ]

let suite =
  [
    Alcotest.test_case "output_shape agrees with forward" `Quick
      output_shape_agrees;
    Alcotest.test_case "zoo shapes" `Quick zoo_shapes;
    Alcotest.test_case "zoo unknown name" `Quick zoo_unknown;
    Alcotest.test_case "zoo rejects bad size" `Quick zoo_rejects_bad_size;
    Alcotest.test_case "forward deterministic" `Quick forward_deterministic;
    Alcotest.test_case "network create validates" `Quick
      network_create_validates;
    Alcotest.test_case "scores are probabilities" `Quick
      scores_are_probabilities;
    Alcotest.test_case "network gradient numeric" `Slow
      network_gradient_numeric;
    Alcotest.test_case "composite gradient numeric" `Slow
      composite_gradient_numeric;
    Alcotest.test_case "backward without forward fails" `Quick
      backward_without_forward_fails;
    Alcotest.test_case "channel norm normalizes" `Quick channel_norm_normalizes;
    Alcotest.test_case "training learns" `Quick training_learns;
    Alcotest.test_case "training deterministic" `Quick training_deterministic;
    Alcotest.test_case "training golden digests" `Quick training_golden;
    Alcotest.test_case "sgd step" `Quick sgd_momentum_moves_params;
    Alcotest.test_case "optimizer lr mutable" `Quick optimizer_lr_mutable;
    Alcotest.test_case "accuracy counts" `Quick accuracy_counts;
    Alcotest.test_case "serialize roundtrip" `Quick serialize_roundtrip;
    Alcotest.test_case "serialize wrong network" `Quick serialize_wrong_network;
    Alcotest.test_case "serialize truncated" `Quick serialize_truncated;
    Alcotest.test_case "param count positive" `Quick param_count_positive;
    Alcotest.test_case "describe mentions layers" `Quick
      describe_mentions_layers;
  ]
