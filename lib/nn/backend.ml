(* Plan compiler: translate a trained [Network.t] once into a flat list
   of backend kernel steps — weights converted to backend storage up
   front via [B.of_tensor], conv→norm→relu→max-pool collapsed into the
   fused conv epilogue where the backend allows ([B.fuse]) and the layer graph
   has the adjacency — then run the plan on whole batches without
   touching the [Layer] representation again.

   This is the one batched inference engine: every oracle forward pass
   runs a plan.  [Make (Tensor_boxed)] runs the float64 [Tensor] batch
   kernels that [Layer.forward] runs on one image, so it is bit-identical
   to [Network.scores] and a differential between the two checks this
   compiler; [Make (Tensor_f32)] is the float32 Bigarray engine, equal
   under the tolerance policy ([score_tol]). *)

let score_tol = 1e-4

type kind = Boxed | F32

let kind_name = function Boxed -> "boxed" | F32 -> "f32"

let kind_of_string = function
  | "boxed" -> Some Boxed
  | "f32" -> Some F32
  | _ -> None

let all_kinds = [ Boxed; F32 ]

module Make (B : Tensor_sig.S) = struct
  type step =
    | Conv of {
        stride : int;
        pad : int;
        weight : B.t;
        bias : B.t;
        norm : (B.t * B.t * float) option;
        relu : bool;
        max_pool : (int * int) option;  (* (size, stride), after the relu *)
        memo : B.conv_memo option;
      }
    | Dense of { weight : B.t; bias : B.t }
    | Relu
    | Max_pool of { size : int; stride : int }
    | Flatten
    | Norm of { gamma : B.t; beta : B.t }
    | Residual of { body : step list; projection : step list option }
    | Inception of step list list
    | Dense_block of step list list

  type plan = { net_name : string; steps : step list }

  let rec steps_of_layer l =
    match Layer.view l with
    | Layer.V_seq layers -> List.concat_map steps_of_layer layers
    | Layer.V_conv { stride; pad; weight; bias } ->
        [
          Conv
            {
              stride;
              pad;
              weight = B.of_tensor weight;
              bias = B.of_tensor bias;
              norm = None;
              relu = false;
              max_pool = None;
              memo = None;
            };
        ]
    | Layer.V_dense { weight; bias } ->
        [ Dense { weight = B.of_tensor weight; bias = B.of_tensor bias } ]
    | Layer.V_relu -> [ Relu ]
    | Layer.V_max_pool { size; stride } -> [ Max_pool { size; stride } ]
    | Layer.V_flatten -> [ Flatten ]
    | Layer.V_norm { gamma; beta } ->
        [ Norm { gamma = B.of_tensor gamma; beta = B.of_tensor beta } ]
    | Layer.V_residual { body; projection } ->
        [
          Residual
            {
              body = steps_of_layer body;
              projection = Option.map steps_of_layer projection;
            };
        ]
    | Layer.V_inception branches ->
        [ Inception (List.map steps_of_layer branches) ]
    | Layer.V_dense_block convs ->
        [ Dense_block (List.map steps_of_layer convs) ]

  (* Fusion: conv;norm;relu / conv;norm / conv;relu collapse into the
     conv step's epilogue, and a max-pool right after a fused relu joins
     it.  Never a max-pool without the relu: there the window max could
     have to choose between -0.0 and +0.0, and rounding once after the
     max no longer provably matches (DESIGN.md section 5).  Only when the
     backend opts in — the result must equal the unfused composition
     exactly, a property [test_backend] pins per backend. *)
  let rec fuse_list = function
    | Conv ({ norm = None; relu = false; _ } as c)
      :: Norm { gamma; beta }
      :: Relu :: tl ->
        fuse_list
          (Conv
             { c with norm = Some (gamma, beta, Layer.norm_eps); relu = true }
          :: tl)
    | Conv ({ norm = None; relu = false; _ } as c) :: Norm { gamma; beta } :: tl
      ->
        Conv { c with norm = Some (gamma, beta, Layer.norm_eps) } :: fuse_list tl
    | Conv ({ relu = false; _ } as c) :: Relu :: tl ->
        fuse_list (Conv { c with relu = true } :: tl)
    | Conv ({ relu = true; max_pool = None; _ } as c)
      :: Max_pool { size; stride }
      :: tl ->
        Conv { c with max_pool = Some (size, stride) } :: fuse_list tl
    | s :: tl -> fuse_step s :: fuse_list tl
    | [] -> []

  and fuse_step = function
    | Residual { body; projection } ->
        Residual
          { body = fuse_list body; projection = Option.map fuse_list projection }
    | Inception branches -> Inception (List.map fuse_list branches)
    | Dense_block convs -> Dense_block (List.map fuse_list convs)
    | s -> s

  (* The plan's input conv gets the one incremental-conv memo: a query
     is a clean image with a pixel or a few changed, and only the first
     step sees that sparse difference — every later activation differs
     over the whole receptive-field cone. *)
  let compile (net : Network.t) =
    let steps = steps_of_layer net.Network.stack in
    let steps = if B.fuse then fuse_list steps else steps in
    let steps =
      match steps with
      | Conv c :: tl -> Conv { c with memo = Some (B.conv_memo ()) } :: tl
      | steps -> steps
    in
    { net_name = net.Network.name; steps }

  let rec run steps x = List.fold_left (fun acc s -> run_step s acc) x steps

  (* One span per conv, dense, relu, norm and pool step: the per-layer
     breakdown the trace viewer groups the hot path by.  The disabled
     path is one branch; the args (shapes, a fused max-pool's window,
     and the input conv's incrementally recomputed columns) are built
     lazily, after the step ran. *)
  and run_step s x =
    match s with
    | Conv { stride; pad; weight; bias; norm; relu; max_pool; memo } ->
        Telemetry.Trace.span "backend.conv" ~cat:"tensor"
          ~args:(fun () ->
            let w = B.shape weight in
            let tail =
              match memo with
              | Some m ->
                  [
                    ( "recomputed_cols",
                      Telemetry.Trace.Int (B.recomputed_cols m) );
                  ]
              | None -> []
            in
            let tail =
              match max_pool with
              | Some (size, pstride) ->
                  let size = string_of_int size in
                  ( "max_pool",
                    Telemetry.Trace.Str
                      (size ^ "x" ^ size ^ "/" ^ string_of_int pstride) )
                  :: tail
              | None -> tail
            in
            ("n", Telemetry.Trace.Int (B.shape x).(0))
            :: ("in_c", Telemetry.Trace.Int w.(1))
            :: ("out_c", Telemetry.Trace.Int w.(0))
            :: ("k", Telemetry.Trace.Int w.(2))
            :: ("stride", Telemetry.Trace.Int stride)
            :: ("pad", Telemetry.Trace.Int pad)
            :: tail)
          (fun () ->
            B.conv2d_batch ?memo ~stride ~pad ~weight ~bias ?norm ~relu
              ?max_pool x)
    | Dense { weight; bias } ->
        Telemetry.Trace.span "backend.dense" ~cat:"tensor"
          ~args:(fun () ->
            let w = B.shape weight in
            [
              ("n", Telemetry.Trace.Int (B.shape x).(0));
              ("in_dim", Telemetry.Trace.Int w.(1));
              ("out_dim", Telemetry.Trace.Int w.(0));
            ])
          (fun () -> B.dense_batch ~weight ~bias x)
    | Relu ->
        Telemetry.Trace.span "backend.relu" ~cat:"tensor"
          ~args:(fun () -> [ ("n", Telemetry.Trace.Int (B.shape x).(0)) ])
          (fun () -> B.relu x)
    | Max_pool { size; stride } ->
        Telemetry.Trace.span "backend.pool" ~cat:"tensor"
          ~args:(fun () ->
            [
              ("kind", Telemetry.Trace.Str "max");
              ("n", Telemetry.Trace.Int (B.shape x).(0));
            ])
          (fun () -> B.max_pool2d_batch ~stride ~size x)
    | Flatten ->
        let s = B.shape x in
        let n = s.(0) and total = Array.fold_left ( * ) 1 s in
        B.reshape x [| n; total / n |]
    | Norm { gamma; beta } ->
        Telemetry.Trace.span "backend.norm" ~cat:"tensor"
          ~args:(fun () -> [ ("n", Telemetry.Trace.Int (B.shape x).(0)) ])
          (fun () -> B.channel_norm_batch ~gamma ~beta ~eps:Layer.norm_eps x)
    | Residual { body; projection } ->
        let skip =
          match projection with None -> x | Some p -> run p x
        in
        B.add (run body x) skip
    | Inception branches ->
        B.concat_channels_batch (List.map (fun b -> run b x) branches)
    | Dense_block convs ->
        List.fold_left
          (fun feat conv -> B.concat_channels_batch [ feat; run conv feat ])
          x convs

  let forward plan x =
    Telemetry.Trace.span "backend.forward_batch" ~cat:"tensor"
      ~args:(fun () ->
        [
          ("backend", Telemetry.Trace.Str B.name);
          ("net", Telemetry.Trace.Str plan.net_name);
        ])
      (fun () -> run plan.steps x)

  let scores_batch plan xs =
    let logits = forward plan (B.of_tensor xs) in
    B.to_tensor
      (Telemetry.Trace.span "backend.softmax" ~cat:"tensor" (fun () ->
           B.softmax_rows logits))
end

module Boxed_engine = Make (Tensor_boxed)
module F32_engine = Make (Tensor_f32)
