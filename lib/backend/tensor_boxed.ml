(* The reference backend: activations are ordinary float64 [Tensor.t]s
   and every kernel delegates to the [Tensor] batch kernel that
   [Layer.forward] also runs, on a one-image view.  A plan compiled
   against this backend is therefore bit-identical to
   [Nn.Network.scores]; the backend differential tests pinning that
   property check the plan compiler (layer walk, fusion, batching). *)

type t = Tensor.t

let name = "boxed"
let fuse = false
let stats = Tensor_sig.Stats.make name
let of_tensor t = t
let to_tensor t = t
let shape = Tensor.shape
let reshape = Tensor.reshape
let relu = Tensor.relu
let add = Tensor.add

let channel_norm_batch ~gamma ~beta ~eps x =
  Tensor.channel_norm_batch ~gamma ~beta ~eps x

(* No incremental path: the reference runs every conv in full. *)
type conv_memo = unit

let conv_memo () = ()
let recomputed_cols () = 0

let conv2d_batch ?memo ~stride ~pad ~weight ~bias ?norm ?(relu = false)
    ?max_pool x =
  ignore memo;
  let t0 = Unix.gettimeofday () in
  let y = Tensor.conv2d_gemm_batch ~stride ~pad x ~weight ~bias:(Some bias) in
  let s = Tensor.shape y and ws = Tensor.shape weight in
  let n = s.(0) and cols = s.(2) * s.(3) in
  let kk = ws.(1) * ws.(2) * ws.(3) in
  Telemetry.Counter.add stats.Tensor_sig.Stats.flops (2 * n * ws.(0) * kk * cols);
  Telemetry.Counter.add stats.Tensor_sig.Stats.panels n;
  Telemetry.Histogram.observe stats.Tensor_sig.Stats.seconds
    (Unix.gettimeofday () -. t0);
  (* [fuse = false]: the plan compiler never requests the fused epilogue
     from this backend, but honor it anyway as the unfused composition
     so the signature stays total. *)
  let y =
    match norm with
    | None -> y
    | Some (gamma, beta, eps) -> channel_norm_batch ~gamma ~beta ~eps y
  in
  let y = if relu then Tensor.relu y else y in
  match max_pool with
  | None -> y
  | Some (size, stride) -> Tensor.max_pool2d_batch ~stride ~size y

let dense_batch ~weight ~bias x =
  let t0 = Unix.gettimeofday () in
  let y = Tensor.dense_batch x ~weight ~bias in
  let ws = Tensor.shape weight in
  Telemetry.Counter.add stats.Tensor_sig.Stats.flops
    (2 * Tensor.dim x 0 * ws.(0) * ws.(1));
  Telemetry.Histogram.observe stats.Tensor_sig.Stats.seconds
    (Unix.gettimeofday () -. t0);
  y

let max_pool2d_batch ~stride ~size x = Tensor.max_pool2d_batch ~stride ~size x
let concat_channels_batch = Tensor.concat_channels_batch
let softmax_rows = Tensor.softmax_rows
