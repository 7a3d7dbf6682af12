(* Shared test utilities. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  nn = 0 || scan 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Run [f] with tracing to a temporary file; returns the file's lines. *)
let with_trace_file f =
  let path = Filename.temp_file "oppsla_test_trace" ".json" in
  Telemetry.Trace.to_file path;
  let finish () =
    Telemetry.Trace.close ();
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> close_in ic);
    Sys.remove path;
    List.rev !lines
  in
  match f () with
  | () -> finish ()
  | exception e ->
      ignore (finish ());
      raise e

(* A deterministic toy "classifier" over [d x d] color images with two
   classes: class 1 iff the mean of all channel values exceeds the
   threshold.  The margin is linear in the mean, so one-pixel attacks have
   a simple, fully predictable geometry: flipping any pixel moves the mean
   by (delta_r + delta_g + delta_b) / (3 d^2). *)
let mean_threshold_oracle ?(threshold = 0.5) ?(sharpness = 40.) () =
  Oracle.of_fn ~name:"mean-threshold" ~num_classes:2 (fun x ->
      let m = Tensor.mean x in
      let z = sharpness *. (m -. threshold) in
      let p1 = 1. /. (1. +. exp (-.z)) in
      Tensor.of_array [| 2 |] [| 1. -. p1; p1 |])

(* A constant oracle: never changes its mind, so no adversarial example
   exists. *)
let constant_oracle ~num_classes ~winner () =
  Oracle.of_fn ~name:"constant" ~num_classes (fun _ ->
      Tensor.init [| num_classes |] (fun c -> if c = winner then 1. else 0.))

(* The heartbeat slot of batchers made by tests; never entered. *)
let test_watchdog = Telemetry.Watchdog.loop "test.batcher"

(* An uncapped batcher over [oracle] and its attached cache. *)
let batcher oracle =
  Batcher.create ~max_queries:max_int ~watchdog:test_watchdog oracle

(* One metered query for [x] through a fresh batcher, the step every
   attack takes: one charge, answered through [Oracle.observe].  [key]
   names the input; it only matters when a cache is attached. *)
let query ?(key = Score_cache.Custom "probe") oracle x =
  Batcher.query (batcher oracle) ~input:(fun () -> x) key

(* A uniform image of the given side and brightness. *)
let flat_image ~size v = Tensor.create [| 3; size; size |] v

(* A flat image with one off-value pixel.  Against the mean-threshold
   oracle a feasible flat image always falls to the first candidate the
   attack tries (the farthest-corner heuristic IS the max-delta move),
   so query counts carry no information.  Planting a single special
   pixel whose farthest corner is the only first-block winner pushes
   the success deep into the search order, and how deep now depends on
   the program's queue edits — which is what scoring is supposed to
   measure. *)
let special_pixel_image ~size ~base ~v ~row ~col =
  let img = flat_image ~size base in
  for c = 0 to 2 do
    Tensor.set img [| c; row; col |] v
  done;
  img

(* Count how many corner pairs flip the mean-threshold oracle for a flat
   image: used to cross-check attack success sets. *)
let gen_config ~size = { Oppsla.Gen.d1 = size; d2 = size }

(* {1 Independent float64 kernel references}

   Plain loops, no im2col and no GEMM, for checking the surviving
   [Tensor] kernels and the f32 backend ([finish] rounds each finished
   element for the latter). *)

(* The direct convolution loop over an NCHW batch: every output element
   is its bias seed ([0.] without a bias) plus the tap products in
   ascending tap order [(ic*kh + ky)*kw + kx], a padding tap adding
   [w *. 0.]. *)
let naive_conv ?(finish = Fun.id) ~stride ~pad weight bias x =
  let n = Tensor.dim x 0 and in_c = Tensor.dim x 1
  and h = Tensor.dim x 2 and w = Tensor.dim x 3 in
  let out_c = Tensor.dim weight 0
  and kh = Tensor.dim weight 2 and kw = Tensor.dim weight 3 in
  let oh = ((h + (2 * pad) - kh) / stride) + 1
  and ow = ((w + (2 * pad) - kw) / stride) + 1 in
  let out = Tensor.zeros [| n; out_c; oh; ow |] in
  for img = 0 to n - 1 do
    for oc = 0 to out_c - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let acc =
            ref (match bias with Some b -> Tensor.get b [| oc |] | None -> 0.)
          in
          for ic = 0 to in_c - 1 do
            for ky = 0 to kh - 1 do
              for kx = 0 to kw - 1 do
                let iy = (oy * stride) - pad + ky
                and ix = (ox * stride) - pad + kx in
                let v =
                  if iy >= 0 && iy < h && ix >= 0 && ix < w then
                    Tensor.get x [| img; ic; iy; ix |]
                  else 0.
                in
                acc := !acc +. (Tensor.get weight [| oc; ic; ky; kx |] *. v)
              done
            done
          done;
          Tensor.set out [| img; oc; oy; ox |] (finish !acc)
        done
      done
    done
  done;
  out

(* The direct dense loop over [(n, in_dim)] rows: element [(i, j)] is
   [Σ_p weight[j, p] *. x[i, p]] reduced in ascending [p] — a matvec per
   row — plus [bias.(j)] after the reduction when a bias is given. *)
let naive_dense ?(finish = Fun.id) ?bias ~weight x =
  let n = Tensor.dim x 0 and k = Tensor.dim x 1 in
  let out_dim = Tensor.dim weight 0 in
  Tensor.init [| n; out_dim |] (fun o ->
      let i = o / out_dim and j = o mod out_dim in
      let acc = ref 0. in
      for p = 0 to k - 1 do
        acc := !acc +. (Tensor.get weight [| j; p |] *. Tensor.get x [| i; p |])
      done;
      finish
        (match bias with Some b -> !acc +. Tensor.get b [| j |] | None -> !acc))
