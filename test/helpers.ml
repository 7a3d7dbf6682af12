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
