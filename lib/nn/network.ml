type t = {
  name : string;
  input_shape : int array;
  num_classes : int;
  stack : Layer.t;
}

let create ~name ~input_shape ~num_classes layers =
  let stack = Layer.sequential layers in
  let out =
    try Layer.output_shape stack input_shape
    with Invalid_argument msg ->
      invalid_arg (Printf.sprintf "Network.create(%s): %s" name msg)
  in
  if out <> [| num_classes |] then
    invalid_arg
      (Printf.sprintf
         "Network.create(%s): stack produces shape [%s], expected [%d]" name
         (String.concat "; " (Array.to_list (Array.map string_of_int out)))
         num_classes);
  { name; input_shape = Array.copy input_shape; num_classes; stack }

(* Single-image inference on the boxed plan's float64 kernels.  All
   oracle inference runs through the compiled plans of [Backend]
   instead; a boxed plan checked against this path checks the plan
   compiler. *)
let logits t x = Layer.forward ~train:false t.stack x
let scores t x = Tensor.softmax (logits t x)
let classify t x = Tensor.argmax (logits t x)
let clear_caches t = Layer.clear_caches t.stack
let forward_train t x = Layer.forward ~train:true t.stack x
let backward t dlogits = Layer.backward t.stack dlogits
let params t = Layer.params t.stack

let param_count t =
  List.fold_left (fun acc p -> acc + Param.count p) 0 (params t)

let accuracy t samples =
  if Array.length samples = 0 then invalid_arg "Network.accuracy: no samples";
  let correct = ref 0 in
  Array.iter
    (fun (x, label) -> if classify t x = label then incr correct)
    samples;
  float_of_int !correct /. float_of_int (Array.length samples)

let describe t =
  Printf.sprintf "%s: input=[%s] classes=%d params=%d\n  %s" t.name
    (String.concat "; "
       (Array.to_list (Array.map string_of_int t.input_shape)))
    t.num_classes (param_count t)
    (Layer.describe t.stack)
