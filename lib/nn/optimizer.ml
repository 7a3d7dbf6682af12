type t = {
  momentum : float;
  weight_decay : float;
  mutable rate : float;
  (* Momentum buffers, keyed by physical identity of the parameter. *)
  mutable slots : (Param.t * Tensor.t) list;
}

let sgd ?(momentum = 0.9) ?(weight_decay = 0.) ~lr () =
  { momentum; weight_decay; rate = lr; slots = [] }

let slot t (p : Param.t) =
  match List.find_opt (fun (q, _) -> q == p) t.slots with
  | Some (_, m) -> m
  | None ->
      let m = Tensor.zeros (Tensor.shape p.value) in
      t.slots <- (p, m) :: t.slots;
      m

let step t params =
  List.iter
    (fun (p : Param.t) ->
      if t.weight_decay > 0. then
        Tensor.axpy ~alpha:t.weight_decay p.value p.grad;
      (* m <- momentum*m + grad; value <- value - lr*m *)
      let m = slot t p in
      Tensor.scale_inplace t.momentum m;
      Tensor.add_inplace m p.grad;
      Tensor.axpy ~alpha:(-.t.rate) m p.value)
    params

let set_lr t lr = t.rate <- lr
let lr t = t.rate
