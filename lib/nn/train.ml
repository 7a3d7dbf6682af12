type report = { epoch : int; train_loss : float; train_acc : float }

type config = {
  epochs : int;
  batch_size : int;
  optimizer : Optimizer.t;
}

let default_config () =
  {
    epochs = 8;
    batch_size = 16;
    optimizer = Optimizer.sgd ~momentum:0.9 ~weight_decay:1e-4 ~lr:0.05 ();
  }

let lr_decay = 0.85

let fit ?config g net train =
  let config = match config with Some c -> c | None -> default_config () in
  if Array.length train = 0 then invalid_arg "Train.fit: empty training set";
  let params = Network.params net in
  let n = Array.length train in
  let reports = ref [] in
  for epoch = 1 to config.epochs do
    let order = Prng.permutation g n in
    let loss_sum = ref 0. and correct = ref 0 in
    let i = ref 0 in
    while !i < n do
      let batch_end = min n (!i + config.batch_size) in
      let batch_n = batch_end - !i in
      List.iter Param.zero_grad params;
      for j = !i to batch_end - 1 do
        let x, label = train.(order.(j)) in
        let logits = Network.forward_train net x in
        let loss, grad = Tensor.cross_entropy_with_grad logits label in
        loss_sum := !loss_sum +. loss;
        if Tensor.argmax logits = label then incr correct;
        let dlogits = Tensor.scale (1. /. float_of_int batch_n) grad in
        ignore (Network.backward net dlogits)
      done;
      Optimizer.step config.optimizer params;
      i := batch_end
    done;
    Optimizer.set_lr config.optimizer (Optimizer.lr config.optimizer *. lr_decay);
    reports :=
      {
        epoch;
        train_loss = !loss_sum /. float_of_int n;
        train_acc = float_of_int !correct /. float_of_int n;
      }
      :: !reports
  done;
  (* Training leaves each layer's last forward-pass intermediates cached
     (inputs, switches, norm inputs) — dead weight for the inference-only
     attack workloads that follow. *)
  Network.clear_caches net;
  List.rev !reports
