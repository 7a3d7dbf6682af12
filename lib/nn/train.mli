(** Cross-entropy training loop. *)

type report = { epoch : int; train_loss : float; train_acc : float }

type config = {
  epochs : int;
  batch_size : int;
  optimizer : Optimizer.t;
}

val default_config : unit -> config
(** 8 epochs, batch 16, SGD momentum 0.9 / lr 0.05 / weight decay
    1e-4.  A fresh optimizer per call: its state is mutable. *)

val fit :
  ?config:config -> Prng.t -> Network.t -> (Tensor.t * int) array -> report list
(** [fit g net train] trains in place and returns the per-epoch reports in
    chronological order.  The learning rate decays by a factor 0.85
    after each epoch.  Shuffling uses [g]; with equal seeds the run is
    fully deterministic. *)
