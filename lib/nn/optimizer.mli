(** Stochastic gradient descent over {!Param.t} lists.

    The usual protocol per minibatch: zero all gradients, accumulate
    per-sample gradients via the layers' backward passes, then call
    {!step} once (gradients are averaged by the caller, see {!Train}). *)

type t

val sgd : ?momentum:float -> ?weight_decay:float -> lr:float -> unit -> t
(** Stochastic gradient descent with classical momentum and L2 weight
    decay (added to the gradient before the momentum update).
    Defaults: [momentum = 0.9], [weight_decay = 0.]. *)

val step : t -> Param.t list -> unit
(** Apply one update using the gradients currently stored in each param.
    Optimizer state (the momentum buffers) is keyed by the physical
    identity of each parameter, so the same optimizer value must be reused
    across steps. *)

val set_lr : t -> float -> unit
(** Adjust the learning rate (for schedules). *)

val lr : t -> float
