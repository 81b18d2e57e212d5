(** A small fully-connected neural network with manual backpropagation
    and the Adam optimizer — the function approximator behind the deep
    Q-network (§3.2).  Pure OCaml, deterministic given the RNG seed. *)

type layer = {
  w : float array array;  (** out x in *)
  b : float array;
  gw : float array array;  (** gradient accumulators *)
  gb : float array;
  mw : float array array;  (** Adam first moments *)
  vw : float array array;  (** Adam second moments *)
  mb : float array;
  vb : float array;
}

type t = { layers : layer array; mutable adam_t : int }

val create : Util.Rng.t -> int list -> t
(** [create rng [n0; ...; nk]] builds an MLP with ReLU activations
    between layers and a linear output, He-initialized. *)

val forward : t -> float array -> float array

type tape
(** Saved activations for backpropagation. *)

val forward_tape : t -> float array -> tape * float array

val backward : t -> tape -> float array -> unit
(** [backward net tape dout] accumulates parameter gradients for one
    sample given dLoss/dOutput. *)

val zero_grad : t -> unit

val adam_step : lr:float -> t -> unit
(** Apply accumulated gradients with Adam (moment decays 0.9 and 0.999,
    epsilon 1e-8) at learning rate [lr] and advance its step count. *)

val copy_weights : src:t -> dst:t -> unit
(** Copy weights (not optimizer state); used to refresh the target
    network. *)
