(** PerfLLM: the RL-driven optimization loop (§3, Figure 1a).

    The environment is the PerfDojo game: states are programs, actions
    are the applicable semantics-preserving transformations plus stop,
    rewards follow every move (avoiding sparse-reward problems, §3.1). *)

(** Reward shape.  The paper uses [r = c / T(k_t)].  At scaled-down
    training budgets the default is the log-compressed variant
    [r = log (c / T)], which keeps Q targets O(1); the paper's exact
    shape remains available and is compared in the rl-ablation bench. *)
type reward_shape = Inverse_runtime | Log_speedup

type config = {
  episodes : int;
  max_steps : int;  (** horizon per episode *)
  action_cap : int;  (** candidate actions presented per step *)
  reward_c : float option;  (** [None]: calibrated to the naive runtime *)
  reward_shape : reward_shape;
  train_per_step : int;
  dqn : Dqn.config;
}

val default_config : config

type result = {
  best : Ir.Prog.t;
  best_time : float;
  best_moves : string list;
  episode_best : float array;
      (** best runtime found up to the end of each episode *)
  evaluations : int;  (** total performance-model evaluations *)
}

val always_presented : Transform.Moveref.t -> bool
(** Moves that are always included in the candidate subset (decisive
    annotation moves such as gpu_map); the plentiful structural moves
    fill the remaining slots by sampling. *)

(** A presented candidate action: a transformation instance ([None] is
    the stop action), the program it leads to, and the action-pair
    embedding. *)
type candidate = {
  inst : Transform.Xforms.instance option;
  next_prog : Ir.Prog.t;
  pair : float array;
}

val candidates_of :
  Util.Rng.t ->
  Transform.Xforms.caps ->
  int ->
  Ir.Prog.t ->
  float array ->
  candidate array
(** [candidates_of rng caps cap prog state_emb] — the capped candidate
    set presented to an agent at a state (shared by the DQN and the
    REINFORCE baseline). *)

val optimize :
  ?cfg:config ->
  ?init:string list ->
  seed:int ->
  Transform.Xforms.caps ->
  (Ir.Prog.t -> float) ->
  Ir.Prog.t ->
  result * Dqn.t
(** Train an agent on one kernel and return the best schedule found
    together with the trained agent.  Deterministic given [seed].
    [init] warm-starts the best-so-far from a recorded move sequence
    (replayed via {!Search.Stochastic.replay_skipping}), so episodes
    improve on a known-good schedule instead of restarting cold. *)
