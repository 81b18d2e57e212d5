(* PerfLLM: the RL-driven optimization loop (§3, Figure 1a).

   The environment is the PerfDojo game: states are programs, actions are
   the applicable semantics-preserving transformations (plus stop), the
   reward after every move is r = c / T(k_t) where T is the runtime of
   the transformed kernel under the target's performance model.  Per-move
   rewards avoid the sparse-reward problem; the c / T form avoids the
   cyclic degrade-and-recover exploit of relative-speedup rewards
   (§3.1). *)

open Transform

(* Reward shape.  The paper defines r = c / T(k_t); with 8-hour training
   budgets the Q network has time to fit the resulting wide dynamic range
   (speedups beyond 100x on GPU).  At the scaled-down budgets of this
   reproduction we default to the log-compressed variant
   r = log(c / T(k_t)), which preserves the argmax structure of the
   max-Bellman objective while keeping targets O(1); the exact paper
   shape remains available (and is compared in the rl-ablation bench). *)
type reward_shape = Inverse_runtime | Log_speedup

type config = {
  episodes : int;
  max_steps : int; (* horizon per episode *)
  action_cap : int; (* candidate actions presented per step *)
  reward_c : float option; (* None: calibrated to the naive runtime *)
  reward_shape : reward_shape;
  train_per_step : int;
  dqn : Dqn.config;
}

let default_config =
  {
    episodes = 40;
    max_steps = 24;
    action_cap = 48;
    reward_c = None;
    reward_shape = Log_speedup;
    train_per_step = 2;
    dqn = Dqn.default_config;
  }

type result = {
  best : Ir.Prog.t;
  best_time : float;
  best_moves : string list;
  episode_best : float array; (* best runtime found up to each episode *)
  evaluations : int;
}

(* Candidate actions at a state: a capped subset of the applicable
   instances plus the stop action.  Each candidate carries the program it
   leads to and its action-pair embedding. *)
type candidate = {
  inst : Xforms.instance option; (* None = stop *)
  next_prog : Ir.Prog.t;
  pair : float array;
}

(* The full applicable set can number in the hundreds (§2.2); embedding
   every candidate at every step is the expensive part of the loop, so we
   present at most [cap] of them.  Annotation-style moves (hardware
   mappings, storage changes) are few but decisive, so they are always
   presented; the plentiful structural moves (tilings, fusions, ...) fill
   the remaining slots by uniform sampling. *)
let always_presented = function
  | Moveref.(
      Gpu _ | Vectorize _ | Parallelize _ | Ssr _ | Frep _ | Reuse_dims _
      | Split_reduction _) ->
      true
  | _ -> false

let candidates_of rng caps (cap : int) (prog : Ir.Prog.t)
    (state_emb : float array) : candidate array =
  let insts = Xforms.all caps prog in
  let keyed, rest =
    List.partition (fun (i : Xforms.instance) -> always_presented i.move)
      insts
  in
  let keyed = Array.of_list keyed and rest = Array.of_list rest in
  let keyed =
    if Array.length keyed > cap then begin
      Util.Rng.shuffle_in_place rng keyed;
      Array.sub keyed 0 cap
    end
    else keyed
  in
  let room = max 0 (cap - Array.length keyed) in
  let rest =
    if Array.length rest > room then begin
      Util.Rng.shuffle_in_place rng rest;
      Array.sub rest 0 room
    end
    else rest
  in
  let chosen = Array.append keyed rest in
  let moves =
    Array.map
      (fun (inst : Xforms.instance) ->
        let next_prog = inst.apply prog in
        {
          inst = Some inst;
          next_prog;
          pair = Embed.action_pair state_emb (Embed.embed next_prog);
        })
      chosen
  in
  Array.append moves
    [| { inst = None; next_prog = prog;
         pair = Embed.action_pair state_emb state_emb } |]

let optimize ?(cfg = default_config) ?(init = []) ~seed caps
    (runtime : Ir.Prog.t -> float) (root : Ir.Prog.t) : result * Dqn.t =
  let agent = Dqn.create ~cfg:cfg.dqn seed in
  let env_rng = Util.Rng.create (seed + 7919) in
  let evaluations = ref 0 in
  let time p =
    incr evaluations;
    runtime p
  in
  let root_time = time root in
  let c = match cfg.reward_c with Some c -> c | None -> root_time in
  let best = ref root and best_time = ref root_time and best_moves = ref [] in
  (* Warm-start: a recorded sequence (from the tuning database) seeds
     the best-so-far, so episodes explore on top of a known-good
     schedule instead of having to rediscover it. *)
  if init <> [] then begin
    let warm, applied = Search.Stochastic.replay_skipping caps root init in
    let warm_time = time warm in
    if warm_time < !best_time then begin
      best := warm;
      best_time := warm_time;
      best_moves := applied
    end
  end;
  let episode_best = Array.make cfg.episodes root_time in
  for ep = 0 to cfg.episodes - 1 do
    let cur = ref root in
    let cur_emb = ref (Embed.embed root) in
    let moves = ref [] in
    let continue = ref true in
    let step = ref 0 in
    while !continue && !step < cfg.max_steps do
      incr step;
      let cands = candidates_of env_rng caps cfg.action_cap !cur !cur_emb in
      let choice = Dqn.select agent (Array.map (fun c -> c.pair) cands) in
      let chosen = cands.(choice) in
      let terminal = chosen.inst = None || !step >= cfg.max_steps in
      let t_next = time chosen.next_prog in
      let ratio = c /. Float.max t_next 1e-12 in
      let reward =
        match cfg.reward_shape with
        | Inverse_runtime -> ratio
        | Log_speedup -> log (Float.max ratio 1e-9)
      in
      (match chosen.inst with
      | Some inst ->
          moves := Xforms.describe inst :: !moves;
          if t_next < !best_time then begin
            best_time := t_next;
            best := chosen.next_prog;
            best_moves := List.rev !moves
          end
      | None -> continue := false);
      let next_emb = Embed.embed chosen.next_prog in
      let next_actions =
        if terminal then [||]
        else
          Array.map
            (fun c -> c.pair)
            (candidates_of env_rng caps cfg.action_cap chosen.next_prog
               next_emb)
      in
      Dqn.remember agent
        {
          action = chosen.pair;
          reward;
          next_state = next_emb;
          next_actions;
          terminal;
        };
      for _ = 1 to cfg.train_per_step do
        ignore (Dqn.train_step agent)
      done;
      cur := chosen.next_prog;
      cur_emb := next_emb
    done;
    episode_best.(ep) <- !best_time
  done;
  ( {
      best = !best;
      best_time = !best_time;
      best_moves = !best_moves;
      episode_best;
      evaluations = !evaluations;
    },
    agent )
