(** PerfDojo: the top-level facade.

    Ties the IR, the transformation engine, the performance models and
    the search/RL machinery into the two interfaces the paper describes:
    the interactive performance {!Game} (§2, Figure 2) and one-call
    automatic {!optimize_ctx} (§3, §4). *)

module Ir = Ir
module Interp = Interp
module Transform = Transform
module Machine = Machine
module Kernels = Kernels
module Search = Search
module Rl = Rl
module Baselines = Baselines
module Codegen = Codegen
module Util = Util
module Tuning = Tuning
module Obs = Obs
module Robust = Robust
module Surrogate = Surrogate
module Recover = Recover
module Target = Target
module Transfo = Transfo

type target = Machine.Desc.target

exception Portfolio_failed of (string * string) list
(** Raised by {!optimize_portfolio_ctx} only when {e every} member
    crashed: one [(label, error)] pair per member, in member order.  A
    partial crash is survived (see {!optimize_portfolio_ctx}). *)

(** The performance game (§2): a session over a program where each move
    is a semantics-preserving transformation and the score is the
    modelled runtime — the environment PerfLLM trains in, and equally the
    interface for manual transformation-centric optimization. *)
module Game : sig
  type t = {
    session : Transform.Engine.session;
    target : target;
    reward_c : float;  (** the c of the reward r = c / T (§3.1) *)
    mutable evaluations : int;
  }

  val start : ?obs:Obs.Trace.sink -> target -> Ir.Prog.t -> t
  (** Validates the program and opens a session.  Raises
      {!Ir.Validate.Invalid} on a structurally invalid program.  [obs]
      receives the engine's [engine.apply] / [engine.undo] /
      [engine.enumerate] events. *)

  val state : t -> Ir.Prog.t
  val moves_played : t -> string list

  val moves : t -> (int * string) list
  (** Applicable moves at the current state with their indices. *)

  val time : t -> float
  (** Modelled runtime of the current state (counted as an evaluation). *)

  val reward : t -> float
  (** r = c / T of the current state. *)

  val play : t -> int -> float
  (** Apply move [i] from the current {!moves} list; returns the new
      runtime. *)

  val play_named : t -> string -> float
  (** Apply a move by its description string. *)

  val undo : t -> Ir.Prog.t option
  val undo_at : t -> int -> Ir.Prog.t option

  val verify : t -> (unit, string) result
  (** Numerical check of the whole session against the initial program
      (the paper's §2.2 empirical validation). *)
end

type strategy =
  | Naive  (** fuse + reuse until exhaustion (§4.1) *)
  | Greedy  (** naive + hardware transformations exhaustively *)
  | Heuristic  (** the per-target hardware-expert pass *)
  | Sampling of { budget : int; space : Search.Stochastic.space }
  | Annealing of { budget : int; space : Search.Stochastic.space }
  | Rl_search of Rl.Perfllm.config  (** PerfLLM (§3) *)
  | Portfolio of { budget : int }
      (** race {!default_portfolio} across domains, keep the best *)
  | Exhaustive
      (** enumerate the full transformation graph to
          [Ctx.exhaustive_depth] moves with canonical dedup
          ({!Search.Exhaustive.run}) — the provable-optimum baseline for
          small kernels; sequential and deterministic *)

type portfolio_member = {
  plabel : string;  (** shown as the winner's name *)
  pstrategy : strategy;  (** must not itself be [Portfolio] *)
  pseed : int;
}

type outcome = {
  schedule : Ir.Prog.t;
  time_s : float;
  moves : string list;
  evaluations : int;
  cache_hits : int;
      (** memoized objective lookups answered from the cache (0 without
          a cache) *)
  cache_misses : int;  (** lookups that ran the performance model *)
  failures : int;
      (** evaluations quarantined by {!Robust.Guard} — equal to the
          number of [search.eval_error] events the run traced (for a
          portfolio: summed over the surviving members) *)
}

val heuristic_pass_for :
  target -> Transform.Xforms.caps -> Ir.Prog.t -> Ir.Prog.t

val default_portfolio :
  ?seed:int -> budget:int -> unit -> portfolio_member list
(** The member set {!optimize_ctx} races for [Portfolio]: the expert pass,
    heuristic-space annealing under two seeds, edges-space annealing and
    heuristic-space sampling. *)

val strategy_of_string : budget:int -> string -> (strategy, string) result
(** The strategy a CLI or service name denotes: [naive], [greedy],
    [heuristic], [sampling], [sampling-edges], [annealing],
    [annealing-edges], [rl] (about [budget / 24] episodes), [portfolio]
    or [exhaustive].  An unknown name is an [Error] naming it. *)

(** The run context: every cross-cutting knob of an optimization run —
    determinism ([seed]), memoization ([cache]), resumption
    ([warm_start]), parallelism ([jobs]), observability ([obs],
    [metrics]) and fault tolerance ([guard], [faults]) — in one record,
    so call sites thread a single value instead of eight optional
    arguments.  Build one by piping builders over {!Ctx.default}:

    {[
      let ctx =
        Perfdojo.Ctx.(default |> with_seed 7 |> with_jobs 4 |> with_cache c)
      in
      Perfdojo.optimize_ctx ~ctx strategy target prog
    ]}

    {!optimize_ctx} documents how a run uses each field. *)
module Ctx : sig
  type t = {
    seed : int;  (** search determinism; default [1] *)
    cache : Tuning.Cache.t option;  (** objective memoization *)
    warm_start : string list;  (** recorded moves to resume from *)
    jobs : int;  (** [0] sequential, [>= 1] pooled domains *)
    obs : Obs.Trace.sink;  (** structured trace; default {!Obs.Trace.null} *)
    metrics : Obs.Metrics.t option;  (** counter/gauge registry *)
    guard : Robust.Guard.config;  (** evaluation quarantine policy *)
    faults : Robust.Faults.config;  (** deterministic fault injection *)
    surrogate : Surrogate.Model.t option;
        (** learned cost model: trained online by every real evaluation
            and (when [filter_ratio < 1]) used to pre-rank candidate
            batches so only the top fraction hits the simulator *)
    filter_ratio : float;
        (** fraction of each batch's distinct candidates sent to the
            simulator, in (0, 1]; default [1.0] (keep all — the
            surrogate then only trains). Ignored without [surrogate]. *)
    dedup : bool;
        (** evaluate each distinct candidate program once per batch;
            duplicates share the measurement (default [false]) *)
    visited_dedup : bool;
        (** remember the canonical fingerprint of every state measured
            so far and never re-evaluate an equivalent one (implies
            per-batch [dedup]; default [false]) *)
    exhaustive_depth : int;
        (** move-sequence depth bound for the {!Exhaustive} strategy;
            default [3] *)
    checkpoint : string option;
        (** crash-safe checkpoint file ({!Recover.Store}): search state
            is snapshotted there at round/level boundaries, atomically
            and durably, so a killed run can resume (default [None]).
            Enabling it promotes a sequential run to [jobs = 1] rounds
            (rounds are the checkpoint unit).
            Disabled inside portfolio members. *)
    checkpoint_every : int;
        (** minimum budget slots between snapshots (default [64]; the
            exhaustive strategy checkpoints every BFS level instead) *)
    resume : bool;
        (** restore from [checkpoint] if the file exists and continue
            the exact uninterrupted trajectory — same outcome, exact
            accounting, splice-identical stripped traces (default
            [false]; without the file this is a cold start).  A corrupt
            or mismatched checkpoint raises {!Recover.Error}. *)
    composites : string list;
        (** named composite transformations ({!Transfo.Composites}, or
            [["all"]] for every one) offered to search as macro-moves —
            one composite step instead of 3–5 atomic ones, so
            exhaustive certification reaches the same schedules at
            shallower depth (default [[]]: atomic moves only) *)
  }

  val default : t
  (** [seed = 1], no cache, cold start, sequential, untraced, unmetered,
      {!Robust.Guard.default}, {!Robust.Faults.none}, no surrogate,
      [filter_ratio = 1.0], no dedup, no visited-set,
      [exhaustive_depth = 3], no checkpoint, atomic moves only. *)

  val with_seed : int -> t -> t
  val with_cache : Tuning.Cache.t -> t -> t
  val with_warm_start : string list -> t -> t
  val with_jobs : int -> t -> t
  val with_obs : Obs.Trace.sink -> t -> t
  val with_metrics : Obs.Metrics.t -> t -> t
  val with_guard : Robust.Guard.config -> t -> t
  val with_faults : Robust.Faults.config -> t -> t
  val with_surrogate : Surrogate.Model.t -> t -> t
  val with_filter_ratio : float -> t -> t
  val with_dedup : bool -> t -> t
  val with_visited_dedup : bool -> t -> t
  val with_exhaustive_depth : int -> t -> t

  val with_checkpoint : ?every:int -> string -> t -> t
  (** Enable crash-safe checkpointing to the given file; [every]
      overrides the snapshot cadence (default: keep the current
      [checkpoint_every]). *)

  val with_resume : bool -> t -> t
  val with_composites : string list -> t -> t
end

val caps_of : ctx:Ctx.t -> target -> Transform.Xforms.caps
(** The action set of a run: {!Machine.caps} enriched with the
    context's composite macro-moves.  Replaying a recorded schedule that
    was found with composites needs these caps, not the bare machine
    ones. *)

val optimize_ctx : ctx:Ctx.t -> strategy -> target -> Ir.Prog.t -> outcome
(** One-call optimization of a kernel for a target under a run context —
    the primary entry point.  Deterministic given [ctx.seed].  [cache]
    memoizes the performance model by the program's exact structure
    (repeated candidates cost zero evaluations; counters in the
    outcome; see {!Tuning.Cache}).
    [warm_start] seeds search strategies with a recorded move sequence —
    typically {!Tuning.Warmstart.moves_for} — so tuning resumes from a
    database's best instead of restarting.

    [jobs] selects how the stochastic strategies run their rounds: [0]
    (the default) is the sequential algorithm — batch 1 on the caller,
    no pool; [jobs >= 1] evaluates candidates in rounds of
    {!Search.Stochastic.default_batch} on a {!Parallel.Pool} of [jobs]
    domains — results depend on the batch size but not on [jobs], so
    [jobs = 1] and [jobs = N] agree exactly.  A surrogate, dedup, the
    visited set or a checkpoint needs rounds, so each promotes a
    sequential run to [jobs = 1].  [Portfolio] races its members across
    [jobs] domains.

    [obs] receives the run's trace: a ["search"] span around the whole
    strategy, a ["warm-start"] span around the replay fallback, and the
    search layer's per-step events.  [metrics] additionally collects
    the search counters, the per-phase span histograms, pool
    utilization ([Parallel.Pool.export]) and — when [cache] is given —
    the cache counters ([Tuning.Cache.export]).  Both default to off
    and then cost nothing.

    Fault tolerance: every evaluation runs through {!Robust.Guard.run}
    under [guard] (default {!Robust.Guard.default}) — a raising, NaN or
    fuel-exhausted evaluation is quarantined at +∞ instead of aborting
    the run, traced as a [search.eval_error] event, counted in
    [robust.*] metrics and in the outcome's [failures].  Which
    candidates fail is deterministic, so jobs-invariance extends to the
    failures themselves.  [faults] (default {!Robust.Faults.none}, the
    identity) injects deterministic faults into the objective — a
    test/bench knob for proving the degradation story, never for
    production use. *)

val optimize_recorded :
  ctx:Ctx.t ->
  kernel:string ->
  target_name:string ->
  strategy ->
  target ->
  Ir.Prog.t ->
  outcome * Tuning.Record.t option
(** {!optimize_ctx} plus the tuning-database record of the winner in one
    call — the one deposit rule: the serve daemon, [Libgen.generate]
    and the CLI's optimize verb all deposit from it.  The record is
    built by {e replaying} the winning move sequence with
    {!caps_of}[ ~ctx] and re-timing it ({!Tuning.Warmstart.record_of}),
    so everything deposited is reproducible; an empty move sequence
    records the root itself (a kernel already optimal in naive form
    still warms up).  The record is [None] when the sequence does not
    replay exactly or the replayed time would be slower than the
    outcome's (recording that would make warm starts regress). *)

val optimize_portfolio_ctx :
  ctx:Ctx.t ->
  members:portfolio_member list ->
  target ->
  Ir.Prog.t ->
  outcome * string
(** Race an explicit member list under a run context (the member seeds
    override [ctx.seed] member by member); returns the winning outcome
    (its [evaluations] and [failures] are summed over the surviving
    members — what the race spent) and the winner's label.  Ties
    resolve by member order, so the result is deterministic for any
    [ctx.jobs].  Raises [Invalid_argument] on an empty list or a nested
    [Portfolio] member.

    Degradation: members run under {!Parallel.Pool.map_result}, so a
    crashing member does not cancel the race — it becomes a
    [portfolio.member_error] trace event plus a [robust.member_failures]
    count (its partial trace buffer is dropped), and the winner is
    picked among the survivors.  Only when every member dies does the
    race raise {!Portfolio_failed} with the per-member errors.

    Each surviving member traces into a private buffer; the buffers fold
    into [obs] in member order behind [portfolio.member] headers,
    followed by a [portfolio.winner] event — the merged stream is
    independent of race scheduling (modulo {!Obs.Trace.strip_timing}). *)

val optimize_best :
  ctx:Ctx.t -> ?budget:int -> target -> Ir.Prog.t -> outcome
(** Heuristic pass and a heuristic-space annealing run ([budget]
    default 300); keeps the winner.  Only the search uses [ctx.jobs]. *)
