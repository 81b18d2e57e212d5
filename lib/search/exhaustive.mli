(** Exhaustive enumeration of the transformation graph with canonical
    dedup — the provable-optimum baseline (ROADMAP item 1).

    Breadth-first over move sequences from the root, collapsing the many
    spellings of one schedule state with {!Canon.fingerprint} so each
    state is expanded and measured once.  [unique]/[total] is the
    TransForm-style dedup ratio (how redundant the raw instance graph
    was); the trace reports it per level ([search.exhaustive_level]) and
    at the end ([search.exhaustive]).

    Certificates: a run that never hit {!default_max_states} proves the
    optimum over {e every} schedule reachable within [depth] moves
    ([certified]).  If the frontier emptied before the depth bound the
    whole reachable graph was enumerated and the optimum is global
    ([exhausted]) — "run until exhaustion" for small kernels.  Small
    bounds are the point: the stochastic engines and the RL agent are
    calibrated against these optima.

    Deterministic and sequential: instance enumeration order is fixed,
    nothing draws randomness.  Every evaluation (and every instance
    application) runs under the {!Robust.Guard}.

    Cost: a child whose exact structure ({!Ir.Prog.digest}) the run has
    already fingerprinted is an exact repeat of a known state; it counts
    in [total] and skips canonicalization.  The set of digests lives for
    one run and is not checkpointed.  States found at the depth bound
    are never expanded, so the walk keeps only their move paths. *)

type result = {
  best : Ir.Prog.t;
  best_time : float;
  best_moves : string list;
      (** shortest path of {!Transform.Xforms.describe} strings to the
          optimum, replayable via {!Stochastic.replay_exact} *)
  unique : int;  (** distinct canonical states discovered (incl. root) *)
  total : int;  (** state encounters: root + every instance application *)
  evals : int;  (** guarded objective evaluations (one per unique state) *)
  failures : int;  (** applications or evaluations quarantined *)
  depth : int;  (** requested bound *)
  reached_depth : int;  (** deepest level actually expanded *)
  certified : bool;
      (** the optimum is proved over all schedules within [depth] moves
          (false only when {!default_max_states} truncated the walk) *)
  exhausted : bool;
      (** the frontier emptied before the bound: the entire reachable
          transformation graph was enumerated, so the optimum is global *)
}

val default_max_states : int
(** 20000 — the cap on unique states a run expands: a memory guard, far
    above any small-kernel state count. *)

val run :
  ?filter:(Transform.Xforms.instance -> bool) ->
  ?obs:Obs.Trace.sink ->
  ?metrics:Obs.Metrics.t ->
  ?guard:Robust.Guard.config ->
  ?checkpoint:Checkpoint.config ->
  depth:int ->
  Transform.Xforms.caps ->
  Stochastic.objective ->
  Ir.Prog.t ->
  result
(** [run ~depth caps objective root] enumerates every schedule reachable
    from [root] in at most [depth] moves (deduplicated canonically) and
    returns the measured optimum with its certificate.  Metrics:
    [canon.unique] / [canon.total] counters and [search.steps].
    Raises [Invalid_argument] on negative [depth].

    [checkpoint] saves the walk through {!Checkpoint} after every
    completed BFS level (levels are the unit of determinism here, so
    [Checkpoint.config.every] is ignored): frontier move paths, seen
    fingerprints, best-so-far and exact accounting.  A resume replays
    the frontier's paths only when it will expand them, not after the
    final level.  Resuming a killed
    run re-expands only the level it died in — strictly fewer
    evaluations than a cold restart — and certifies the {e same}
    optimum with the same spliced trace.  A mismatched [depth], or a
    checkpoint written under another state cap, raises {!Recover.Error}
    ([Mismatch]); a pending
    SIGINT/SIGTERM checkpoints at the level boundary and raises
    {!Recover.Interrupt.Interrupted}.  A run without [checkpoint]
    ignores the interrupt flag and finishes its walk. *)
