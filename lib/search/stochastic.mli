(** Stochastic schedule search (§4.2).

    Search space structures:
    - {!Edges}: the search graph mirrors the transformation graph; a
      candidate grows by appending one applicable move to a parent.
    - {!Heuristic}: a candidate is a complete move {e sequence}; a
      neighbor modifies it at an arbitrary point (replace / delete /
      insert) and replays the rest, skipping moves that became
      inapplicable — the structure the paper derives from expert
      hand-tuning.  Each run keeps a {e mutation-draw table}: for every
      prefix it mutated after, the moves offered there that pass
      [filter], in {!Transform.Xforms.all} order.  A run's root, caps
      and filter are fixed and replay is deterministic, so the table is
      exact and a repeated prefix is neither replayed nor re-enumerated;
      the draws are the same as without it.  The table holds typed
      moves ({!Transform.Moveref.t}) only, is shared by the run's pool
      tasks under a lock, is not checkpointed and dies with the run.  It
      assumes [filter] is a pure function of the instance.  A run keeps
      every move typed and replays a child through
      {!Transform.Xforms.resolve_move}; it reads describe strings only
      from [init] and a checkpoint and prints them only into a
      checkpoint and [best_moves].

    Methods: weighted random sampling (selection probability from the
    {e parent}'s runtime) and simulated annealing (cost is the
    candidate's own runtime).  Both record the best-so-far curve for the
    Figure-12 convergence comparison.

    {b One engine.}  Both methods run AutoTVM's batched measurement
    loop: each round prepares [batch] slots deterministically on the
    submitting thread (parent selection, then the slot's RNG), builds
    and measures the children — across the domains of [pool] when one
    is given, on the caller otherwise — and folds the outcomes back in
    slot order.  [batch = 1] (the default) {e is} the sequential
    algorithm: the slot draws from the search RNG itself, so each
    candidate sees every earlier one.  For [batch > 1] each slot gets a
    split-off RNG stream and candidates within a round cannot see each
    other, so the trajectory differs from the sequential one — but it is
    a function of [(seed, batch)] only: [jobs = 1] and [jobs = N] pools
    return bit-identical results.

    The [objective] may run concurrently on several domains when a
    multi-domain [pool] is given: it must be pure or internally
    synchronized (the analytic machine models are pure;
    {!Tuning.Cache.memoize} is domain-safe). *)

type objective = Ir.Prog.t -> float
(** Modelled runtime in seconds; lower is better. *)

type space = Edges | Heuristic

type prerank = {
  score : Ir.Prog.t -> float;  (** higher = predicted faster *)
  observe : Ir.Prog.t -> float -> unit;
      (** fed every real measurement, in slot order *)
  filter_ratio : float;
      (** fraction of distinct candidates per round sent to the real
          objective, in (0, 1]; [1.0] keeps all (training only) *)
  snapshot : unit -> Util.Json.t;
      (** the model's full state, written as the [model] member of
          every checkpoint the run saves *)
  restore : Util.Json.t -> unit;
      (** puts a [snapshot] back in place when the run resumes, so the
          resumed model trains and filters exactly like the
          uninterrupted one; raises {!Recover.Error} ([Corrupt]) when
          the snapshot does not fit the model *)
}
(** A surrogate pre-ranking stage (see {!random_sampling}): [score]
    cheaply ranks the distinct candidates of a round and only the top
    [filter_ratio] fraction pays for a real evaluation; [observe]
    receives every real measurement as online training signal.  All are
    abstract closures — the concrete learned model lives in
    [lib/surrogate], whose [Surrogate.Model.prerank] builds this record;
    that library depends on this one, not the reverse.  Scoring and
    observation happen only on the submitting thread, in slot order, so
    a deterministic model keeps the search jobs-invariant. *)

type result = {
  best : Ir.Prog.t;
  best_time : float;
  best_moves : string list;  (** replayable via {!replay_exact} *)
  curve : float array;
      (** best-so-far runtime after each budget slot, root (and
          warm-start) included — the last point equals [best_time] *)
  evals : int;
      (** objective (simulator) evaluations of budget slots actually
          performed: the budget minus the skipped, deduplicated, visited
          and build-failed slots —
          [evals + skipped + deduped + visited + failures = budget]
          exactly whenever no evaluation is quarantined (a quarantined
          evaluation consumed its simulator call, so it counts in both
          [evals] and [failures]; a slot whose build raised counts only
          in [failures]) *)
  skipped : int;
      (** budget slots filtered out by the surrogate — never measured *)
  deduped : int;
      (** budget slots answered by a round-mate's shared measurement *)
  visited : int;
      (** budget slots whose canonical state ({!Canon.fingerprint}) was
          already measured in an earlier round — never re-measured *)
  failures : int;
      (** evaluations quarantined by the guard — equal to the number of
          [search.eval_error] events the run traced *)
}

val replay_skipping :
  ?filter:(Transform.Xforms.instance -> bool) ->
  Transform.Xforms.caps ->
  Ir.Prog.t ->
  string list ->
  Ir.Prog.t * string list
(** Replay a sequence of {!Transform.Xforms.describe} strings from a
    root, skipping entries not applicable at their point; returns the
    final program and the names that actually applied.  A string that
    is not a move's canonical spelling ({!Transform.Xforms.named})
    names nothing and is skipped; every other step checks only the
    move's own site ({!Transform.Xforms.resolve_move}), through the
    replay loop a search run uses for its typed moves. *)

val replay_exact :
  ?filter:(Transform.Xforms.instance -> bool) ->
  Transform.Xforms.caps ->
  Ir.Prog.t ->
  string list ->
  (Ir.Prog.t, string) Stdlib.result
(** Replay a recorded sequence exactly: every entry must apply at its
    point and the final program must validate; [[]] is [Ok root].  Each
    step is {!Transform.Xforms.resolve}.  An [Error] names the failing
    step, the path its string anchors to and up to three applicable
    alternatives of the same transformation (from {!Transform.Xforms.all}). *)

(** {2 Fault tolerance}

    Every evaluation — root, warm-start replay, and each candidate —
    runs through {!Robust.Guard} under [guard] (default
    {!Robust.Guard.default}).  A failed evaluation is {e quarantined}
    rather than fatal: its trajectory slot scores +∞, it is never the
    best, never accepted by annealing, never drawn as a sampling parent,
    and (being non-finite) never enters a memoization cache.  Each
    quarantine is one [search.eval_error] trace event plus [robust.*]
    counter bumps, and [result.failures] counts them.

    Failures are part of the jobs-invariance guarantee: the guard and
    the {!Robust.Faults} harness are deterministic per candidate, so
    [jobs = 1] and [jobs = N] agree on {e which} candidates failed. *)

val default_batch : int
(** The round size the facade uses for pooled, staged or checkpointed
    runs: [8]. *)

val random_sampling :
  ?seed:int ->
  ?filter:(Transform.Xforms.instance -> bool) ->
  ?init:string list ->
  ?obs:Obs.Trace.sink ->
  ?metrics:Obs.Metrics.t ->
  ?guard:Robust.Guard.config ->
  ?batch:int ->
  ?prerank:prerank ->
  ?dedup:bool ->
  ?visited_dedup:bool ->
  ?checkpoint:Checkpoint.config ->
  ?pool:Parallel.Pool.t ->
  space:space ->
  budget:int ->
  Transform.Xforms.caps ->
  objective ->
  Ir.Prog.t ->
  result
(** Global weighted sampling over all previously encountered candidates
    (as of the round start); [filter] restricts the move set (used by
    the TVM-template baseline).  [init] warm-starts the pool with a
    recorded move sequence (replayed through {!replay_skipping}), so
    search resumes from a tuning database's best instead of restarting
    cold.  Raises [Invalid_argument] when [budget < 0] or [batch < 1],
    before anything is evaluated.

    [obs] receives [search.start] / [search.eval] / [search.step] /
    [search.best] events ([search.start]'s [method] is
    [random-sampling], or [random-sampling-parallel] when
    [batch > 1]); [metrics] accumulates [search.steps] and the
    [search.runtime] histogram.  Both default to off and then cost
    nothing (see {!Obs.Trace.enabled}).  Every event is emitted on the
    submitting thread in slot order, so the stream is a function of
    [(seed, batch)] modulo {!Obs.Trace.strip_timing}.

    [pool] (default: none, tasks run on the caller) spreads each round's
    building and measuring across domains.  [checkpoint] saves the
    whole search state at round boundaries through {!Checkpoint} and
    resumes it (see {!Checkpoint.config}); with a [prerank] the
    checkpoint also carries the surrogate model.

    {b Evaluation saving} (opt-in; each absent stage is an identity —
    no fingerprint, no counter, no event):
    - [dedup] (default [false]) hashes each round's candidates by their
      canonical fingerprint ({!Canon.fingerprint}) and evaluates each
      distinct state once; the duplicates — including alpha-renamed or
      commutatively-reordered spellings — share the measurement.
      Traced per round as [search.batch_dedup] with unique/total
      counts, and counted in [result.deduped] / the
      [surrogate.dedup_saved] metric.
    - [visited_dedup] (default [false]) additionally remembers the
      canonical fingerprint of every state measured so far (seeded with
      the root and warm-start states) and never re-measures one: the
      slot folds as visited — no measurement, no acceptance draw, not a
      failure ([result.visited], [search.visited_skip] events, and the
      [canon.unique] / [canon.total] metrics counting distinct-new vs
      built candidates).  Membership is checked on the submitting
      thread in slot order, so jobs-invariance is preserved.
    - [prerank] feeds every real measurement to [prerank.observe] in
      slot order (counted in [surrogate.evals]) and, when
      [filter_ratio < 1], scores the distinct candidates with the cheap
      model and sends only the top [filter_ratio] fraction to the real
      objective; the rest are skipped (not failures — [result.skipped],
      [search.prerank] events, [surrogate.scored/kept/filtered]
      metrics).  Raises [Invalid_argument] unless [filter_ratio] is in
      (0, 1].

    A stage that must see the whole round (dedup, the visited set,
    filtering pre-rank) splits it into a build phase and a measurement
    phase; without one, each slot is measured in the task that built
    it. *)

val simulated_annealing :
  ?seed:int ->
  ?filter:(Transform.Xforms.instance -> bool) ->
  ?init:string list ->
  ?obs:Obs.Trace.sink ->
  ?metrics:Obs.Metrics.t ->
  ?guard:Robust.Guard.config ->
  ?batch:int ->
  ?prerank:prerank ->
  ?dedup:bool ->
  ?visited_dedup:bool ->
  ?checkpoint:Checkpoint.config ->
  ?pool:Parallel.Pool.t ->
  space:space ->
  budget:int ->
  Transform.Xforms.caps ->
  objective ->
  Ir.Prog.t ->
  result
(** [init] seeds the annealing chain (and best-so-far) with a recorded
    sequence; with [budget = 0] the result is exactly the replayed
    schedule — replay fidelity the tuning tests rely on.  Every proposal
    of a round branches off the round-start chain state; acceptance,
    cooling and best-so-far fold in slot order.  The temperature starts
    at 0.5 and every slot multiplies it by 0.995.

    The optional arguments behave as in {!random_sampling}
    ([search.start]'s [method] is [simulated-annealing], or
    [simulated-annealing-parallel] when [batch > 1]).  In addition to
    the sampling events, annealing [search.step] events carry
    [accepted] and [temp] fields, and [metrics] gains the
    [search.accepted] counter plus [search.acceptance_rate] /
    [search.temperature] gauges.  A quarantined, surrogate-skipped or
    visited-skipped slot draws no acceptance RNG and still advances the
    cooling schedule, so the temperature remains a function of the step
    index alone. *)
