(** Batch library generation: the paper's end product.

    {!generate} optimizes every (kernel, target) pair of a selection —
    by default the whole Table-3 operator suite plus the Snitch
    micro-kernels — through the existing portfolio/stochastic machinery
    and emits a complete C library: one translation unit per pair, an
    umbrella header, and a canonical-JSON [manifest.json] recording the
    provenance of every entry (program fingerprint, winning strategy and
    move sequence, modelled time, evaluation and failure counts).

    Generation is {e incremental}: a pair with a tuning-database record
    for the current program fingerprint ({!Tuning.Warmstart.lookup})
    that replays exactly is not re-optimized — its recorded schedule is
    replayed, a [libgen.skip] trace event is emitted, and the entry is
    marked [Skipped].  And it is
    {e fault-tolerant}: a pair whose optimization crashes or produces a
    non-finite time degrades to the naive schedule, classified through
    {!Robust.Guard}'s failure taxonomy and flagged [Degraded] in the
    manifest — a full-suite run survives individual failures and
    resumes cheaply on the next invocation.

    Pairs are optimized in parallel across [ctx.jobs] domains (each
    pair's own search runs sequentially, like portfolio members), all
    sharing the run context's {!Tuning.Cache} and one tuning database.
    Everything emitted is deterministic: the manifest is byte-identical
    for any [jobs]. *)

type status =
  | Fresh  (** optimized this run *)
  | Skipped  (** reproduced from the tuning database (fingerprint hit) *)
  | Degraded  (** optimization failed; naive schedule emitted instead *)

type entry = {
  kernel : string;  (** kernel label, e.g. ["softmax"] *)
  shape : string;  (** the kernel's shape description *)
  target : string;  (** canonical target short name, e.g. ["x86"] *)
  fingerprint : string;  (** {!Tuning.Record.fingerprint} of the root *)
  status : status;
  strategy : string;
      (** what produced the schedule: the strategy label for [Fresh],
          ["db"] for [Skipped], ["naive"] for [Degraded] *)
  moves : string list;  (** replayable move sequence of the schedule *)
  naive_s : float;  (** modelled runtime of the unscheduled kernel *)
  time_s : float;  (** modelled runtime of the emitted schedule *)
  evaluations : int;  (** model evaluations spent on this pair this run *)
  failures : int;  (** evaluations quarantined by the guard *)
  recorded : bool;
      (** a matching record is in the database, so the next run skips
          this pair *)
  c_file : string;  (** C source filename, relative to the out dir *)
  c_entry : string;  (** entry-point symbol declared in the header *)
  error : string option;
      (** [Degraded] only: the {!Robust.Guard.failure_message} of the
          classified cause *)
}

type library = {
  out_dir : string;
  header : string;  (** umbrella header filename, relative to out_dir *)
  entries : entry list;  (** target-major, then kernel order *)
  fresh : int;
  skipped : int;
  degraded : int;
}

val strategy_label : Perfdojo.strategy -> string
(** Stable human/manifest name: ["annealing/heuristic"],
    ["portfolio"], ... *)

val status_name : status -> string
(** ["fresh"] / ["skipped"] / ["degraded"] — the manifest encoding. *)

val default_kernels : unit -> Kernels.entry list
(** The full suite: {!Kernels.table3} @ {!Kernels.snitch_micro}. *)

val manifest_json : library -> Util.Json.t
(** The manifest as a canonical JSON object — what {!generate} writes
    to [manifest.json] (one line, {!Util.Json.to_string}).  Carries no
    wall-clock fields, so it is byte-deterministic given the inputs. *)

val generate :
  ?kernels:Kernels.entry list ->
  ?strategy:Perfdojo.strategy ->
  ?db:Tuning.Db.t ->
  ?db_file:string ->
  ?force:bool ->
  ctx:Perfdojo.Ctx.t ->
  targets:string list ->
  out:string ->
  unit ->
  library
(** Generate the library into directory [out] (created if missing).

    [targets] are short names or aliases resolved by
    {!Machine.Desc.target_of_string} (duplicates collapse); an unknown
    name raises [Invalid_argument] listing the known targets.
    [kernels] defaults to {!default_kernels} (duplicate labels
    collapse).  [strategy] defaults to heuristic-space annealing with a
    300-evaluation budget — a strategy whose winners are always
    move-replayable, so every pair deposits a database record and the
    next run over the same [db] skips the entire suite.

    [db] is both read (incremental skips, warm starts) and updated
    (each fresh pair's winner is deposited when
    {!Perfdojo.optimize_recorded} admits it, under the {!Tuning.Db.add}
    improve/dedupe rules).  Records replay with
    {!Perfdojo.caps_of}[ ~ctx], so winners that use [ctx.composites]
    deposit and skip like any other.  When [db_file] is given each
    deposit is journaled by {!Tuning.Db.deposit} (checkpointed every 64
    deposits and once more at the end), so every reader of the file sees
    it at once and an interrupted suite run resumes from the pairs it
    completed.  [force] re-optimizes pairs that would otherwise skip
    (their records still warm-start the search).

    [ctx] supplies seed, shared cache, jobs, trace sink, metrics, guard
    and fault injection; [ctx.warm_start] is ignored (warm starts are
    looked up per pair).  Traces fold per-pair buffers in pair order —
    like the portfolio race, the merged stream is independent of
    scheduling modulo {!Obs.Trace.strip_timing}.  A pair degraded for a
    non-finite result keeps its search trace after its [libgen.degraded]
    event, so the stream holds one [search.eval_error] per failure the
    manifest counts; only a crashed pair's buffer is lost with its
    task.

    {b Crash safety}: with [ctx.checkpoint] set, the suite keeps a
    per-pair progress ledger there (a fsynced {!Recover.Journal}): each
    completed fresh pair appends its result — the status, strategy,
    moves, time, counts, recorded flag and error of its manifest entry,
    fresh or degraded alike — {e before} its database deposit.  A suite
    killed mid-run and rerun with [ctx.resume] replays the ledger,
    rebuilds each ledgered pair's entry from its result, re-optimizes
    only the unfinished pairs, re-applies ledgered deposits
    idempotently, and emits a manifest byte-identical to the
    uninterrupted run's.  The ledger is truncated once the manifest is
    written.  A pending SIGINT/SIGTERM stops at the next chunk boundary
    with {!Recover.Interrupt.Interrupted}. *)
