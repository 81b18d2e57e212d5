(** Memoized objective evaluation.

    Stochastic search and RL episodes revisit the same program many
    times (mutations that cancel, replayed prefixes, repeated candidate
    enumeration); keying the performance model on the program makes
    every revisit free.  Hit/miss counters quantify the saving — they
    feed the CLI report and the tuning bench's [BENCH_tuning.json].

    {b The key} is the program's exact structure: {!Ir.Prog.digest}, a
    16-byte digest of [Marshal.to_string p [No_sharing]] that
    {!Search.Exhaustive} also uses to spot exact repeats, a few
    microseconds, where the
    canonical {!Record.fingerprint} costs about twenty model calls.  The
    models are pure, so a hit returns exactly what the model would.  A
    canonical respelling of a program (a renamed temporary, swapped
    commutative operands) is a different key: it misses and is timed,
    never answered with its twin's time.  {!Record.fingerprint} stays
    the identity of database records, warm-start lookup and dedup; the
    cache does not use it.  The table lives as long as the cache value
    (one run) and stores digests, not programs.

    Domain-safe: the table is sharded with a mutex per shard, so a cache
    can back the objective of a search whose rounds run on a worker
    pool ({!Search.Stochastic} with [~pool]) shared across domains.  The invariant
    [hits + misses = total lookups] holds exactly under concurrency;
    two workers racing on the same fresh program may both miss (the
    objective runs outside the lock), which for a deterministic
    objective is only a duplicated evaluation, never a wrong value. *)

type t

val create : unit -> t

val memoize : t -> (Ir.Prog.t -> float) -> Ir.Prog.t -> float
(** [memoize cache objective] behaves exactly like [objective] but
    evaluates each structurally distinct program at most once per cache
    (up to concurrent first-evaluation races, see above).  Two programs
    are the same when their values are equal, not when they are
    canonically equivalent.

    Non-finite results (NaN/∞ — a failed or quarantined evaluation) are
    returned but never stored, so a transient fault is not remembered
    for the lifetime of the cache; a raising [objective] stores nothing
    either (the exception propagates before the store). *)

val memoize_scoped :
  t -> scope:string -> (Ir.Prog.t -> float) -> Ir.Prog.t -> float
(** Like {!memoize}, but keyed on [scope] alongside the program's
    digest.  Use it whenever one cache backs objectives that can
    disagree on the same program — above all different targets, whose
    performance models return different times for identical IR.  The
    facade scopes by target name, so a single cache shared across a
    batch run (e.g. {!Libgen.generate} over several targets) stays
    correct. *)

val hits : t -> int
(** Evaluations answered from the cache. *)

val misses : t -> int
(** Evaluations that ran the underlying model. *)

val hit_rate : t -> float
(** [hits / (hits + misses)]; [0.] before any lookup. *)

val entries : t -> int
(** Distinct programs cached. *)

val contended : t -> int
(** Shard-lock acquisitions that found the lock already held by another
    domain — a direct measure of sharding pressure under parallel
    search ([0] in any single-domain run). *)

val export : t -> Obs.Metrics.t -> unit
(** Publish the counters into a metrics registry: [cache.hits],
    [cache.misses], [cache.contended] (counters), [cache.hit_rate],
    [cache.entries] (gauges).  Writes absolute values, so re-exporting
    refreshes rather than double-counts. *)
