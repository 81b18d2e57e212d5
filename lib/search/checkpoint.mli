(** Crash-safe checkpointing: the one protocol through which both search
    engines ({!Stochastic}, {!Exhaustive}) save, resume and stop on an
    interrupt.

    A checkpoint is written through {!Recover.Store} — atomically and
    durably — at a safe point of the run (a round or BFS-level boundary,
    where no task is in flight).  Its payload holds the run's identity
    members, the engine's own state fields, and [events]: how many trace
    events the run had emitted.  With [resume = true] and an existing
    file, the run restores its full state and continues the {e exact}
    trajectory of the uninterrupted run: same result, exact accounting
    across the splice, and stripped traces that splice byte-identically
    (killed[0..events) ++ resumed == uninterrupted) — kill-invariance.
    Candidate programs travel as move paths and rebuild by exact replay
    from the root: transform replays, no objective call, so resume is
    strictly cheaper than a cold restart.  A corrupt or truncated file,
    or one with a different identity, raises {!Recover.Error}; [resume]
    with no file yet is a cold start.

    A checkpointed run honors {!Recover.Interrupt}: a pending
    SIGINT/SIGTERM saves at the next safe point and raises [Interrupted]
    with the checkpoint path.  A run without a checkpoint has nothing to
    save, so it ignores the flag and finishes. *)

type config = { path : string; every : int; resume : bool }
(** [every] is the stochastic engine's cadence: it saves at each round
    boundary where at least [every] budget slots completed since the
    last save, and at the end of the run.  {!Exhaustive} saves after
    every completed level and ignores it. *)

type t
(** The checkpoint side of one run; inert without a config. *)

val start :
  ?metrics:Obs.Metrics.t ->
  identity:(string * Util.Json.t) list ->
  config option ->
  Obs.Trace.sink ->
  t * Obs.Trace.sink * Util.Json.t option
(** [start ~identity cfg obs] opens a run and returns the sink to trace
    through — with a config, [obs] wrapped to count events — and, when
    resuming, the payload the engine decodes its own fields from.
    [identity] holds the string or integer members that name the run
    (engine kind, then its configuration): saves write them first, and a
    resume raises {!Recover.Error} ([Mismatch]) when one differs.  A
    resume bumps [checkpoint.resumes]. *)

val safe_point :
  t ->
  due:bool ->
  finished:bool ->
  trace:(unit -> (string * Util.Json.t) list) ->
  (unit -> (string * Util.Json.t) list) ->
  unit
(** [safe_point t ~due ~finished ~trace fields], a no-op when inert.
    When [due] it saves: emits [checkpoint.write] with the [trace]
    fields — before reading the event count, so the count includes it —
    bumps [checkpoint.writes] and writes identity, [fields ()] and
    [events].  Then, if an interrupt is pending and the run is not
    [finished], it saves unless it just did and raises
    {!Recover.Interrupt.Interrupted} with the checkpoint path. *)

(** {2 Field codecs both engines share} *)

val moves : string list -> Util.Json.t
(** A move path, as the array of its describe strings. *)

val replayed : (Ir.Prog.t, string) result -> Ir.Prog.t
(** The program of a checkpointed move path, given its
    {!Stochastic.replay_exact} result.  A saved path always applied, so
    an [Error] means the file does not match this build: raises
    {!Recover.Error} ([Corrupt "checkpointed path does not replay: ..."]). *)

val fingerprints : (string, unit) Hashtbl.t -> Util.Json.t
(** A fingerprint set as a sorted array, so the file depends on the
    set's contents only. *)

val add_fingerprints :
  (string, unit) Hashtbl.t -> string -> Util.Json.t -> unit
(** [add_fingerprints set name payload] adds member [name]'s
    fingerprints to [set]. *)
