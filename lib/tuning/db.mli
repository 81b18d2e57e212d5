(** The persistent tuning database: an append-only set of schedule
    {!Record}s behind a JSONL file, deduplicated by program fingerprint
    (plus target and move sequence) and queried per (kernel, target).

    This is the log-based store production autotuners keep: every search
    run deposits its winner, later runs warm-start from it, and the best
    record per (kernel, target) {e is} the generated library entry.

    A database is a file [F] plus its journal [F ^ ".wal"] (a
    {!Recover.Journal} of {!Record.to_json} objects), and only this
    module knows it: every {!load} sees each acknowledged {!deposit},
    and no {!save} drops another writer's. *)

type t

val create : unit -> t
(** An empty in-memory database. *)

val load : ?obs:Obs.Trace.sink -> string -> (t, string) result
(** Load a JSONL file, then replay its journal ({!journaled} counts the
    entries).  A missing file is an empty database after one [stat]
    (first run bootstraps it); no journal is read next to it.

    A line that is not JSON — typically the torn final line of a writer
    killed mid-append — is skipped and counted ({!skipped_lines}), so a
    crash never bricks future warm starts.  A complete JSON line that is
    not a record {!Record.of_json} reads (another schema, a missing or
    ill-typed member) is an [Error] naming the file, the 1-based line
    number and the reason, and the file is left as it is.  An unreadable
    file (permissions, I/O) or a corrupt journal is also an [Error].

    A load that skipped anything emits one [db.skipped_lines] trace
    event ([path], [skipped]) on [obs] — the uniform signal every
    caller (CLI, serve daemon, bench) observes corruption through;
    the CLI additionally prints its stderr warning. *)

val skipped_lines : t -> int
(** Non-JSON lines tolerated by the {!load} that produced this
    database; [0] for a clean load.  Callers surface it as a warning
    (the CLI does). *)

val journaled : t -> int
(** Journal entries replayed by {!load} or appended by {!deposit} since
    this database's last {!save}. *)

val deposit :
  ?file:string -> t -> Record.t -> [ `Inserted | `Improved | `Duplicate ]
(** {!add}; then, if that changed the database and [file] is given,
    append the record to the journal and fsync before returning (under
    the journal's {!Recover.Journal.locked}).  A journal only extends an
    existing file: a missing [file] is first written empty.  When
    {!journaled} reaches 64, {!save}.  Without [file], just {!add}. *)

val save : t -> string -> unit
(** Write all records, one JSON object per line, in the stable
    {!Record.compare_order}.  save → load → save is byte-identical.

    Crash-safe and durable ({!Recover.Durable.write_file}): the file is
    written to [path ^ ".tmp"], [fsync]ed, atomically renamed into
    place, and the directory is fsynced — so an interrupt at any point
    leaves either the previous complete file or the new one (never a
    truncated mix), once [save] returns the contents survive [kill -9]
    and power loss, and a stale tmp from an earlier crash is cleaned up
    by the next save.

    Concurrent-writer-safe: records already on disk — in the file and
    in its journal, even one next to a missing file — are first merged
    into [db] under the {!add} improve/dedupe rules, so each key keeps
    the fastest schedule either writer found.  Then a non-empty journal
    is truncated and {!journaled} is [0].  All of it runs under the
    journal's lock, which {!deposit} also takes, so no process truncates
    an entry it has not merged.

    No save deletes a record: a non-JSON line of the file is dropped,
    but a complete line that {!load} would refuse raises [Failure] with
    {!load}'s message before anything is written, leaving the file and
    its journal byte-identical. *)

val add : t -> Record.t -> [ `Inserted | `Improved | `Duplicate ]
(** Insert with dedup: a record whose {!Record.key} is already present
    replaces the incumbent only when strictly faster ([`Improved]);
    an equal-or-slower duplicate leaves the database unchanged. *)

val size : t -> int

val records : t -> Record.t list
(** All records in stable order. *)

val query : ?kernel:string -> ?target:string -> t -> Record.t list
(** Records matching the given kernel and/or target, best first. *)

val best : t -> kernel:string -> target:string -> Record.t option
(** Fastest record for the pair. *)

val top_k : t -> kernel:string -> target:string -> int -> Record.t list
(** The [k] fastest records for the pair, best first. *)
