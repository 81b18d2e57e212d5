(** Crash-safe persistence primitives (the tentpole of the recovery
    subsystem): durable file writes, a versioned + checksummed
    checkpoint store, a write-ahead journal, cooperative interrupts,
    and a deterministic kill-injection harness.

    Every artifact is canonical JSON ({!Util.Json}), so checkpoints and
    journals round-trip byte-identically.  Torn or truncated files are
    detected by version and MD5 checksum and rejected with a typed
    {!error} — never deserialized as garbage. *)

type error =
  | Missing of string  (** no file at the given path *)
  | Corrupt of string  (** parse / version / checksum failure *)
  | Mismatch of string  (** checkpoint is for a different run configuration *)

exception Error of error
(** Raised by resume paths that cannot return a [result] (e.g. deep in
    a search engine); the CLI maps it to a one-line error. *)

val error_message : error -> string

(** Exact float round-trip through JSON — including the non-finite
    values plain JSON cannot carry (quarantined runtimes are [+inf]) —
    as the IEEE-754 bit pattern in hex. *)
module Bits : sig
  val of_float : float -> Util.Json.t
  val to_float : Util.Json.t -> float option
end

(** Strict accessors for decoding checkpoint/journal payloads: a
    missing or ill-typed field raises {!Error} ([Corrupt]) rather than
    producing garbage state; the [check_*] validators raise [Mismatch]
    when a checkpoint belongs to a different run configuration. *)
module Field : sig
  val corrupt : ('a, unit, string, 'b) format4 -> 'a
  val mismatch : string -> run:string -> ckpt:string -> 'a
  val member : string -> Util.Json.t -> Util.Json.t
  val int : string -> Util.Json.t -> int
  val str : string -> Util.Json.t -> string
  val bool : string -> Util.Json.t -> bool
  val list : string -> Util.Json.t -> Util.Json.t list
  val float_bits : string -> Util.Json.t -> float
  val str_list : string -> Util.Json.t -> string list
  val check_str : Util.Json.t -> string -> string -> unit
  val check_int : Util.Json.t -> string -> int -> unit
end

module Durable : sig
  val fsync_dir : string -> unit
  (** Best-effort fsync of a directory, making renames inside it
      durable across power loss. *)

  val write_file : path:string -> (out_channel -> unit) -> unit
  (** Durable atomic replace: write [path ^ ".tmp"], [fsync] the data,
      rename over [path], fsync the directory.  Readers never observe a
      partial file; once this returns the contents survive [kill -9]
      and power loss.  On exception the tmp file is removed and [path]
      is untouched. *)

  val write_string : path:string -> string -> unit
end

(** Whole-state checkpoints: one canonical-JSON payload wrapped in a
    [{"v";"sum";"payload"}] envelope, written durably and atomically. *)
module Store : sig
  val version : int

  val save : path:string -> Util.Json.t -> unit
  val load : path:string -> (Util.Json.t, error) result
end

(** Write-ahead journal: fsynced append of checksummed canonical-JSON
    entries, one per line.  Once {!append} returns, the entry will be
    recovered by {!replay} even after [kill -9]. *)
module Journal : sig
  type writer

  val open_writer : string -> writer
  (** Open (creating if needed, then fsyncing the directory) for
      appending. *)

  val append : writer -> Util.Json.t -> unit
  (** Append one entry and [fsync] before returning. *)

  val reset : writer -> unit
  (** Truncate to empty — called after the journaled entries have been
      checkpointed into the primary store. *)

  val close : writer -> unit

  val size : writer -> int
  (** The journal's length in bytes. *)

  val locked : string -> (writer -> 'a) -> 'a
  (** Open (like {!open_writer}), take an exclusive [Unix.lockf] lock
      and a process-wide mutex, run [f], close.  The lockf lock drops
      when the process closes {e any} descriptor of the file, so [f]
      reads with {!read}, and {!replay} takes the same mutex. *)

  val replay : string -> (Util.Json.t list * int, error) result
  (** All verified entries in order, plus the count of torn trailing
      lines dropped (a crash mid-append can leave at most one partial
      line; that is expected, not corruption).  A missing file replays
      as [([], 0)]; an invalid line {e before} the tail is [Corrupt]. *)

  val read : writer -> (Util.Json.t list * int, error) result
  (** {!replay} through an open writer's descriptor. *)
end

(** Cooperative SIGINT/SIGTERM handling: long-running loops poll
    {!requested} at safe points (round / BFS-level / pair boundaries),
    write a final checkpoint, and raise {!Interrupted} carrying the
    checkpoint path for the CLI's one-line exit message. *)
module Interrupt : sig
  exception Interrupted of string option

  val install : unit -> unit
  (** Flag-setting handler for both SIGINT and SIGTERM; a second signal
      exits immediately (code 130). *)

  val install_raising : unit -> unit
  (** Raising handler, for loops blocked in a syscall (the serve pipe
      transport): the signal unwinds the read so the caller can drain
      and checkpoint. *)

  val requested : unit -> bool
  val reset : unit -> unit
end

(** Deterministic kill-injection: fork a run, [SIGKILL] it at a seeded
    evaluation index, resume in a fresh process, and compare against
    the uninterrupted run — the acceptance harness for crash safety. *)
module Chaos : sig
  val in_subprocess : (unit -> unit) -> Unix.process_status
  (** Run in a forked child (exiting via [_exit], so the child flushes
      and syncs what it must persist — the discipline under test). *)

  val kill_switch : at:int -> unit -> unit
  (** A thread-safe tick that SIGKILLs the calling process on its
      [at]-th invocation (1-based; [at <= 0] never fires). *)

  val killed : Unix.process_status -> bool
  (** Did the process die by SIGKILL? *)
end
