(** The PerfDojo schedule script: a versioned, human-readable format
    ([.pds]) that serializes schedules as selector-targeted named
    transformations instead of raw move indices.

    {v
    pds 1
    # tiled matmul, x86
    kernel matmul
    target x86
    at size 256 & nested do split(factor=16)
    at path [0,4,0] do vectorize
    do storage(buffer=acc, loc=register)
    at path [0,2] do split(factor=8)
    v}

    Statements run through {!Target.resolve} and
    {!Transform.Engine.apply_at}, so a script either fully applies or
    stops at the first statement with a typed error carrying its line
    number.  [of_moves] converts recorded describe-string sequences to
    scripts ([run (of_moves ms)] reproduces the replayed program
    byte-for-byte), which is how tuning records carry script
    provenance. *)

val version : int
(** Current format version (1); the first line of a script is
    [pds <version>]. *)

type stmt = {
  sel : Target.t option;  (** [None]: buffer-level, no anchor *)
  name : string;
  args : (string * string) list;
}
(** [at SELECTOR do NAME(ARGS)], or [do NAME(ARGS)] without a
    selector: the one statement form. *)

type t = {
  kernel : string option;  (** [kernel NAME] header, informational *)
  ktarget : string option;  (** [target NAME] header, informational *)
  stmts : (int * stmt) list;  (** statements with their 1-based line *)
}

val parse : string -> (t, string) result
(** [Error] names the offending line.  A [move DESCRIBE] line, the
    removed raw escape, is an error that spells out its replacement
    statement when [DESCRIBE] is a move. *)

val to_string : t -> string
val stmt_to_string : stmt -> string

val of_moves :
  ?kernel:string -> ?ktarget:string -> string list -> (t, string) result
(** Script equivalent of a recorded {!Transform.Xforms.describe}
    sequence: each move becomes an [at path [..] do name(...)]
    statement.  [Error] names the first string that is not a move. *)

type run_error = {
  line : int;
  stext : string;  (** the statement as written *)
  err : Target.error;
}

val run_error_to_string : run_error -> string

val run :
  ?obs:Obs.Trace.sink ->
  Transform.Xforms.caps ->
  Ir.Prog.t ->
  t ->
  (Ir.Prog.t * string list, run_error) result
(** Execute every statement in order.  Returns the final program and
    the atomic describe-string provenance (replayable through
    [Search.Stochastic.replay_exact]).  Emits a [script.run] trace
    event. *)
