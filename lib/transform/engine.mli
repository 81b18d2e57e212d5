(** The transformation engine: a session over a program with applicable-
    move enumeration, application with structural re-validation, and a
    non-destructive history (any move can be undone while later moves are
    replayed — Table 1's "non-destructive transformations"). *)

type session = {
  caps : Xforms.caps;
  initial : Ir.Prog.t;
  obs : Obs.Trace.sink;
      (** trace sink for [engine.apply] / [engine.undo] /
          [engine.enumerate] events; {!Obs.Trace.null} when tracing is
          off (the default — and then no event is even constructed) *)
  mutable current : Ir.Prog.t;
  mutable history : (Xforms.instance * Ir.Prog.t) list;
      (** most recent first; each entry stores the state {e before} the
          move *)
}

val start : ?obs:Obs.Trace.sink -> Xforms.caps -> Ir.Prog.t -> session

val applicable : session -> Xforms.instance list
(** All moves offered at the current state. *)

val apply : session -> Xforms.instance -> Ir.Prog.t
(** Apply a move, validate the result structurally, record history.
    Raises [Invalid_argument] when the instance does not apply cleanly. *)

val undo : session -> Ir.Prog.t option
(** Undo the most recent move. *)

val undo_at : session -> int -> Ir.Prog.t option
(** [undo_at s k] removes the move [k] steps back (0 = most recent) and
    replays every later move.  Returns [None] — leaving the session
    unchanged — when a later move no longer applies without it. *)

val moves : session -> Xforms.instance list
(** Moves played so far, oldest first. *)

(** {1 Composite transformations}

    A composite is a named, parameterized sequence of atomic moves
    ([Transfo.Composites.tile_and_unroll], ...).  [expand] resolves the
    sequence against the current state (validating each step against the
    intermediate program it will see) and either returns the full
    instance list or a refusal reason — so a composite {e fully applies
    or cleanly refuses}; the non-destructive history makes partial
    application impossible. *)
type transfo = {
  tname : string;
  targs : (string * string) list;  (** parameters, for labels/scripts *)
  expand :
    Xforms.caps ->
    Ir.Prog.t ->
    anchor:Ir.Types.path ->
    (Xforms.instance list, string) result;
}

val transfo_label : transfo -> string
(** ["tile_and_unroll(f=16, u=4)"] — used in errors and trace events. *)

val apply_at :
  session -> Target.t -> transfo -> (Ir.Prog.t, Target.error) result
(** Resolve the selector to a unique anchor ([No_match]/[Ambiguous]
    otherwise), then apply the composite there; on a mid-sequence
    failure the session is rolled back to its entry state and a
    [Refused] error is returned.  Emits [target.resolve] and
    [transfo.refused] trace events. *)

val apply_anchored :
  session -> anchor:Ir.Types.path -> transfo -> (Ir.Prog.t, Target.error) result
(** [apply_at] with an already-resolved anchor (buffer-level transfos
    ignore it — pass [[]]). *)
