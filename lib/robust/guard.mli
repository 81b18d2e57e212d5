(** Guarded objective evaluation: run a candidate evaluation to a typed
    outcome instead of letting one raising cost model, one NaN, or one
    runaway simulation abort a whole search run.

    Real autotuners treat failed configurations as a normal part of
    tuning (AutoTVM measures them as errors, not crashes).  [run] is the
    single choke point the search layer routes every evaluation through:

    - a raising evaluation becomes {!Rejected} (exception class +
      message, both deterministic for a deterministic objective);
    - a NaN/∞ cost becomes {!Non_finite} — a model bug must not be
      mistaken for an excellent schedule or poison a memoization cache;
    - an evaluation that burns through its deterministic {e fuel} budget
      (see {!tick}) becomes {!Exhausted} — the guard against runaway
      interpreter/simulator evaluations, measured in work units rather
      than wall-clock so outcomes stay reproducible;
    - a {!Transient} failure is retried at once, up to [max_retries]
      times, before it is given up as {!Rejected}.

    Everything here is deterministic given the objective: no clocks or
    ambient randomness enter the outcome, which is what lets the search
    layer keep its jobs-invariance guarantee even for the failing
    candidates. *)

exception Transient of string
(** The transient class: raise this from an objective (or a fault
    harness) to request a bounded retry. *)

exception Out_of_fuel
(** Raised by {!tick} when the current evaluation's fuel budget is
    spent.  Escapes to the enclosing {!run}, never further. *)

type failure =
  | Rejected of { cls : string; msg : string }
      (** the evaluation raised; [cls] is the exception constructor,
          [msg] its rendering *)
  | Non_finite of float  (** the evaluation returned NaN or ±∞ *)
  | Exhausted of { fuel : int }
      (** the evaluation consumed its whole fuel budget *)

type outcome = (float, failure) result

type config = {
  max_retries : int;
      (** immediate retries of a {!Transient} failure after the first
          attempt (default 1) *)
  fuel : int option;
      (** per-attempt work budget enforced via {!tick}; [None] (the
          default) never exhausts *)
  on_retry : int -> exn -> unit;
      (** called before attempt [k + 1] with the attempt index [k] that
          failed and its exception *)
}

val default : config

val instrument : ?metrics:Obs.Metrics.t -> config -> config
(** Compose [on_retry] with a [robust.retries] counter bump; identity
    when [metrics] is absent. *)

val run :
  ?cfg:config -> cost:('b -> float) -> ('a -> 'b) -> 'a -> ('b, failure) result
(** [run ~cost f x] evaluates [f x] under the guard.  [cost] projects
    the finite score out of the result for the {!Non_finite} check —
    the whole construction (replay plus evaluation) runs guarded, so a
    transform raising during replay is quarantined like an objective
    raising during costing. *)

val eval : ?cfg:config -> ('a -> float) -> 'a -> outcome
(** [run] specialized to a float-valued objective. *)

val tick : ?cost:int -> unit -> unit
(** Consume [cost] (default 1) units of the current evaluation's fuel;
    raises {!Out_of_fuel} when the budget is spent.  A no-op outside a
    fuelled {!run} — instrumented evaluators can tick unconditionally. *)

val attempt : unit -> int
(** The current {!run} attempt index (0 for the first try).  Lets a
    deterministic fault harness make transient faults succeed on retry
    without wall-clock or shared state.  0 outside a [run]. *)

val rejected_of_exn : exn -> failure
(** Classify an exception caught outside [run] (e.g. during candidate
    expansion) into the same {!Rejected} shape. *)

val failure_class : failure -> string
(** ["rejected"] / ["non_finite"] / ["exhausted"] — stable keys for
    trace events and [robust.*] metric names. *)

val failure_message : failure -> string
(** One-line human rendering, deterministic for deterministic inputs. *)

val note :
  ?obs:Obs.Trace.sink ->
  ?metrics:Obs.Metrics.t ->
  ?fields:(string * Util.Json.t) list ->
  failure ->
  unit
(** Record one failure: emit a [search.eval_error] event carrying the
    caller's [fields] plus [class] / [msg], and bump the
    [robust.eval_failures] and [robust.<class>] counters.  Free when
    both sinks are absent. *)
