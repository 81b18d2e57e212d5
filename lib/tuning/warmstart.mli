(** Warm-started search: seed a new tuning run from the database's best
    recorded schedule so search resumes instead of restarting.

    A record is only offered when its fingerprint matches the root
    program being tuned, so a stale database can never seed the wrong
    kernel. *)

val lookup :
  Db.t ->
  kernel:string ->
  target:string ->
  fingerprint:string ->
  Record.t option
(** The fastest record for the pair whose fingerprint is the root's
    {!Record.fingerprint}: the one rule every reader of a pair's record
    goes through. *)

val moves_for :
  Db.t -> kernel:string -> target:string -> root:Ir.Prog.t -> string list
(** {!lookup}'s move sequence for [root]; [[]] when the database has
    nothing to offer. *)

val replay :
  Transform.Xforms.caps ->
  Ir.Prog.t ->
  string list ->
  Ir.Prog.t * string list
(** {!Search.Stochastic.replay_skipping}, re-exported so callers outside
    the search layer need no extra dependency. *)

val record_of :
  objective:(Ir.Prog.t -> float) ->
  caps:Transform.Xforms.caps ->
  kernel:string ->
  target:string ->
  root:Ir.Prog.t ->
  moves:string list ->
  evals:int ->
  (Record.t, string) result
(** Build a database record from a search winner by {e replaying} its
    move sequence from the root under the caps the search ran with
    ({!Search.Stochastic.replay_exact}) and re-timing the result — the
    stored [best_time] is the replayed schedule's, so every record in
    the database is reproducible by construction.  [Error] when the
    sequence does not replay exactly or {!Transfo.Script.of_moves}
    refuses it. *)
