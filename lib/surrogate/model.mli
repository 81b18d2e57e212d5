(** The learned surrogate cost model: an online linear ranker trained
    with a pairwise hinge loss over {!Features} vectors — the
    AutoTVM-style statistical model that pre-ranks candidate batches so
    only the most promising fraction ever pays for a simulator
    evaluation (ROADMAP item 1, {e Learning to Optimize Tensor
    Programs}).

    Ranking, not regression: absolute runtimes vary by orders of
    magnitude across kernels and targets, but search only needs the
    {e order} of candidates within one (kernel, target, root) group.
    Every training pair therefore comes from measurements sharing a
    [group] tag, and the model learns [score better > score worse +
    margin].

    Thread-safe: all operations take an internal lock, so one model can
    be shared across the serve daemon's worker threads.  Deterministic:
    identical observation sequences produce identical weights, which is
    what keeps surrogate-filtered search jobs-invariant (scoring and
    training happen only on the search's submitting thread, in slot
    order). *)

type config = {
  lr : float;  (** hinge update step size *)
  margin : float;  (** required score separation of a (better, worse) pair *)
  history : int;  (** ring size of recent measurements paired online *)
}

val default_config : config

type t

val create : ?cfg:config -> unit -> t
(** A fresh zero-weight model ([score] is constant until trained, so an
    untrained model filters arbitrarily — but deterministically, by slot
    order). *)

val config : t -> config
val updates : t -> int
(** Hinge updates applied so far (pairs already ranked correctly with
    margin don't update). *)

val score : t -> float array -> float
(** Linear score of a feature vector; higher = predicted faster. *)

val score_prog : t -> Ir.Prog.t -> float

val train_pair : t -> better:float array -> worse:float array -> unit
(** One hinge step on an ordered pair ([better] measured strictly
    faster). *)

val observe : t -> group:string -> features:float array -> float -> unit
(** Record one real measurement and train online: the observation is
    paired against the recent measurements sharing its [group] tag (ring
    of [cfg.history]).  Non-finite or non-positive times are ignored. *)

val observe_prog : t -> group:string -> Ir.Prog.t -> float -> unit

val prerank :
  ?filter_ratio:float -> group:string -> t -> Search.Stochastic.prerank
(** The bridge into the search layer: a {!Search.Stochastic.prerank}
    whose [score] extracts features and ranks with this model, whose
    [observe] trains it online under [group], and whose
    [snapshot]/[restore] are {!snapshot}/{!restore} — a restore error
    raises {!Recover.Error} ([Corrupt]).  [filter_ratio] defaults to
    [1.0] (keep everything — training only). *)

(** {1 Offline training} *)

type offline_stats = {
  records : int;  (** records offered *)
  used : int;  (** records that are training points ({!record_features}) *)
  groups : int;  (** distinct (kernel, target) groups among them *)
  pairs : int;  (** ordered training pairs fed to the ranker *)
}

val record_features :
  root_of:
    (kernel:string ->
    target:string ->
    (Ir.Prog.t * Transform.Xforms.caps) option) ->
  Tuning.Record.t ->
  float array option
(** The feature vector of the schedule a tuning record timed, or [None]
    when the record is not a training point: [root_of] does not know
    its (kernel, target), the resolved root's fingerprint does not match
    the record's, its time is not finite and positive, or its moves do
    not replay exactly ({!Search.Stochastic.replay_exact}) — a stale
    record must not label a partly replayed program with its time.  The
    one reader of records for training data ([model train],
    [db export --features]). *)

val train_offline :
  t ->
  root_of:
    (kernel:string ->
    target:string ->
    (Ir.Prog.t * Transform.Xforms.caps) option) ->
  Tuning.Record.t list ->
  offline_stats
(** Train from tuning-database records ([perfdojo model train --db]):
    every training point ({!record_features}) joins its (kernel, target)
    group, and every ordered pair of distinct-time schedules within one
    group becomes a hinge pair.  Iteration order is deterministic, so
    the trained model is a pure function of the record list. *)

(** {1 Serialization}

    Canonical JSON ({!Util.Json}): [to_json] → print → parse →
    [to_json] → print is byte-identical, so saved models round-trip
    byte-stably.  The online-pairing ring is transient state and is not
    serialized. *)

val to_json : t -> Util.Json.t
val of_json : Util.Json.t -> (t, string) result
(** Rejects unknown schema versions and dimension mismatches (a model
    saved under a different feature layout must fail loudly). *)

val save : t -> string -> unit
(** One canonical JSON line, written through
    {!Recover.Durable.write_string}: tmp, fsync, rename, then a fsync of
    the directory. *)

val load : string -> (t, string) result

(** {1 Checkpoint snapshot}

    Unlike the save format, a snapshot additionally carries the
    online-pairing ring, so a search resumed from a crash-safe
    checkpoint trains on exactly the pairs the uninterrupted run would
    have seen — the kill-invariance requirement of the surrogate-
    filtered engines. *)

val snapshot : t -> Util.Json.t

val restore : t -> Util.Json.t -> (unit, string) result
(** In-place restore of weights, update count and pairing ring; fails
    on dimension or ring-size mismatch (and on anything [of_json] would
    reject). *)
