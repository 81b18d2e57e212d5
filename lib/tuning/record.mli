(** One tuning result: the best transformation sequence found for a
    (kernel, target) pair, replayable via {!Search.Stochastic.replay_exact},
    plus the provenance a later search needs to trust it (root program
    fingerprint, modelled runtime, evaluation count).

    Records serialize to one JSON object per line (JSONL) with a
    hand-rolled, canonical printer — see {!Util.Json}. *)

type t = {
  kernel : string;  (** kernel label, e.g. ["softmax"] *)
  target : string;  (** canonical target name, e.g. ["snitch"] *)
  moves : string list;  (** {!Transform.Xforms.describe} strings, in order *)
  best_time : float;  (** modelled runtime of the replayed schedule, s *)
  evals : int;  (** performance-model evaluations spent finding it *)
  fingerprint : string;  (** {!fingerprint} of the {e root} program *)
  script : string option;
      (** the schedule as a [pds] script ([Transfo.Script.of_moves]) — the
          human-auditable provenance replaying identically to [moves];
          [None] on a schema-2 record *)
}

val schema_version : int
(** 3, the schema {!to_json} writes.  {!of_json} also reads schema 2,
    which is schema 3 without the optional [script]. *)

val fingerprint : Ir.Prog.t -> string
(** Canonical program identity: {!Canon.fingerprint} — invariant under
    alpha-renaming of temporaries and provably-commutative sibling
    reorder, so equivalent spellings of a root share their records.  A
    record's only identity is its root's fingerprint. *)

val root_keys : Ir.Prog.t -> string * string
(** [(fingerprint p, fingerprint p)], computed once.  Kept with its pair
    type for the benchmark's library-generation twin; no library or CLI
    code calls it. *)

val matches_root : keys:string * string -> t -> bool
(** Does this record belong to the root with these {!root_keys}?
    Compares the first key with the record's fingerprint.  Kept for the
    benchmark, like {!root_keys}. *)

val make :
  ?script:string ->
  kernel:string ->
  target:string ->
  moves:string list ->
  best_time:float ->
  evals:int ->
  root:Ir.Prog.t ->
  unit ->
  t

val to_json : t -> string
(** One-line JSON object, canonical member order. *)

val of_json : string -> (t, string) result
(** Parse one JSONL line of schema 2 or 3.  Any other schema, schema 1
    included, and a missing or ill-typed member (the optional [script]
    too) are errors, never silent defaults. *)

val key : t -> string
(** Dedup identity: kernel + fingerprint + target + move sequence, so
    re-tuning the same program deduplicates while distinct kernel labels
    stay independently queryable. *)

val compare_order : t -> t -> int
(** Total order used for stable database saves: by kernel, target,
    best_time, moves, evals, fingerprint. *)
