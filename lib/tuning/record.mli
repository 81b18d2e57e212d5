(** One tuning result: the best transformation sequence found for a
    (kernel, target) pair, replayable via {!Search.Stochastic.replay_exact},
    plus the provenance a later search needs to trust it (program
    fingerprint, modelled runtime, evaluation count, schema version).

    Records serialize to one JSON object per line (JSONL) with a
    hand-rolled, canonical printer — see {!Util.Json}. *)

type t = {
  schema : int;  (** {!schema_version} at write time *)
  kernel : string;  (** kernel label, e.g. ["softmax"] *)
  target : string;  (** canonical target name, e.g. ["snitch"] *)
  moves : string list;  (** {!Transform.Xforms.describe} strings, in order *)
  best_time : float;  (** modelled runtime of the replayed schedule, s *)
  evals : int;  (** performance-model evaluations spent finding it *)
  fingerprint : string;  (** {!fingerprint} of the {e root} program *)
  script : string option;
      (** schema >= 3: the schedule as a [pds] script
          ([Transfo.Script.of_moves]) — the human-auditable provenance
          replaying identically to [moves]; [None] on records written by
          older schemas *)
}

val schema_version : int
(** 3: records may carry script provenance.  Schema-2 (canonical
    fingerprints, no script) and schema-1 records (raw printed-text
    digests) still parse — [script] reads back as [None] — and stay
    warm via the dual-key helpers below. *)

val fingerprint : Ir.Prog.t -> string
(** Canonical program identity: {!Canon.fingerprint} — invariant under
    alpha-renaming of temporaries and provably-commutative sibling
    reorder, so equivalent spellings of a root share their records. *)

val fingerprint_legacy : Ir.Prog.t -> string
(** Schema-1 identity: MD5 digest (hex) of the raw
    {!Ir.Printer.program} text. *)

val root_keys : Ir.Prog.t -> string * string
(** [(fingerprint p, fingerprint_legacy p)], computed once per root for
    the dual-key lookups. *)

val matches_root : keys:string * string -> t -> bool
(** Does this record belong to the root with these {!root_keys}?
    True for both canonical (schema 2) and legacy (schema 1)
    fingerprints, so databases written before the canonical form stay
    warm. *)

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
(** Parse one JSONL line.  Unknown schema versions and missing or
    ill-typed fields are errors, never silent defaults. *)

val key : t -> string
(** Dedup identity: kernel + fingerprint + target + move sequence, so
    re-tuning the same program deduplicates while distinct kernel labels
    stay independently queryable. *)

val compare_order : t -> t -> int
(** Total order used for stable database saves: by kernel, target,
    best_time, moves, evals, fingerprint. *)
