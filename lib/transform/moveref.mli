(** Moves: the typed action of the PerfDojo game and its wire format.

    A move is one (transformation, location) pair that discovery proves
    legal (§2.2).  {!Xforms.all} offers every move as a value of {!t}
    inside an {!Xforms.instance}; schedules, passes, baselines and
    composites pick moves by matching on it.

    The wire format is the describe string
    (["split_scope([0,4] factor 16)"]): what tuning records,
    checkpoints, journal entries, traces, libgen manifests and [.pds]
    provenance store.  This module is its only printer ({!describe})
    and its only parser ({!of_describe}).  The round-trip law holds for
    every move that discovery emits, composites included:
    [of_describe (describe m) = Some m].  The parser also accepts some
    non-canonical spellings (a doubled space, ["[0, 4]"]), so a caller
    that needs the canonical string checks [describe m = d] too. *)

type t =
  | Split of Ir.Types.path * int  (** split_scope, factor *)
  | Join of Ir.Types.path
  | Fission of Ir.Types.path * int  (** body split point *)
  | Interchange of Ir.Types.path
  | Reorder of Ir.Types.path
  | Unroll of Ir.Types.path
  | Vectorize of Ir.Types.path
  | Parallelize of Ir.Types.path
  | Gpu of Ir.Types.path * string  (** ["grid"] / ["block"] / ["warp"] *)
  | Pad of Ir.Types.path * int  (** pad to multiple of *)
  | Unannotate of Ir.Types.path
  | Ssr of Ir.Types.path
  | Frep of Ir.Types.path
  | Split_reduction of Ir.Types.path * int  (** accumulator count *)
  | Reuse_dims of string * int  (** buffer, dimension *)
  | Set_storage of string * string  (** buffer, location name *)
  | Reorder_dims of string * int  (** buffer, swap of dims i,i+1 *)
  | Composite of {
      cname : string;
      args : (string * string) list;
      anchor : Ir.Types.path;
    }  (** a named composite macro-move: [composite(name(k=v) @ [p])] *)

val of_describe : string -> t option
(** Parse a describe string; [None] for unknown shapes. *)

val describe : t -> string
(** The describe string: the move's wire format. *)

val xname : t -> string
(** The transformation name as it appears in describe strings. *)

val anchor : t -> Ir.Types.path option
(** The node path the move anchors at; [None] for buffer-level moves. *)

val script_stmt : t -> Ir.Types.path option * string * (string * string) list
(** [(anchor, script name, args)] — the surface form a script statement
    uses for this move ([split(factor=16)], [storage(buffer=mx,
    loc=stack)], ...).  Inverse of {!Composites.resolve} followed by
    expansion at the anchor. *)
