(** Dependence analyses underpinning transformation applicability (§2.2).

    All rules are deliberately conservative: a transformation is offered
    only when these checks {e prove} semantic preservation.  Analyses
    operate on {e storage-effective} indices — a reused ([:N]) dimension
    collapses every logical index to the same slot — which keeps them
    sound after [reuse_dims] has been applied.  The test suite validates
    the rules empirically by numerically comparing every transformed
    program against its original, exactly as the paper does.

    Two accesses conflict when at least one is a write and their arrays
    share storage, i.e. have one {!Ir.Prog.alias_class}.  A check reads
    its subtree's accesses once, each with its alias class, and compares
    pairs only within a class.  The array → (buffer, class) facts live
    in {!Ir.Prog}, built once per buffer list and kept per domain for
    the last list asked about (see {!Ir.Prog.buffer_of_array}), so no
    check scans the buffer list per access. *)

open Ir.Types

val is_commutative_reduction : stmt -> bool
(** [z[I] = z[I] (+|*|max|min) e] with [e] not referencing [z]:
    reordering its iterations only reassociates a commutative operator
    (accepted up to floating-point rounding, validated with tolerance). *)

val nodes_independent : Ir.Prog.t -> node -> node -> bool
(** No array written by one node is accessed by the other — the
    condition for reordering siblings. *)

val fusion_safe :
  Ir.Prog.t -> depth:int -> node list -> node list -> bool
(** Fusing two sibling scopes at [depth] is safe when every conflicting
    access pair between the bodies moves in lockstep along the fused
    iterator. *)

val fission_safe :
  Ir.Prog.t -> depth:int -> node list -> node list -> bool
(** Loop distribution obeys the same zero-distance condition. *)

val interchange_safe : Ir.Prog.t -> depth:int -> node list -> bool
(** Swapping the loops at [depth] and [depth+1] around the given subtree:
    conflicting pairs must move in lockstep along both loops, arise from
    a commutative reduction, or be intra-iteration accesses to
    loop-invariant locations in write-before-read order. *)

val parallel_safe : Ir.Prog.t -> depth:int -> node list -> bool
(** Iterations touch disjoint data: every conflicting pair moves in
    lockstep along the loop. *)

val parallel_reduction_safe : Ir.Prog.t -> depth:int -> node list -> bool
(** Like {!parallel_safe}, additionally tolerating a single commutative
    reduction statement (GPU thread blocks reduce cooperatively). *)

val reuse_safe : Ir.Prog.t -> buffer -> dim:int -> bool
(** Collapsing [dim] of the buffer to storage extent 1 is safe: not an
    interface buffer, every access indexes [dim] with exactly [{d}] for
    one common {e sequential} scope node, and the first access per
    iteration is a write (the Figure-5 rule: legal after fusion, illegal
    before). *)
