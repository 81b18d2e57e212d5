(** Affine index expressions.

    An index is a normal-form affine combination of iterator references:
    a sorted list of [(coefficient, depth)] terms plus a constant offset,
    where [depth] identifies an enclosing scope counted from the
    outermost (depth 0).  All loop-structure transformations — tiling,
    interchange, fusion shifts — are expressed as depth remappings over
    these terms. *)

open Types

val normalize : (int * int) list -> int -> index
(** [normalize terms offset] sorts terms by depth, merges duplicate
    depths and drops zero coefficients: ascending depth, one term per
    depth, no zero coefficient. *)

val const : int -> index
(** Constant index. *)

val iter : ?coeff:int -> int -> index
(** [iter ~coeff d] is [coeff * {d}] (default coefficient 1). *)

val zero : index

val add : index -> index -> index
val scale : int -> index -> index

val equal : index -> index -> bool
(** Structural equality of normal forms. *)

val coeff_of : int -> index -> int
(** Coefficient of iterator [{d}] (0 when absent). *)

val depends_on : int -> index -> bool
val depths : index -> int list
val is_const : index -> bool

val subst : (int -> index) -> index -> index
(** [subst f i] replaces each term [c * {d}] by [c * f d].  This is the
    workhorse of tiling ([{d} -> k*{d} + {d+1}]), interchange (swap two
    depths) and fusion (depth shifts). *)

val shift_depths : from:int -> delta:int -> index -> index
(** Shift all iterator depths [>= from] by [delta]. *)

val eval : int array -> index -> int
(** [eval env i] evaluates under [env.(d)] = current iteration of the
    scope at depth [d]. *)

val value_range : (int -> int) -> index -> int * int
(** [value_range sizes i] is the inclusive [(lo, hi)] range of values the
    index takes when each iterator [d] ranges over [0 .. sizes d - 1]. *)

val to_string : index -> string
(** Textual form, e.g. ["4*{0}+{1}+3"]. *)
