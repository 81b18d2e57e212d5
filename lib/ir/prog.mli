(** Program-level utilities: traversal by path, expression iteration,
    access collection, buffer lookup and bulk index rewriting — the
    primitives every transformation is written in terms of. *)

open Types

type t = program

exception Invalid_path of path

(** {1 Expressions} *)

val expr_fold_refs : ('a -> access -> 'a) -> 'a -> expr -> 'a
val expr_refs : expr -> access list
(** All array reads of an expression, left to right. *)

val expr_map_access : (access -> access) -> expr -> expr
val expr_map_index : (index -> index) -> expr -> expr
(** Rewrite every index, both in array accesses and IterVal leaves. *)

val expr_iter_index : (index -> unit) -> expr -> unit
val stmt_map_index : (index -> index) -> stmt -> stmt

val expr_flops : expr -> int
val stmt_flops : stmt -> int
(** Scalar arithmetic operations per execution (unfused count). *)

(** {1 Tree traversal} *)

val node_at : t -> path -> node
(** Raises {!Invalid_path} when the path does not address a node: [[]],
    an index out of range or negative at any level, or a step into a
    statement.  {!rewrite_at}, {!depth_of_path} and {!enclosing_sizes}
    raise it on the same paths, and all four carry the whole path they
    were given. *)

val rewrite_at : t -> path -> (node -> node list) -> t
(** Replace the node at the path by a node list (empty removes it,
    several splice in place).  Never returns the program unchanged for
    a path that addresses no node: it raises {!Invalid_path}. *)

val depth_of_path : t -> path -> int
(** Number of scopes strictly enclosing the node at the path. *)

val iter_nodes : (path -> node -> unit) -> t -> unit
(** Visit every node with its path, outer before inner, in order. *)

val fold_nodes : ('a -> path -> node -> 'a) -> 'a -> t -> 'a

val stmts_under : node list -> stmt list
val stmts_of_node : node -> stmt list
val node_map_index : (index -> index) -> node -> node

(** {1 Accesses} *)

type access_kind = Read | Write

val stmt_accesses : stmt -> (access_kind * access) list
(** Reads of the right-hand side first, then the destination write. *)

val node_accesses : node -> (access_kind * access) list
val written_arrays : node -> string list
val read_arrays : node -> string list

(** {1 Buffers} *)

val buffer_of_array : t -> string -> buffer
(** Buffer an array name belongs to: the first buffer that lists it.
    Raises [Invalid_argument] for an unknown array.

    It and {!alias_class} read the alias facts of the program's buffer
    list, built once per list rather than scanned per lookup.  Each
    domain keeps the facts of the last list it was asked about, keyed on
    that list's physical identity ([==]): lists are immutable, and loop
    moves leave [buffers] physically unchanged, so a replay of loop
    moves builds them once.  They live per domain because pool tasks
    look up different programs at once, and outside {!t} so that no
    program update, builder or buffer move has to keep them in step. *)

val alias_class : t -> string -> int
(** The array's alias class: two arrays share storage exactly when
    their classes are equal, i.e. when their buffers share a [bname].
    Raises [Invalid_argument] for an unknown array. *)

val buffer_by_name : t -> string -> buffer
val replace_buffer : t -> buffer -> t

val storage_shape : buffer -> int list
(** Shape with reused ([:N]) dimensions collapsed to extent 1. *)

val buffer_bytes : buffer -> int
(** Materialized storage footprint in bytes. *)

val total_flops : t -> int
(** Scalar arithmetic operations over the whole program — the basis of
    the theoretical-peak metric (§4.1). *)

val enclosing_sizes : t -> path -> int array
(** Sizes of the scopes enclosing a node, indexed by depth. *)

(** {1 Identity} *)

val digest : t -> Digest.t
(** 16-byte MD5 of [Marshal.to_string p [No_sharing]]: the program's
    exact structure, names, operand order and float bits included, so a
    renamed temporary or a swapped commutative operand is a different
    digest.  A few microseconds, where [Canon.fingerprint] costs tens.
    It keys [Tuning.Cache]'s memo table and [Search.Exhaustive]'s set of
    exact repeats. *)
