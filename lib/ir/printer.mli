(** Human-readable textual form of the IR (Figure 3b).

    Scopes print as their iteration count with annotation suffixes
    ([1024:v], [320:b/300] for a padded scope); child relationship is
    rendered with vertical bars; buffer declarations
    ([name dtype [d1, d2:N] location -> aliases]) precede the body.  The
    output of {!program} parses back with {!Parser.program}.

    This module is the only place the formatting rules live.  They are
    exposed bottom-up ({!expr_text}, {!bin_text}, {!scope_text}, …) so
    a caller that holds the printed text of a node's operands or
    children (the sort keys of Canon) can build the node's text without
    printing its subtree again; {!program} is built from the same
    pieces. *)

val program : Types.program -> string
(** Full program: buffers, inputs/outputs, body. *)

val body : Types.program -> string
(** Body only — the state text fed to the PerfLLM embedding. *)

val stmt_str : Types.stmt -> string
val expr_str : ?prec:int -> Types.expr -> string
val access_str : Types.access -> string
val scope_header : Types.scope -> string
val buffer_str : Types.buffer -> string
val float_str : float -> string
val pp : Format.formatter -> Types.program -> unit

(** {2 Bottom-up printing}

    [name] maps an array name to the name printed for it (default: the
    name itself).  Every function below produces exactly the text its
    whole-tree counterpart prints. *)

type expr_text
(** An expression's printed text together with its precedence, which
    decides whether an enclosing operator parenthesizes it. *)

val text_of : expr_text -> string
(** The text {!expr_str} prints for the expression. *)

val expr_text : ?name:(string -> string) -> Types.expr -> expr_text
(** The whole expression's text; for a leaf, all there is to print. *)

val un_text : Types.unop -> expr_text -> expr_text
(** [un_text op a]: the text of [Un (op, e)] given [a], the text of [e]. *)

val bin_text : Types.binop -> expr_text -> expr_text -> expr_text
(** [bin_text op a b]: the text of [Bin (op, e1, e2)] given the texts of
    [e1] and [e2]. *)

val stmt_text : ?name:(string -> string) -> Types.access -> expr_text -> string
(** [stmt_text dst rhs]: the statement line, given its right-hand
    side's text. *)

val scope_text : Types.scope -> string list -> string
(** [scope_text sc children]: the scope's lines (its header, then every
    child line indented by one level), given its children's texts in
    order.  The scope's own [body] is not read. *)

val program_text : Types.program -> string list -> string
(** [program_text p texts] is {!program} of [p] with its body printed as
    the given top-level node texts, which replace [p.body]'s. *)
