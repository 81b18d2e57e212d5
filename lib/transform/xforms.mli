(** The atomic transformation library (§2.2).

    Each transformation ships with applicability discovery: the [find_*]
    functions enumerate every program location where the move is provably
    semantics-preserving (using the analyses in {!Dep}) and return
    ready-to-apply {!instance}s.  Applying an instance needs no further
    checks.  Programs are immutable, so histories are naturally
    non-destructive.

    {b Sites.}  A family's applicability rules live in one internal
    {e site function}: the instances the family offers at one site, in
    the order its finder lists them there.  A site is a node path
    (split, fission, interchange, unroll, vectorize, parallelize,
    gpu_map, pad, unannotate, ssr, frep, split_reduction; a fission
    site is a path and a split point, each point having its own
    dependence check), a sibling position — a parent path and an index
    — (join, reorder) or a buffer (reuse_dims, set_storage,
    reorder_dims).  Each [find_*] is only a traversal of its sites, and
    {!resolve_move} runs the one site a move names, so no rule has a
    second copy. *)

type instance = {
  move : Moveref.t;  (** which move this is: transformation and location *)
  apply : Ir.Prog.t -> Ir.Prog.t;
      (** total within applicability; raises {!Not_applicable} (or
          [Ir.Prog.Invalid_path] for a vanished path) if the location no
          longer matches *)
}

exception Not_applicable of string
(** Raised when applying an instance whose location went stale — the
    program changed underneath it.  Deliberately distinct from
    [Invalid_argument] so staleness-tolerant handlers (Engine.undo_at)
    never swallow genuine programming errors. *)

val describe : instance -> string
(** [Moveref.describe i.move]: the wire format that records and replays
    move sequences. *)

val lookup :
  ?filter:(instance -> bool) -> instance list -> string -> instance option
(** [lookup ?filter insts name] is the first instance of [insts] that
    passes [filter] and whose {!describe} is [name].  [name] is parsed
    once and compared as a move; a non-canonical spelling of a move (a
    doubled space, ["[0, 4]"]) names no instance. *)

(** Hardware capabilities gate which transformations are offered: the
    paper's "hardware knowledge exposed to the search only as a library
    of transformations". *)
type caps = {
  vec_lanes : int list;  (** permitted vector widths; [[]] = no SIMD *)
  max_unroll : int;
  can_parallelize : bool;
  gpu : bool;
  max_block : int;  (** max threads per GPU block *)
  snitch : bool;  (** SSR / FREP extensions available *)
  max_stack_bytes : int;
  split_factors : int list;
  reduction_split : int list;
      (** partial-accumulator counts offered by split_reduction *)
  extra : Ir.Prog.t -> instance list;
      (** additional instances offered at every state — the hook through
          which named composite transformations ([Transfo.Composites])
          appear as macro-moves in every search engine.  It offers only
          {!Moveref.Composite} moves: {!resolve} looks for those here and
          for every other move at its own site.  The three builders
          install the empty hook; {!with_extra} replaces it. *)
}

val cpu_caps : ?vec_lanes:int list -> ?max_unroll:int -> unit -> caps
val gpu_caps : ?max_block:int -> unit -> caps
val snitch_caps : unit -> caps

val with_extra : (Ir.Prog.t -> instance list) -> caps -> caps
(** The hook must enumerate against a caps value whose own [extra] is
    empty (close over the base caps), or {!all} would recurse, and it
    must offer only {!Moveref.Composite} moves, or {!resolve} would
    disagree with {!lookup} over {!all}. *)

val all : caps -> Ir.Prog.t -> instance list
(** Every applicable instance of every transformation at the given
    program state — the action set of the PerfDojo game.  Atomic
    instances first, then [caps.extra] macro-moves. *)

val resolve_move :
  ?filter:(instance -> bool) -> caps -> Ir.Prog.t -> Moveref.t -> instance option
(** [resolve_move ?filter caps p m] is the first instance that passes
    [filter] and whose [move] is [m], found by checking only [m]'s site:
    the node at {!Moveref.anchor}[ m] ({!Ir.Prog.node_at}), the
    siblings under its parent for a join or reorder, the buffers named
    by a buffer move — and [caps.extra] for a {!Moveref.Composite}.  A
    site that does not exist (an index out of range or negative at any
    level, [[]], a step into a statement, an unknown buffer) offers
    nothing.  This is how a recorded move is replayed: one site's
    checks instead of the seventeen finders {!all} runs over the whole
    program. *)

val resolve :
  ?filter:(instance -> bool) -> caps -> Ir.Prog.t -> string -> instance option
(** [resolve ?filter caps p name] is {!resolve_move} on the move [name]
    names, under {!lookup}'s rule: [name] is parsed once, and a
    non-canonical spelling names nothing.

    {b Law.}  [resolve ?filter caps p name] and
    [lookup ?filter (all caps p) name] return instances with the same
    [move], and those instances produce the same program.  It holds
    because no finder emits another finder's constructor, a move names
    its own site, the finder lists a site's instances in the order its
    site function returns them, and [caps.extra] offers only
    {!Moveref.Composite} moves: the first match at the move's site is
    the first match in {!all}. *)

(** {1 Individual transformations}

    Exposed for passes and tests; [all] is the usual entry point. *)

val find_split : caps -> Ir.Prog.t -> instance list
(** Tiling: scope of size [n = f*m] becomes nested [m]/[f] scopes;
    [{d}] is rewritten to [f*{d} + {d+1}]. *)

val apply_split : Ir.Types.path -> int -> int -> Ir.Prog.t -> Ir.Prog.t
(** [apply_split path depth factor] — unchecked form used by passes. *)

val find_join : Ir.Prog.t -> instance list
(** Loop fusion of a scope with its immediately-following sibling
    (equal sizes; zero-distance dependences only). *)

val find_fission : Ir.Prog.t -> instance list
(** Loop distribution at any body split point with zero-distance
    dependences across the parts. *)

val find_interchange : Ir.Prog.t -> instance list
(** Swap a scope with its sole child scope (lockstep or commutative-
    reduction dependences only). *)

val find_reorder : Ir.Prog.t -> instance list
(** Swap two independent adjacent siblings. *)

val find_unroll : caps -> Ir.Prog.t -> instance list
(** Mark a scope unrolled (bounded total code replication). *)

val find_vectorize : caps -> Ir.Prog.t -> instance list
(** Vectorize an innermost single-statement scope whose trip count
    equals a permitted lane width and whose accesses are unit-stride or
    invariant — the paper's explicit tile-then-vectorize discipline. *)

val vectorizable_stmt : Ir.Prog.t -> depth:int -> Ir.Types.stmt -> bool

val find_parallelize : caps -> Ir.Prog.t -> instance list
(** CPU thread parallelism over iteration-independent scopes. *)

val find_gpu_map : caps -> Ir.Prog.t -> instance list
(** Map scopes to the GPU grid / block dimensions (grid outermost,
    blocks inside a grid; blocks additionally allow commutative
    reductions — cooperative block reduction). *)

val find_pad : caps -> Ir.Prog.t -> instance list
(** Pad a trip count up to a hardware multiple; the extra iterations are
    masked by a guard. *)

val find_unannotate : Ir.Prog.t -> instance list
(** Revert a scope's annotation (and SSR flag) to sequential — the
    inverse of the annotation moves, keeping the space explorable
    forward. *)

val find_reuse_dims : Ir.Prog.t -> instance list
(** Collapse a buffer dimension to storage extent 1 when a single
    sequential scope provably owns it (Figure 5). *)

val find_set_storage : caps -> Ir.Prog.t -> instance list
(** Move a non-interface buffer between heap / stack / shared /
    register. *)

val find_reorder_dims : Ir.Prog.t -> instance list
(** Transpose the storage layout of a non-interface buffer (adjacent
    dimension swaps). *)

val find_split_reduction : caps -> Ir.Prog.t -> instance list
(** Introduce [k] partial accumulators for a reduction carried by a
    loop, breaking the FP-latency dependency chain (exact up to
    floating-point reassociation). *)

val find_ssr : caps -> Ir.Prog.t -> instance list
(** Stream the memory accesses of a straight-line loop body through
    Snitch stream semantic registers (at most 3 streams). *)

val find_frep : caps -> Ir.Prog.t -> instance list
(** Put an SSR-streamed loop under the Snitch FREP hardware loop. *)

val unroll_replication : Ir.Prog.t -> Ir.Types.path -> Ir.Types.scope -> int

val set_annot : Ir.Types.path -> Ir.Types.annot -> Ir.Prog.t -> Ir.Prog.t
val apply_join : Ir.Types.path -> Ir.Prog.t -> Ir.Prog.t
val enclosing_annots : Ir.Prog.t -> Ir.Types.path -> Ir.Types.annot list
