(** The atomic transformation library (§2.2).

    Each transformation family ships with applicability discovery: the
    family is one declaration holding its capability gate and its
    {e site function}, the instances it proves semantics-preserving
    (using the analyses in {!Dep}) at one site, ready to apply.  {!all}
    walks the sites of every family the capabilities enable, and
    {!resolve_move} runs only the site a move names, so no rule has a
    second copy.  Applying an instance needs no further checks.
    Programs are immutable, so histories are naturally non-destructive.

    {b Sites.}  A site is a node path (split, fission, interchange,
    unroll, vectorize, parallelize, gpu_map, pad, unannotate, ssr,
    frep, split_reduction; a fission site is a path and a split point,
    each point having its own dependence check), a sibling position — a
    parent path and an index — (join, reorder) or a buffer (reuse_dims,
    set_storage, reorder_dims).  A node site carries the scopes that
    enclose the node, built by the walk that reaches it, so a rule that
    asks about the nest (its depth, the enclosing annotations, SSR
    streaming or unrolling above) never walks down from the root again.

    {b Gates.}  A family the capabilities switch off offers nothing,
    and {!all} does not walk it: gpu_map needs [gpu], parallelize
    [can_parallelize], vectorize a lane width ([vec_lanes <> []]),
    split_reduction an accumulator count ([reduction_split <> []]), and
    ssr and frep need [snitch].  The other eleven families are always
    on; the capabilities still shape what they offer at a site (split
    factors, pad multiples, the [Shared] storage option, the unroll
    bound). *)

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

val named : string -> Moveref.t option
(** The move a describe string names: {!Moveref.of_describe}, kept only
    when the string is that move's canonical spelling.  {!lookup} and
    {!resolve} name moves by this rule; a search run applies it once to
    the strings it is handed (a warm start, a checkpoint) and keeps its
    moves typed from then on. *)

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
    program state — the action set of the PerfDojo game.  The atomic
    instances of every enabled family, in the order the family list
    below gives, then [caps.extra] macro-moves. *)

val resolve_move :
  ?filter:(instance -> bool) -> caps -> Ir.Prog.t -> Moveref.t -> instance option
(** [resolve_move ?filter caps p m] is the first instance that passes
    [filter] and whose [move] is [m], found by checking only [m]'s site:
    the node at {!Moveref.anchor}[ m] (one walk down the path, which
    also collects the enclosing scopes), the siblings under its parent
    for a join or reorder, the buffers named by a buffer move — and
    [caps.extra] for a {!Moveref.Composite}.  A move whose family the
    capabilities switch off resolves to [None] before any site is
    looked at.  A site that does not exist (an index out of range or
    negative at any level, [[]], a step into a statement, an unknown
    buffer) offers nothing.  This is how a recorded move is replayed:
    one site's checks instead of every family {!all} walks over the
    whole program. *)

val resolve :
  ?filter:(instance -> bool) -> caps -> Ir.Prog.t -> string -> instance option
(** [resolve ?filter caps p name] is {!resolve_move} on the move [name]
    names, under {!lookup}'s rule: [name] is parsed once, and a
    non-canonical spelling names nothing.

    {b Law.}  [resolve ?filter caps p name] and
    [lookup ?filter (all caps p) name] return instances with the same
    [move], and those instances produce the same program.  It holds
    because no family emits another family's constructor, both apply
    the family's one gate, a move names its own site, {!all} lists a
    site's instances in the order its site function returns them, and
    [caps.extra] offers only {!Moveref.Composite} moves: the first
    match at the move's site is the first match in {!all}. *)

(** {1 The families}

    In the order {!all} lists them, with the name their moves carry in
    describe strings:

    - [split_scope]: tiling — a scope of size [n = f*m] becomes nested
      [m]/[f] scopes; [{d}] is rewritten to [f*{d} + {d+1}].
    - [join_scopes]: loop fusion of a scope with its immediately
      following sibling (equal sizes; zero-distance dependences only).
    - [fission]: loop distribution at any body split point with
      zero-distance dependences across the parts.
    - [interchange]: swap a scope with its sole child scope (lockstep or
      commutative-reduction dependences only).
    - [reorder]: swap two independent adjacent siblings.
    - [unroll]: mark a scope unrolled (bounded total code replication).
    - [vectorize]: an innermost single-statement scope whose trip count
      equals a permitted lane width and whose accesses are unit-stride
      or invariant — the paper's explicit tile-then-vectorize
      discipline.
    - [parallelize]: CPU thread parallelism over an
      iteration-independent scope inside no parallel scope.
    - [gpu_map]: map scopes to the GPU grid, block and warp dimensions
      (grid outermost, blocks inside a grid, warps inside a block;
      blocks and warps additionally allow commutative reductions —
      cooperative reduction).
    - [pad_scope]: pad a trip count up to a hardware multiple; the extra
      iterations are masked by a guard.
    - [unannotate]: revert a scope's annotation (and SSR flag) to
      sequential — the inverse of the annotation moves, keeping the
      space explorable forward.
    - [reuse_dims]: collapse a buffer dimension to storage extent 1 when
      a single sequential scope provably owns it (Figure 5).
    - [set_storage]: move a non-interface buffer between heap / stack /
      shared / register.
    - [reorder_buffer_dims]: transpose the storage layout of a
      non-interface buffer (adjacent dimension swaps).
    - [split_reduction]: introduce [k] partial accumulators for a
      reduction carried by a loop, breaking the FP-latency dependency
      chain (exact up to floating-point reassociation).
    - [enable_ssr]: stream the memory accesses of a straight-line loop
      body through Snitch stream semantic registers (at most 3 streams;
      not inside a streamed loop), outermost site first.
    - [enable_frep]: put an SSR-streamed loop under the Snitch FREP
      hardware loop. *)

val apply_split : Ir.Types.path -> int -> int -> Ir.Prog.t -> Ir.Prog.t
(** [apply_split path depth factor] splits the scope at [path], whose
    depth the caller gives, without the family's checks. *)
