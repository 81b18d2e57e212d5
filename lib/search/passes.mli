(** Deterministic optimization passes (§4.1) and per-target one-shot
    heuristics (the "heuristic" bars of Figures 10/11). *)

val fixpoint :
  pick:(Ir.Prog.t -> Transform.Xforms.instance option) ->
  Ir.Prog.t ->
  int ->
  Ir.Prog.t
(** Apply [pick]'s choice repeatedly until it returns [None] or the fuel
    runs out. *)

val first_move :
  (Transform.Moveref.t -> bool) ->
  Transform.Xforms.caps ->
  Ir.Prog.t ->
  Transform.Xforms.instance option
(** First applicable instance whose move satisfies the predicate. *)

val first_of :
  string list ->
  Transform.Xforms.caps ->
  Ir.Prog.t ->
  Transform.Xforms.instance option
(** First applicable instance whose name is in the list. *)

val naive : Transform.Xforms.caps -> Ir.Prog.t -> Ir.Prog.t
(** Merge scopes and reuse buffers until exhaustion — a programmer
    without architectural insight (Figure 7 "naive"). *)

val greedy : Transform.Xforms.caps -> Ir.Prog.t -> Ir.Prog.t
(** [naive] plus hardware transformations (SSR/FREP) applied
    exhaustively (Figure 7 "greedy"). *)

val heuristic : Transform.Xforms.caps -> Ir.Prog.t -> Ir.Prog.t
(** The hardware-expert strategy of Figure 7: [naive], partial
    accumulators for scalar reductions, tile-outermost-by-4 sunk
    innermost and unrolled (hiding the 4-cycle FP latency), then
    SSR/FREP. *)

val tile_sink_unroll :
  Transform.Xforms.caps -> int -> Ir.Prog.t -> Ir.Prog.t
(** The latency-hiding reshape described in §4.1: [N,D1,D2] becomes
    [N/f,D1,D2,f] with the [f]-tile unrolled. *)

val unroll_partial_accumulators :
  Transform.Xforms.caps -> Ir.Prog.t -> Ir.Prog.t
(** Unroll the small loops introduced by split_reduction so their
    iterations form independent FP dependency chains. *)

val vectorize_innermost : Transform.Xforms.caps -> Ir.Prog.t -> Ir.Prog.t
(** Vectorize every innermost single-statement loop, splitting off the
    vector width first where needed. *)

val parallelize_outer : Transform.Xforms.caps -> Ir.Prog.t -> Ir.Prog.t
(** Parallelize the outermost parallelizable loop. *)

val fission_inits : Transform.Xforms.caps -> Ir.Prog.t -> Ir.Prog.t
(** Distribute loops so initialization statements get their own nests,
    making the reduction loops interchange-ready. *)

val sink_reductions : Transform.Xforms.caps -> Ir.Prog.t -> Ir.Prog.t
(** Interchange reduction loops outward so lane-varying loops end up
    innermost (the classic matmul jk -> kj step). *)

val cpu_heuristic :
  ?fuse:bool -> Transform.Xforms.caps -> Ir.Prog.t -> Ir.Prog.t
(** One-shot CPU pass: fuse, parallelize, reuse what still may,
    distribute inits, sink reductions, then vectorize. *)

val gpu_heuristic :
  ?fuse:bool ->
  ?warp:int ->
  ?vectorize:bool ->
  ?score:(Ir.Prog.t -> float) ->
  Transform.Xforms.caps ->
  Ir.Prog.t ->
  Ir.Prog.t
(** One-shot GPU pass: (optionally) fuse across operators, map grid,
    split off 4-wide per-thread vectors, ensure a block dimension
    (splitting oversized loops into blocks of 256), pad ragged blocks to
    the [warp] multiple.  With [score] (modelled runtime), the grid
    dimension is chosen by one-step lookahead over the offered
    mappings. *)
