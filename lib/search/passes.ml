(* Deterministic optimization passes (§4.1): the three strategies of
   Figure 7 plus per-target one-shot heuristic passes used as the
   "heuristic" bars in Figures 10/11.

   - [naive] imitates a programmer without architectural insight: merge
     scopes and reuse buffers until exhaustion.
   - [greedy] extends [naive] with hardware-specific transformations
     applied exhaustively, assuming they always help.
   - [heuristic] encodes hardware expertise as a function of program
     structure (the paper's example: tile the outermost loop of each
     nest by 4, sink it innermost, unroll it — creating enough
     independent chains to hide the 4-cycle FP latency). *)

open Transform

let rec fixpoint ~(pick : Ir.Prog.t -> Xforms.instance option) prog fuel =
  if fuel = 0 then prog
  else
    match pick prog with
    | None -> prog
    | Some inst -> fixpoint ~pick (inst.apply prog) (fuel - 1)

(* The first offered instance whose move satisfies [pick]. *)
let first_move pick caps prog =
  List.find_opt
    (fun (i : Xforms.instance) -> pick i.move)
    (Xforms.all caps prog)

let first_of names = first_move (fun m -> List.mem (Moveref.xname m) names)

(* Outermost first: among the offered instances whose move [anchor]
   accepts, the first with the shortest printed anchor path (the order
   these passes have always ranked candidates in, kept so their
   schedules stay put). *)
let outermost anchor caps prog =
  let len p = String.length (Target.path_str p) in
  List.fold_left
    (fun best (i : Xforms.instance) ->
      match (anchor i.move, best) with
      | Some p, Some (_, q) when len p >= len q -> best
      | Some p, _ -> Some (i, p)
      | None, _ -> best)
    None (Xforms.all caps prog)
  |> Option.map fst

(* Merge scopes and reuse buffers as much as possible. *)
let naive caps prog =
  let prog =
    fixpoint ~pick:(first_of [ "join_scopes" ] caps) prog 1000
  in
  let prog = fixpoint ~pick:(first_of [ "reuse_dims" ] caps) prog 1000 in
  (* keep shrunk temporaries close: move them to the stack when offered *)
  fixpoint
    ~pick:(fun p ->
      first_move
        (function
          | Moveref.Set_storage (bname, "stack") ->
              (* only buffers already shrunk by reuse *)
              List.exists (fun r -> r) (Ir.Prog.buffer_by_name p bname).reuse
          | _ -> false)
        caps p)
    prog 100

(* naive + hardware transformations applied exhaustively. *)
let greedy caps prog =
  let prog = naive caps prog in
  let prog = fixpoint ~pick:(first_of [ "enable_ssr" ] caps) prog 200 in
  let prog = fixpoint ~pick:(first_of [ "enable_frep" ] caps) prog 200 in
  prog

(* ------------------------------------------------------------------ *)
(* Snitch expert heuristic                                             *)
(* ------------------------------------------------------------------ *)

(* Tile the outermost scope of each loop nest by [f], sink the tile
   innermost via interchanges, and unroll it. *)
let tile_sink_unroll caps f prog =
  (* candidate nests: outermost scopes whose size divides f *)
  let outer_paths =
    Ir.Prog.fold_nodes
      (fun acc p node ->
        match node with
        | Ir.Types.Scope sc
          when List.length p = 1 && sc.size mod f = 0 && sc.size > f ->
            p :: acc
        | _ -> acc)
      [] prog
  in
  List.fold_left
    (fun prog path ->
      match Xforms.resolve_move caps prog (Moveref.Split (path, f)) with
      | None -> prog
      | Some split -> (
          let prog' = split.apply prog in
          (* the tile scope sits at path @ [0]; interchange it down while
             offered *)
          let rec sink p cur fuel =
            if fuel = 0 then (p, cur)
            else
              match Xforms.resolve_move caps cur (Moveref.Interchange p) with
              | Some inst -> sink (p @ [ 0 ]) (inst.apply cur) (fuel - 1)
              | None -> (p, cur)
          in
          let tile_path, prog'' = sink (path @ [ 0 ]) prog' 16 in
          match Xforms.resolve_move caps prog'' (Moveref.Unroll tile_path) with
          | Some u -> u.apply prog''
          | None -> prog''))
    prog outer_paths

(* Unroll every small loop that carries one partial accumulator per
   iteration (the inner loops produced by split_reduction): unrolled,
   their iterations form independent FP dependency chains. *)
let unroll_partial_accumulators caps prog =
  let rec step prog fuel =
    if fuel = 0 then prog
    else begin
      let candidate =
        Ir.Prog.fold_nodes
          (fun acc p node ->
            match (acc, node) with
            | Some _, _ -> acc
            | None, Ir.Types.Scope sc
              when sc.annot = Ir.Types.Seq && sc.size <= 8 -> (
                match sc.body with
                | [ Ir.Types.Stmt s ] ->
                    let depth = Ir.Prog.depth_of_path prog p in
                    if
                      Dep.is_commutative_reduction s
                      && List.exists
                           (fun i -> Ir.Index.depends_on depth i)
                           s.dst.idx
                    then Some p
                    else None
                | _ -> None)
            | None, _ -> None)
          None prog
      in
      match candidate with
      | None -> prog
      | Some p -> (
          match Xforms.resolve_move caps prog (Moveref.Unroll p) with
          | Some u -> step (u.apply prog) (fuel - 1)
          | None -> prog)
    end
  in
  step prog 16

(* The Figure-7 heuristic strategy: the naive pass, partial accumulators
   for scalar reductions, the latency-hiding tiling, then SSR/FREP like
   greedy. *)
let heuristic caps prog =
  let prog = naive caps prog in
  let prog =
    fixpoint ~pick:(first_of [ "split_reduction" ] caps) prog 32
  in
  let prog = unroll_partial_accumulators caps prog in
  let prog = tile_sink_unroll caps 4 prog in
  let prog = fixpoint ~pick:(first_of [ "enable_ssr" ] caps) prog 200 in
  let prog = fixpoint ~pick:(first_of [ "enable_frep" ] caps) prog 200 in
  prog

(* ------------------------------------------------------------------ *)
(* CPU one-shot heuristic pass (Figures 10/11 "heuristic")             *)
(* ------------------------------------------------------------------ *)

(* Vectorize every innermost single-statement loop: split off the vector
   width then annotate. *)
let vectorize_innermost (caps : Xforms.caps) prog =
  match caps.vec_lanes with
  | [] -> prog
  | lanes :: _ ->
      let rec improve prog fuel =
        if fuel = 0 then prog
        else begin
          (* prefer direct vectorization; otherwise split a divisible
             innermost loop and retry *)
          match first_of [ "vectorize" ] caps prog with
          | Some v -> improve (v.apply prog) (fuel - 1)
          | None -> (
              let splits =
                List.filter
                  (fun (i : Xforms.instance) ->
                    match i.move with
                    | Moveref.Split (_, f) -> f = lanes
                    | _ -> false)
                  (Xforms.all caps prog)
              in
              (* try each split; keep the first that unlocks vectorize *)
              let rec try_splits = function
                | [] -> None
                | (s : Xforms.instance) :: rest -> (
                    let p' = s.apply prog in
                    match first_of [ "vectorize" ] caps p' with
                    | Some v -> Some (v.apply p')
                    | None -> try_splits rest)
              in
              match try_splits splits with
              | Some p' -> improve p' (fuel - 1)
              | None -> prog)
        end
      in
      improve prog 32

(* Parallelize the outermost parallelizable loop. *)
let parallelize_outer caps prog =
  match
    outermost (function Moveref.Parallelize p -> Some p | _ -> None) caps prog
  with
  | Some i -> i.apply prog
  | None -> prog

(* Separate initialization statements from the loops that follow them,
   so reduction loops become interchange- and vectorization-ready. *)
let fission_inits caps prog =
  fixpoint
    ~pick:(fun p ->
      first_move
        (function
          | Moveref.Fission (path, k) -> (
              (* only splits whose first part is pure initialization *)
              match Ir.Prog.node_at p path with
              | Ir.Types.Scope sc ->
                  List.for_all
                    (function
                      | Ir.Types.Stmt { rhs = Ir.Types.Const _; _ } -> true
                      | _ -> false)
                    (List.filteri (fun j _ -> j < k) sc.body)
              | Ir.Types.Stmt _ -> false)
          | _ -> false)
        caps p)
    prog 32

(* Interchange reduction loops outward: when a loop whose iterator the
   destinations vary with (a lane candidate) directly wraps a loop the
   destinations are invariant in (the reduction), swap them — the
   classic matmul jk -> kj step that makes the j loop vectorizable. *)
let sink_reductions caps prog =
  fixpoint
    ~pick:(fun p ->
      first_move
        (function
          | Moveref.Interchange path -> (
              match Ir.Prog.node_at p path with
              | Ir.Types.Scope outer -> (
                  match outer.body with
                  | [ Ir.Types.Scope inner_sc ] ->
                      let d = Ir.Prog.depth_of_path p path in
                      let stmts = Ir.Prog.stmts_under inner_sc.body in
                      stmts <> []
                      && List.for_all
                           (fun (st : Ir.Types.stmt) ->
                             List.exists
                               (fun ix -> Ir.Index.depends_on d ix)
                               st.dst.idx
                             && not
                                  (List.exists
                                     (fun ix ->
                                       Ir.Index.depends_on (d + 1) ix)
                                     st.dst.idx))
                           stmts
                  | _ -> false)
              | Ir.Types.Stmt _ -> false)
          | _ -> false)
        caps p)
    prog 16

(* Fuse first (cross-operator), then parallelize the outer loop, then
   shrink what can still legally shrink (reuse_dims refuses dimensions
   indexed by the now-parallel scope), distribute initializations and
   sink reduction loops outward so the lane dimension ends up innermost,
   then vectorize. *)
let cpu_heuristic ?(fuse = true) caps prog =
  let prog =
    if fuse then fixpoint ~pick:(first_of [ "join_scopes" ] caps) prog 1000
    else prog
  in
  let prog = parallelize_outer caps prog in
  let prog = fixpoint ~pick:(first_of [ "reuse_dims" ] caps) prog 1000 in
  let prog = fission_inits caps prog in
  let prog = sink_reductions caps prog in
  let prog = vectorize_innermost caps prog in
  prog

(* ------------------------------------------------------------------ *)
(* GPU one-shot heuristic pass                                         *)
(* ------------------------------------------------------------------ *)

(* Map the outermost independent loop to the grid, split off a 4-wide
   vector loop per thread, make sure there is a thread-block dimension
   (splitting an oversized loop into blocks of 256 when needed), and pad
   blocks to the wavefront multiple.  [fuse] controls whether operators
   are fused across nests first (our schedules fuse; library baselines
   launch one kernel per operator). *)
let gpu_heuristic ?(fuse = true) ?(warp = 32) ?(vectorize = true) ?score
    caps prog =
  let grid = function Moveref.Gpu (p, "grid") -> Some p | _ -> None in
  let prog =
    if fuse then fixpoint ~pick:(first_of [ "join_scopes" ] caps) prog 1000
    else prog
  in
  (* completing a kernel given the grid choice: per-thread vectors,
     block mapping (splitting oversized loops), wavefront padding *)
  let finish prog =
    let prog = if vectorize then vectorize_innermost caps prog else prog in
    let map_blocks prog =
      fixpoint
        ~pick:
          (first_move
             (function Moveref.Gpu (_, "block") -> true | _ -> false)
             caps)
        prog 8
    in
    let prog = map_blocks prog in
    let has_block p =
      Ir.Prog.fold_nodes
        (fun acc _ n ->
          acc
          ||
          match n with
          | Ir.Types.Scope sc -> sc.annot = Ir.Types.GpuBlock
          | Ir.Types.Stmt _ -> false)
        false p
    in
    let prog =
      if has_block prog then prog
      else
        match
          first_move
            (function Moveref.Split (_, f) -> f = 256 | _ -> false)
            caps prog
        with
        | Some s -> map_blocks (s.apply prog)
        | None -> prog
    in
    fixpoint
      ~pick:
        (first_move (function Moveref.Pad (_, m) -> m = warp | _ -> false) caps)
      prog 4
  in
  (* grid choice: map every outermost independent loop to the grid; with
     a [score] function, additionally consider mapping each offered loop
     and keep the completed pipeline that scores best (one-step
     lookahead, the launch-configuration heuristic of a tuned library) *)
  let default_grids prog = fixpoint ~pick:(outermost grid caps) prog 8 in
  match score with
  | None -> finish (default_grids prog)
  | Some f ->
      let candidates =
        finish (default_grids prog)
        :: List.filter_map
             (fun (g : Xforms.instance) ->
               if grid g.move <> None then
                 Some (finish (default_grids (g.apply prog)))
               else None)
             (Xforms.all caps prog)
      in
      List.fold_left
        (fun best cand -> if f cand < f best then cand else best)
        (List.hd candidates) (List.tl candidates)
