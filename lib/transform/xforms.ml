(* The atomic transformation library (§2.2).

   Each transformation family comes with applicability discovery: it is
   one declaration (see Families and sites) holding its capability gate
   and its site function, the instances it proves semantics-preserving
   at one site.  [all] walks the sites of every family the capabilities
   enable, and [resolve_move] checks only the site a move names.
   Applying an instance never requires further checks.  Instances are
   small immutable values over immutable programs, which makes the whole
   history non-destructive: any prefix of moves can be replayed or
   undone. *)

open Ir.Types

type instance = { move : Moveref.t; apply : Ir.Prog.t -> Ir.Prog.t }

let describe i = Moveref.describe i.move

(* Applying a stale instance (the location no longer matches after the
   program changed underneath it) raises [Not_applicable] — distinct
   from [Invalid_argument] so genuine programming errors (e.g. an
   indexing bug) are never mistaken for staleness by handlers that
   tolerate it (Engine.undo_at). *)
exception Not_applicable of string

let not_applicable msg = raise (Not_applicable msg)

(* The move a describe string names: parsed once, and only the canonical
   spelling names a move. *)
let named name =
  match Moveref.of_describe name with
  | Some m when Moveref.describe m = name -> Some m
  | _ -> None

let first_match ~filter m insts =
  List.find_opt (fun i -> i.move = m && filter i) insts

(* Resolve a describe string against an enumerated list; first
   occurrence wins. *)
let lookup ?(filter = fun (_ : instance) -> true) insts name =
  Option.bind (named name) (fun m -> first_match ~filter m insts)

(* Hardware capabilities gate which transformations are offered.  This is
   the paper's "hardware knowledge exposed to the search only as a library
   of transformations". *)
type caps = {
  vec_lanes : int list; (* permitted vector widths; [] = no vector unit *)
  max_unroll : int;
  can_parallelize : bool;
  gpu : bool;
  max_block : int; (* max threads per GPU block *)
  snitch : bool; (* SSR / FREP extensions available *)
  max_stack_bytes : int;
  split_factors : int list;
  reduction_split : int list; (* partial-accumulator counts offered *)
  extra : Ir.Prog.t -> instance list;
      (* additional instances offered at every state — the hook through
         which named composite transformations (Transfo) become
         macro-moves visible to every search engine.  Must close over a
         caps value whose own [extra] is empty, or enumeration would
         recurse, and must offer only [Composite] moves, or [resolve]
         would miss them. *)
}

let no_extra (_ : Ir.Prog.t) : instance list = []

let with_extra extra caps = { caps with extra }

let cpu_caps ?(vec_lanes = [ 4; 8; 16 ]) ?(max_unroll = 16) () =
  {
    extra = no_extra;
    vec_lanes;
    max_unroll;
    can_parallelize = true;
    gpu = false;
    max_block = 0;
    snitch = false;
    max_stack_bytes = 1 lsl 20;
    split_factors = [ 2; 4; 8; 16; 32; 64 ];
    reduction_split = [ 4; 8 ];
  }

let gpu_caps ?(max_block = 1024) () =
  {
    extra = no_extra;
    vec_lanes = [ 4; 2 ]; (* 128/64-bit vector loads per thread *)
    max_unroll = 8;
    can_parallelize = false;
    gpu = true;
    max_block;
    snitch = false;
    max_stack_bytes = 1 lsl 16;
    split_factors = [ 2; 4; 8; 16; 32; 64; 128; 256 ];
    reduction_split = [];
  }

let snitch_caps () =
  {
    extra = no_extra;
    vec_lanes = [];
    max_unroll = 8;
    can_parallelize = false;
    gpu = false;
    max_block = 0;
    snitch = true;
    max_stack_bytes = 1 lsl 17;
    split_factors = [ 2; 4; 8 ];
    reduction_split = [ 4 ];
  }

(* ------------------------------------------------------------------ *)
(* Families and sites                                                  *)
(* ------------------------------------------------------------------ *)

(* A family is one declaration: its capability gate and its site
   function, the instances it offers at one site in the order [all]
   lists them there.  The gate is the only place a family asks whether
   the target has it at all: [all] skips a family it switches off
   without walking the program, and [resolve_move] refuses the family's
   moves before looking at a site.  A site is a node (12 families; for
   fission, with a split point), a sibling position (join, reorder) or a
   buffer (reuse_dims, set_storage, reorder_dims). *)
type 'site family = {
  gate : caps -> bool;
  at : caps -> Ir.Prog.t -> 'site -> instance list;
}

let always (_ : caps) = true

(* A node site: the node, its path and the scopes strictly enclosing it,
   innermost first.  The walk that reaches the node builds [above], so
   no rule walks down from the root again to ask about the nest. *)
type site = { path : path; node : node; above : scope list }

(* The number of enclosing scopes: the node's own scope binds [{depth}]. *)
let depth site = List.length site.above

let inside annot site =
  List.exists (fun (sc : scope) -> sc.annot = annot) site.above

(* A sibling position: [siblings.(i)] and its right neighbour in the
   body under [parent] ([[]] for the top level). *)
type sibling = { parent : path; siblings : node array; i : int }

(* ------------------------------------------------------------------ *)
(* split_scope (tiling)                                                *)
(* ------------------------------------------------------------------ *)

(* Splitting the scope at [p] (depth [d], size [n = f * m]) into an outer
   scope of [m] and inner scope of [f].  The old iterator {d} becomes
   f*{d} + {d+1}; deeper references shift by one. *)
let apply_split p depth factor prog =
  Ir.Prog.rewrite_at prog p (fun node ->
      match node with
      | Scope sc when sc.size mod factor = 0 && sc.guard = None ->
          let remap (i : index) =
            Ir.Index.subst
              (fun d ->
                if d = depth then
                  Ir.Index.add
                    (Ir.Index.iter ~coeff:factor depth)
                    (Ir.Index.iter (depth + 1))
                else if d > depth then Ir.Index.iter (d + 1)
                else Ir.Index.iter d)
              i
          in
          let body = List.map (Ir.Prog.node_map_index remap) sc.body in
          [
            Scope
              {
                sc with
                size = sc.size / factor;
                body = [ Scope { size = factor; annot = Seq; ssr = false;
                                 guard = None; body } ];
              };
          ]
      | _ -> not_applicable "split_scope: not applicable")

let split_at (caps : caps) _ site =
  match site.node with
  | Scope sc when sc.guard = None && sc.annot = Seq ->
      let p = site.path and depth = depth site in
      List.fold_left
        (fun acc f ->
          if f > 1 && f < sc.size && sc.size mod f = 0 then
            { move = Moveref.Split (p, f); apply = apply_split p depth f }
            :: acc
          else acc)
        [] caps.split_factors
  | _ -> []

let split = { gate = always; at = split_at }

(* ------------------------------------------------------------------ *)
(* join_scopes (loop fusion)                                           *)
(* ------------------------------------------------------------------ *)

(* Fuses the scope at [p] with the sibling scope that immediately follows
   it (as in Figure 5). *)
let apply_join p prog =
  let parent = match p with [] -> invalid_arg "join" | _ ->
    List.filteri (fun i _ -> i < List.length p - 1) p
  in
  let i = List.nth p (List.length p - 1) in
  let splice nodes =
    match (List.nth_opt nodes i, List.nth_opt nodes (i + 1)) with
    | Some (Scope s1), Some (Scope s2)
      when s1.size = s2.size && s1.annot = Seq && s2.annot = Seq
           && s1.guard = None && s2.guard = None ->
        List.concat
          (List.mapi
             (fun j n ->
               if j = i then [ Scope { s1 with body = s1.body @ s2.body } ]
               else if j = i + 1 then []
               else [ n ])
             nodes)
    | _ -> not_applicable "join_scopes: not applicable"
  in
  if parent = [] then { prog with body = splice prog.body }
  else
    Ir.Prog.rewrite_at prog parent (fun node ->
        match node with
        | Scope sc -> [ Scope { sc with body = splice sc.body } ]
        | Stmt _ -> not_applicable "join_scopes: bad parent")

(* The scope at [parent @ [i]] fuses with its right neighbour; a body's
   depth is its parent path's length. *)
let join_at _ prog { parent; siblings; i } =
  match (siblings.(i), siblings.(i + 1)) with
  | Scope s1, Scope s2
    when s1.size = s2.size && s1.annot = Seq && s2.annot = Seq
         && s1.guard = None && s2.guard = None
         && Dep.fusion_safe prog ~depth:(List.length parent) s1.body s2.body
    ->
      let p = parent @ [ i ] in
      [ { move = Moveref.Join p; apply = apply_join p } ]
  | _ -> []

let join = { gate = always; at = join_at }

(* ------------------------------------------------------------------ *)
(* fission (loop distribution)                                         *)
(* ------------------------------------------------------------------ *)

let apply_fission p k prog =
  Ir.Prog.rewrite_at prog p (fun node ->
      match node with
      | Scope sc when k > 0 && k < List.length sc.body ->
          let part1 = List.filteri (fun j _ -> j < k) sc.body in
          let part2 = List.filteri (fun j _ -> j >= k) sc.body in
          [ Scope { sc with body = part1 }; Scope { sc with body = part2 } ]
      | _ -> not_applicable "fission: not applicable")

(* A fission site is a scope and a split point [k]: each point has a
   dependence check of its own. *)
let fission_at _ prog (site, k) =
  match site.node with
  | Scope sc
    when sc.annot = Seq && sc.guard = None && k > 0
         && k < List.length sc.body ->
      let p = site.path in
      let part1 = List.filteri (fun j _ -> j < k) sc.body in
      let part2 = List.filteri (fun j _ -> j >= k) sc.body in
      if Dep.fission_safe prog ~depth:(depth site) part1 part2 then
        [ { move = Moveref.Fission (p, k); apply = apply_fission p k } ]
      else []
  | _ -> []

let fission = { gate = always; at = fission_at }

(* ------------------------------------------------------------------ *)
(* interchange                                                         *)
(* ------------------------------------------------------------------ *)

(* Swap the scope at [p] with its sole child scope. *)
let apply_interchange p depth prog =
  Ir.Prog.rewrite_at prog p (fun node ->
      match node with
      | Scope outer -> (
          match outer.body with
          | [ Scope inner ] when outer.guard = None && inner.guard = None ->
              let swap (i : index) =
                Ir.Index.subst
                  (fun d ->
                    if d = depth then Ir.Index.iter (depth + 1)
                    else if d = depth + 1 then Ir.Index.iter depth
                    else Ir.Index.iter d)
                  i
              in
              let body = List.map (Ir.Prog.node_map_index swap) inner.body in
              [
                Scope
                  {
                    inner with
                    body = [ Scope { outer with body } ];
                  };
              ]
          | _ -> not_applicable "interchange: not applicable")
      | Stmt _ -> not_applicable "interchange: not applicable")

let interchange_at _ prog site =
  match site.node with
  | Scope outer -> (
      match outer.body with
      | [ Scope inner ]
        when outer.annot = Seq && inner.annot = Seq && outer.guard = None
             && inner.guard = None ->
          let p = site.path and depth = depth site in
          if Dep.interchange_safe prog ~depth inner.body then
            [ { move = Moveref.Interchange p;
                apply = apply_interchange p depth } ]
          else []
      | _ -> [])
  | Stmt _ -> []

let interchange = { gate = always; at = interchange_at }

(* ------------------------------------------------------------------ *)
(* reorder (swap adjacent siblings)                                    *)
(* ------------------------------------------------------------------ *)

let apply_reorder parent i prog =
  let swap nodes =
    if i + 1 >= List.length nodes then not_applicable "reorder: out of range";
    List.mapi
      (fun j n ->
        if j = i then List.nth nodes (i + 1)
        else if j = i + 1 then List.nth nodes i
        else n)
      nodes
  in
  if parent = [] then { prog with body = swap prog.body }
  else
    Ir.Prog.rewrite_at prog parent (fun node ->
        match node with
        | Scope sc -> [ Scope { sc with body = swap sc.body } ]
        | Stmt _ -> not_applicable "reorder: bad parent")

let reorder_at _ prog { parent; siblings; i } =
  if Dep.nodes_independent prog siblings.(i) siblings.(i + 1) then
    [ { move = Moveref.Reorder (parent @ [ i ]);
        apply = apply_reorder parent i } ]
  else []

let reorder = { gate = always; at = reorder_at }

(* ------------------------------------------------------------------ *)
(* Annotation transformations: unroll / vectorize / parallelize / gpu  *)
(* ------------------------------------------------------------------ *)

let set_annot p annot prog =
  Ir.Prog.rewrite_at prog p (fun node ->
      match node with
      | Scope sc -> [ Scope { sc with annot } ]
      | Stmt _ -> not_applicable "set_annot: not a scope")

(* Total code replication an unroll would cause: the scope's own trip
   count times that of every unrolled scope above and below it.  Bounding
   it keeps unrolling realistic (instruction-cache pressure). *)
let unroll_replication site (sc : scope) =
  let enclosing =
    List.fold_left
      (fun acc (s : scope) -> if s.annot = Unroll then acc * s.size else acc)
      1 site.above
  in
  let rec below nodes =
    List.fold_left
      (fun acc n ->
        match n with
        | Scope s -> max acc (if s.annot = Unroll then s.size * below s.body
                              else below s.body)
        | Stmt _ -> acc)
      1 nodes
  in
  enclosing * sc.size * below sc.body

let unroll_at (caps : caps) _ site =
  match site.node with
  | Scope sc
    when sc.annot = Seq && sc.guard = None && sc.size <= caps.max_unroll
         && unroll_replication site sc <= 4 * caps.max_unroll ->
      let p = site.path in
      [ { move = Moveref.Unroll p; apply = set_annot p Unroll } ]
  | _ -> []

let unroll = { gate = always; at = unroll_at }

(* Vectorization applies to an innermost scope whose trip count equals the
   vector width and which wraps a single statement whose accesses are
   either invariant in the loop or contiguous: the iterator appears with
   coefficient 1 and only in the last index dimension (unit stride, since
   the last storage dimension is contiguous).  This mirrors the paper's
   explicit tile-then-vectorize discipline. *)
let vectorizable_stmt (prog : Ir.Prog.t) ~depth (s : stmt) : bool =
  let access_ok (a : access) =
    let b = Ir.Prog.buffer_of_array prog a.array in
    let n = List.length a.idx in
    let ok = ref true in
    List.iteri
      (fun dim i ->
        let c = Ir.Index.coeff_of depth i in
        if c <> 0 then begin
          if dim <> n - 1 || c <> 1 then ok := false;
          (* reused last dimension has stride 0, not contiguous *)
          if List.nth b.reuse dim then ok := false
        end)
      a.idx;
    !ok
  in
  let iterval_free =
    (* no "index as value" of the vector lane (no iota vectors) *)
    let rec go = function
      | IterVal i -> not (Ir.Index.depends_on depth i)
      | Ref _ | Const _ -> true
      | Bin (_, e1, e2) -> go e1 && go e2
      | Un (_, e) -> go e
    in
    go s.rhs
  in
  (* destination must be contiguous in the vector lane (no scalar dst) *)
  let dst_vectorized =
    List.exists (fun i -> Ir.Index.depends_on depth i) s.dst.idx
  in
  iterval_free && dst_vectorized && access_ok s.dst
  && List.for_all access_ok (Ir.Prog.expr_refs s.rhs)

let vectorize_at (caps : caps) prog site =
  match site.node with
  | Scope sc
    when sc.annot = Seq && sc.guard = None && List.mem sc.size caps.vec_lanes
    -> (
      match sc.body with
      | [ Stmt s ] ->
          let p = site.path in
          if vectorizable_stmt prog ~depth:(depth site) s then
            [ { move = Moveref.Vectorize p; apply = set_annot p Vec } ]
          else []
      | _ -> [])
  | _ -> []

let vectorize =
  { gate = (fun caps -> caps.vec_lanes <> []); at = vectorize_at }

(* No enclosing parallel scope (simple nesting discipline). *)
let parallelize_at _ prog site =
  match site.node with
  | Scope sc when sc.annot = Seq && sc.guard = None ->
      let p = site.path in
      if
        (not (inside Par site))
        && Dep.parallel_safe prog ~depth:(depth site) sc.body
      then [ { move = Moveref.Parallelize p; apply = set_annot p Par } ]
      else []
  | _ -> []

let parallelize =
  { gate = (fun caps -> caps.can_parallelize); at = parallelize_at }

(* GPU mapping discipline: grid outermost, block under grid, warp under
   block; each scope mapped at most once; all require iteration
   independence. *)
let gpu_map_at (caps : caps) prog site =
  match site.node with
  | Scope sc when sc.annot = Seq ->
      let p = site.path and depth = depth site in
      let has a = inside a site in
      (* a scope whose subtree already contains a GPU mapping must not be
         mapped itself (blocks don't nest around blocks) *)
      let subtree_mapped =
        let rec go nodes =
          List.exists
            (function
              | Scope s -> s.annot = GpuGrid || s.annot = GpuBlock || go s.body
              | Stmt _ -> false)
            nodes
        in
        go sc.body
      in
      let mk annot label =
        { move = Moveref.Gpu (p, label); apply = set_annot p annot }
      in
      (* grid: iterations must be fully independent (blocks cannot
         cooperate); block: a commutative reduction is allowed — thread
         blocks reduce cooperatively *)
      let acc =
        if
          (not subtree_mapped)
          && (not (has GpuGrid))
          && (not (has GpuBlock))
          && Dep.parallel_safe prog ~depth sc.body
        then [ mk GpuGrid "grid" ]
        else []
      in
      let acc =
        if
          (not subtree_mapped)
          && has GpuGrid
          && (not (has GpuBlock))
          && sc.size <= caps.max_block
          && Dep.parallel_reduction_safe prog ~depth sc.body
        then mk GpuBlock "block" :: acc
        else acc
      in
      (* warp lanes: a small loop inside a block executes across the
         lanes of one warp (cooperative reductions allowed) *)
      if
        (not subtree_mapped)
        && has GpuBlock
        && (not (has GpuWarp))
        && sc.size >= 2 && sc.size <= 64
        && Dep.parallel_reduction_safe prog ~depth sc.body
      then mk GpuWarp "warp" :: acc
      else acc
  | _ -> []

let gpu_map = { gate = (fun caps -> caps.gpu); at = gpu_map_at }

(* ------------------------------------------------------------------ *)
(* unannotate                                                          *)
(* ------------------------------------------------------------------ *)

(* Revert a scope's execution annotation (and SSR streaming) to plain
   sequential execution.  Trivially semantics-preserving; it makes the
   annotation space fully explorable for searches working forward in the
   transformation graph (a misplaced mapping can be moved without
   rewinding history). *)
let apply_unannotate p prog =
  Ir.Prog.rewrite_at prog p (fun node ->
      match node with
      | Scope sc -> [ Scope { sc with annot = Seq; ssr = false } ]
      | Stmt _ -> not_applicable "unannotate: not a scope")

let unannotate_at _ _ site =
  match site.node with
  | Scope sc when sc.annot <> Seq || sc.ssr ->
      let p = site.path in
      [ { move = Moveref.Unannotate p; apply = apply_unannotate p } ]
  | _ -> []

let unannotate = { gate = always; at = unannotate_at }

(* ------------------------------------------------------------------ *)
(* pad_scope                                                           *)
(* ------------------------------------------------------------------ *)

(* Pads the trip count up to the next multiple of [m]; the extra
   iterations are masked (guard), so semantics are trivially preserved.
   On GPU models the cost of the padded iterations is still paid, which
   is exactly the batchnorm trade-off discussed in §4.3. *)
let apply_pad p m prog =
  Ir.Prog.rewrite_at prog p (fun node ->
      match node with
      | Scope sc when sc.guard = None && sc.size mod m <> 0 ->
          let padded = (sc.size + m - 1) / m * m in
          [ Scope { sc with size = padded; guard = Some sc.size } ]
      | _ -> not_applicable "pad_scope: not applicable")

let pad_at (caps : caps) _ site =
  match site.node with
  | Scope sc
    when (sc.annot = Seq || sc.annot = GpuBlock || sc.annot = GpuWarp)
         && sc.guard = None ->
      let p = site.path in
      let multiples =
        if caps.gpu then [ 32; 64 ]
        else if caps.vec_lanes <> [] then caps.vec_lanes
        else [ 4 ]
      in
      List.fold_left
        (fun acc m ->
          if sc.size mod m <> 0 && m > 1 then
            { move = Moveref.Pad (p, m); apply = apply_pad p m } :: acc
          else acc)
        [] multiples
  | _ -> []

let pad = { gate = always; at = pad_at }

(* ------------------------------------------------------------------ *)
(* reuse_dims                                                          *)
(* ------------------------------------------------------------------ *)

let apply_reuse bname dim prog =
  let b = Ir.Prog.buffer_by_name prog bname in
  let reuse = List.mapi (fun i r -> if i = dim then true else r) b.reuse in
  Ir.Prog.replace_buffer prog { b with reuse }

let reuse_dims_at _ prog b =
  List.concat
    (List.mapi
       (fun dim _ ->
         if Dep.reuse_safe prog b ~dim then
           [ { move = Moveref.Reuse_dims (b.bname, dim);
               apply = apply_reuse b.bname dim } ]
         else [])
       b.shape)

let reuse_dims = { gate = always; at = reuse_dims_at }

(* ------------------------------------------------------------------ *)
(* set_storage                                                         *)
(* ------------------------------------------------------------------ *)

let apply_storage bname loc prog =
  let b = Ir.Prog.buffer_by_name prog bname in
  Ir.Prog.replace_buffer prog { b with loc }

(* An interface buffer (an input or output array lives in it) keeps its
   storage and layout. *)
let is_interface (prog : Ir.Prog.t) b =
  List.exists
    (fun a -> List.mem a prog.inputs || List.mem a prog.outputs)
    b.arrays

let set_storage_at (caps : caps) prog b =
  if is_interface prog b then []
  else begin
    let bytes = Ir.Prog.buffer_bytes b in
    let options =
      (if b.loc <> Stack && bytes <= caps.max_stack_bytes then [ Stack ]
       else [])
      @ (if b.loc <> Heap then [ Heap ] else [])
      @ (if caps.gpu && b.loc <> Shared && bytes <= 48 * 1024 then
           [ Shared ]
         else [])
      @ if b.loc <> Register && bytes <= 256 then [ Register ] else []
    in
    List.map
      (fun loc ->
        {
          move = Moveref.Set_storage (b.bname, location_name loc);
          apply = apply_storage b.bname loc;
        })
      options
  end

let set_storage = { gate = always; at = set_storage_at }

(* ------------------------------------------------------------------ *)
(* reorder_buffer_dims (layout transposition)                          *)
(* ------------------------------------------------------------------ *)

let apply_reorder_dims bname perm prog =
  let b = Ir.Prog.buffer_by_name prog bname in
  let permute l = List.map (List.nth l) perm in
  let prog =
    Ir.Prog.replace_buffer prog
      { b with shape = permute b.shape; reuse = permute b.reuse }
  in
  let fix_access (a : access) =
    if List.mem a.array b.arrays then { a with idx = permute a.idx } else a
  in
  {
    prog with
    body =
      List.map
        (fun n ->
          let rec fix = function
            | Stmt s ->
                Stmt
                  {
                    dst = fix_access s.dst;
                    rhs = Ir.Prog.expr_map_access fix_access s.rhs;
                  }
            | Scope sc -> Scope { sc with body = List.map fix sc.body }
          in
          fix n)
        prog.body;
  }

let reorder_dims_at _ prog b =
  let n = List.length b.shape in
  if is_interface prog b || n < 2 then []
  else begin
    (* adjacent-dimension swaps keep the move atomic *)
    let rec swaps i acc =
      if i >= n - 1 then acc
      else
        let perm = List.init n (fun j ->
            if j = i then i + 1 else if j = i + 1 then i else j)
        in
        swaps (i + 1)
          ({
             move = Moveref.Reorder_dims (b.bname, i);
             apply = apply_reorder_dims b.bname perm;
           }
          :: acc)
    in
    swaps 0 []
  end

let reorder_dims = { gate = always; at = reorder_dims_at }

(* ------------------------------------------------------------------ *)
(* Snitch: SSR and FREP                                                *)
(* ------------------------------------------------------------------ *)

let set_ssr p v prog =
  Ir.Prog.rewrite_at prog p (fun node ->
      match node with
      | Scope sc -> [ Scope { sc with ssr = v } ]
      | Stmt _ -> not_applicable "ssr: not a scope")

(* SSR streams at most three iterating operand sequences through stream
   semantic registers; all accesses in the loop body must be affine
   (guaranteed by the IR) and the body must be straight-line code.
   Scalar operands (constant indices) live in ordinary registers and do
   not consume a stream.  A loop already inside a streamed region is not
   offered (the streams are configured once, at the outermost level).
   [all] lists the instances outermost-first so exhaustive passes prefer
   amortizing the stream setup over the largest trip count. *)
let ssr_at _ _ site =
  match site.node with
  | Scope sc
    when (not sc.ssr) && sc.guard = None
         && not (List.exists (fun (s : scope) -> s.ssr) site.above) ->
      (* the streamed loop body must be straight-line code: plain
         statements, possibly through fully unrolled sub-scopes *)
      let rec straightline nodes =
        List.for_all
          (function
            | Stmt _ -> true
            | Scope s -> s.annot = Unroll && straightline s.body)
          nodes
      in
      let streamed_arrays =
        List.sort_uniq compare
          (List.concat_map
             (fun n ->
               List.filter_map
                 (fun ((_ : Ir.Prog.access_kind), (a : access)) ->
                   if List.exists (fun i -> not (Ir.Index.is_const i)) a.idx
                   then Some a.array
                   else None)
                 (Ir.Prog.node_accesses n))
             sc.body)
      in
      if straightline sc.body && List.length streamed_arrays <= 3 then
        [ { move = Moveref.Ssr site.path; apply = set_ssr site.path true } ]
      else []
  | _ -> []

let ssr = { gate = (fun caps -> caps.snitch); at = ssr_at }

(* FREP repeats the floating-point instruction block in hardware;
   requires the loop's memory traffic to flow through SSRs. *)
let frep_at _ _ site =
  match site.node with
  | Scope sc when sc.annot = Seq && sc.ssr && sc.guard = None ->
      let p = site.path in
      [ { move = Moveref.Frep p; apply = set_annot p Frep } ]
  | _ -> []

let frep = { gate = (fun caps -> caps.snitch); at = frep_at }

(* ------------------------------------------------------------------ *)
(* split_reduction (partial accumulators)                              *)
(* ------------------------------------------------------------------ *)

(* A reduction carried by a loop,  S: for i < N { z[I] = z[I] op e },
   serializes on the FP pipeline because every iteration reads the
   previous one's result.  split_reduction introduces [k] partial
   accumulators:

     for j < k         { part[j] = identity(op) }
     for i' < N/k
       for j < k       { part[j] = part[j] op e[i := k*i' + j] }
     for j < k         { z[I] = z[I] op part[j] }

   which is semantics-preserving up to the floating-point reassociation
   inherent to any reduction reordering (validated numerically with
   tolerance, like interchange of reduction loops). *)

let identity_of = function
  | Add -> 0.0
  | Mul -> 1.0
  | Max -> Float.neg_infinity
  | Min -> Float.infinity
  | Sub | Div -> invalid_arg "identity_of: not commutative"

let fresh_buffer_name (prog : Ir.Prog.t) base =
  let taken name =
    List.exists
      (fun (b : buffer) -> b.bname = name || List.mem name b.arrays)
      prog.buffers
  in
  let rec go i =
    let cand = Printf.sprintf "%s__part%s" base
        (if i = 0 then "" else string_of_int i)
    in
    if taken cand then go (i + 1) else cand
  in
  go 0

let apply_split_reduction p depth k prog =
  match Ir.Prog.node_at prog p with
  | Scope sc when sc.size mod k = 0 && sc.guard = None -> (
      match sc.body with
      | [ Stmt s ] -> (
          let decompose = function
            | Bin (op, Ref a, e)
              when a.array = s.dst.array
                   && List.for_all2 Ir.Index.equal a.idx s.dst.idx ->
                Some (op, a, e)
            | Bin (op, e, Ref a)
              when a.array = s.dst.array
                   && List.for_all2 Ir.Index.equal a.idx s.dst.idx ->
                Some (op, a, e)
            | _ -> None
          in
          match decompose s.rhs with
          | Some (op, a, e) -> (
              let dstbuf = Ir.Prog.buffer_of_array prog s.dst.array in
              let pname = fresh_buffer_name prog s.dst.array in
              let part =
                Ir.Types.buffer ~loc:Stack pname dstbuf.dtype [ k ]
              in
              (* main nest: old {depth} -> k*{depth} + {depth+1}; deeper
                 refs cannot occur (single-stmt innermost loop may still
                 have deeper refs if e used only shallower ones) *)
              let remap (i : index) =
                Ir.Index.subst
                  (fun d ->
                    if d = depth then
                      Ir.Index.add
                        (Ir.Index.iter ~coeff:k depth)
                        (Ir.Index.iter (depth + 1))
                    else if d > depth then Ir.Index.iter (d + 1)
                    else Ir.Index.iter d)
                  i
              in
              let e' = Ir.Prog.expr_map_index remap e in
              let part_acc j : access =
                { array = pname; idx = [ Ir.Index.iter j ] }
              in
              let init =
                Scope
                  {
                    size = k; annot = Seq; ssr = false; guard = None;
                    body =
                      [ Stmt { dst = part_acc depth;
                               rhs = Const (identity_of op) } ];
                  }
              in
              let main =
                Scope
                  {
                    sc with
                    size = sc.size / k;
                    body =
                      [
                        Scope
                          {
                            size = k; annot = Seq; ssr = false; guard = None;
                            body =
                              [
                                Stmt
                                  {
                                    dst = part_acc (depth + 1);
                                    rhs =
                                      Bin (op, Ref (part_acc (depth + 1)), e');
                                  };
                              ];
                          };
                      ];
                  }
              in
              let combine =
                Scope
                  {
                    size = k; annot = Seq; ssr = false; guard = None;
                    body =
                      [
                        Stmt
                          {
                            dst = s.dst;
                            rhs = Bin (op, Ref { a with idx = s.dst.idx },
                                       Ref (part_acc depth));
                          };
                      ];
                  }
              in
              let prog =
                { prog with buffers = prog.buffers @ [ part ] }
              in
              Ir.Prog.rewrite_at prog p (fun _ -> [ init; main; combine ]))
          | None -> not_applicable "split_reduction: not a commutative reduction")
      | _ -> not_applicable "split_reduction: body must be a single statement")
  | _ -> not_applicable "split_reduction: not applicable"

let split_reduction_at (caps : caps) _ site =
  match site.node with
  | Scope sc when sc.annot = Seq && sc.guard = None -> (
      match sc.body with
      | [ Stmt s ] -> (
          let p = site.path and depth = depth site in
          let is_acc (a : access) =
            a.array = s.dst.array
            && List.length a.idx = List.length s.dst.idx
            && List.for_all2 Ir.Index.equal a.idx s.dst.idx
          in
          let candidate =
            match s.rhs with
            | Bin ((Add | Mul | Max | Min), Ref a, e) when is_acc a -> Some e
            | Bin ((Add | Mul | Max | Min), e, Ref a) when is_acc a -> Some e
            | _ -> None
          in
          match candidate with
          | Some e
            when (not
                    (List.exists
                       (fun i -> Ir.Index.depends_on depth i)
                       s.dst.idx))
                 && not
                      (List.exists
                         (fun (r : access) -> r.array = s.dst.array)
                         (Ir.Prog.expr_refs e)) ->
              List.fold_left
                (fun acc k ->
                  if sc.size mod k = 0 && sc.size > k then
                    {
                      move = Moveref.Split_reduction (p, k);
                      apply = apply_split_reduction p depth k;
                    }
                    :: acc
                  else acc)
                [] caps.reduction_split
          | Some _ | None -> [])
      | _ -> [])
  | _ -> []

let split_reduction =
  { gate = (fun caps -> caps.reduction_split <> []); at = split_reduction_at }

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

(* Every node, outer before inner and in order (the order of
   [Ir.Prog.fold_nodes]), each site's instances in front of the earlier
   sites'.  Each site is built from its parent's. *)
let over_nodes at (prog : Ir.Prog.t) =
  let rec visit acc above prefix i = function
    | [] -> acc
    | node :: rest ->
        let site = { path = prefix @ [ i ]; node; above } in
        let acc = at site @ acc in
        let acc =
          match node with
          | Scope sc -> visit acc (sc :: above) site.path 0 sc.body
          | Stmt _ -> acc
        in
        visit acc above prefix (i + 1) rest
  in
  visit [] [] [] 0 prog.body

(* [over_nodes] reversed: a site offers at most one ssr instance, so the
   outermost site's comes first. *)
let outermost_first at prog = List.rev (over_nodes at prog)

(* Every split point [1 .. length - 1] of every scope body, in node
   order, each point's instances in front of the earlier points'. *)
let over_points at prog =
  over_nodes
    (fun site ->
      let points =
        match site.node with Scope sc -> List.length sc.body - 1 | Stmt _ -> 0
      in
      List.fold_left
        (fun acc k -> at (site, k) @ acc)
        [] (List.init (max 0 points) succ))
    prog

(* Every sibling position with a right neighbour: the top level's, then
   each scope body's in node order, each site's instances in front of
   the earlier sites' (so an inner body's pairs come first). *)
let over_siblings at (prog : Ir.Prog.t) =
  let visit parent body =
    let siblings = Array.of_list body in
    let acc = ref [] in
    for i = 0 to Array.length siblings - 2 do
      acc := at { parent; siblings; i } @ !acc
    done;
    !acc
  in
  over_nodes
    (fun site ->
      match site.node with
      | Scope sc -> visit site.path sc.body
      | Stmt _ -> [])
    prog
  @ visit [] prog.body

(* Every buffer, in declaration order. *)
let over_buffers at (prog : Ir.Prog.t) = List.concat_map at prog.buffers

(* A family's instances in [all]: none, without a walk, when its gate is
   off; otherwise [over]'s walk of its sites, which fixes their order. *)
let walk over fam caps prog =
  if fam.gate caps then over (fam.at caps prog) prog else []

let families =
  [
    walk over_nodes split; walk over_siblings join; walk over_points fission;
    walk over_nodes interchange; walk over_siblings reorder;
    walk over_nodes unroll; walk over_nodes vectorize;
    walk over_nodes parallelize; walk over_nodes gpu_map; walk over_nodes pad;
    walk over_nodes unannotate; walk over_buffers reuse_dims;
    walk over_buffers set_storage; walk over_buffers reorder_dims;
    walk over_nodes split_reduction; walk outermost_first ssr;
    walk over_nodes frep;
  ]

(* The action set of the game: every family's instances, then whatever
   macro-moves the capabilities carry (appended last so atomic
   enumeration order — and hence recorded schedules — is unchanged when
   no composites are on). *)
let all (caps : caps) (prog : Ir.Prog.t) : instance list =
  List.fold_right (fun family acc -> family caps prog @ acc) families
    (caps.extra prog)

(* The site at [p], built by one walk down the path; [None] wherever
   [Ir.Prog.node_at] raises. *)
let site_at (prog : Ir.Prog.t) p =
  let rec go above nodes = function
    | [] -> None
    | i :: rest -> (
        match ((if i < 0 then None else List.nth_opt nodes i), rest) with
        | Some node, [] -> Some { path = p; node; above }
        | Some (Scope sc), _ -> go (sc :: above) sc.body rest
        | (Some (Stmt _) | None), _ -> None)
  in
  go [] prog.body p

(* The sibling position whose left node is at [p]. *)
let sibling_at (prog : Ir.Prog.t) p =
  match List.rev p with
  | [] -> None
  | i :: rev_parent -> (
      let parent = List.rev rev_parent in
      let body =
        match parent with
        | [] -> Some prog.body
        | _ -> (
            match Ir.Prog.node_at prog parent with
            | Scope sc -> Some sc.body
            | Stmt _ -> None
            | exception Ir.Prog.Invalid_path _ -> None)
      in
      match body with
      | Some body when i >= 0 && i < List.length body - 1 ->
          Some { parent; siblings = Array.of_list body; i }
      | Some _ | None -> None)

(* A family's instances at the site a move names: none when its gate is
   off, which is checked first, or when the site does not exist. *)
let at_node fam caps prog p =
  match if fam.gate caps then site_at prog p else None with
  | Some site -> fam.at caps prog site
  | None -> []

let at_point fam caps prog p k =
  match if fam.gate caps then site_at prog p else None with
  | Some site -> fam.at caps prog (site, k)
  | None -> []

let at_sibling fam caps prog p =
  match if fam.gate caps then sibling_at prog p else None with
  | Some sibling -> fam.at caps prog sibling
  | None -> []

let at_buffer fam caps (prog : Ir.Prog.t) name =
  if fam.gate caps then
    List.concat_map (fam.at caps prog)
      (List.filter (fun (b : buffer) -> b.bname = name) prog.buffers)
  else []

(* The instances offered at a move's site, in [all]'s order.  Each atomic
   constructor is emitted by exactly one family, and a move names its
   site, so the first match here is the first match in [all]; [extra]
   offers only [Composite] moves. *)
let sites (caps : caps) prog : Moveref.t -> instance list = function
  | Split (p, _) -> at_node split caps prog p
  | Join p -> at_sibling join caps prog p
  | Fission (p, k) -> at_point fission caps prog p k
  | Interchange p -> at_node interchange caps prog p
  | Reorder p -> at_sibling reorder caps prog p
  | Unroll p -> at_node unroll caps prog p
  | Vectorize p -> at_node vectorize caps prog p
  | Parallelize p -> at_node parallelize caps prog p
  | Gpu (p, _) -> at_node gpu_map caps prog p
  | Pad (p, _) -> at_node pad caps prog p
  | Unannotate p -> at_node unannotate caps prog p
  | Reuse_dims (b, _) -> at_buffer reuse_dims caps prog b
  | Set_storage (b, _) -> at_buffer set_storage caps prog b
  | Reorder_dims (b, _) -> at_buffer reorder_dims caps prog b
  | Split_reduction (p, _) -> at_node split_reduction caps prog p
  | Ssr p -> at_node ssr caps prog p
  | Frep p -> at_node frep caps prog p
  | Composite _ -> caps.extra prog

let resolve_move ?(filter = fun (_ : instance) -> true) caps prog m =
  first_match ~filter m (sites caps prog m)

let resolve ?filter caps prog name =
  Option.bind (named name) (resolve_move ?filter caps prog)
