(* Reference dependence rules for test_transform's Dep oracle property:
   lib/transform/dep.ml as it was before alias classes, kept verbatim
   below this header.  Every check compares every pair of a subtree's
   accesses, and every pair looks up both arrays' buffers by scanning
   the buffer list (the earlier [Ir.Prog.buffer_of_array] and
   [Ir.Prog.arrays_alias], inlined here as [Ir.Prog] below).  The
   property checks the live [Transform.Dep] against these rules at every
   site of seeded walks, including walks whose programs alias two arrays
   in one buffer. *)
module Ir = struct
  include Ir

  module Prog = struct
    include Prog

    let buffer_of_array (prog : t) (arr : string) : Types.buffer =
      match
        List.find_opt (fun (b : Types.buffer) -> List.mem arr b.arrays)
          prog.buffers
      with
      | Some b -> b
      | None -> invalid_arg (Printf.sprintf "unknown array %S" arr)

    let arrays_alias (prog : t) a1 a2 =
      a1 = a2
      || (buffer_of_array prog a1).bname = (buffer_of_array prog a2).bname
  end
end

(* Dependency analysis underpinning transformation applicability (§2.2).

   The rules here are deliberately conservative: a transformation is only
   offered at a location when these checks *prove* semantic preservation.
   The test suite empirically validates the rules by numerically comparing
   every transformed program against its original, exactly as the paper
   does. *)

open Ir.Types

(* ------------------------------------------------------------------ *)
(* Access classification                                               *)
(* ------------------------------------------------------------------ *)

(* [same_component ~depth a1 a2]: both accesses must address the same
   array; holds when, for every dimension, the coefficient of iterator
   [{depth}] is identical in both accesses, at least one dimension carries
   the iterator, and every dimension that carries it has a fully identical
   index expression.  Under this condition, iteration [i] of the loop at
   [depth] touches exactly the same element set through both accesses, so
   the dependence distance along that loop is zero. *)
let same_component ~depth (a1 : access) (a2 : access) : bool =
  a1.array = a2.array
  && List.length a1.idx = List.length a2.idx
  && begin
       let depends = ref false in
       List.for_all2
         (fun i1 i2 ->
           let c1 = Ir.Index.coeff_of depth i1
           and c2 = Ir.Index.coeff_of depth i2 in
           if c1 <> c2 then false
           else if c1 <> 0 then begin
             depends := true;
             Ir.Index.equal i1 i2
           end
           else true)
         a1.idx a2.idx
       && !depends
     end

(* A statement of the form  z[I] = z[I] (+|*|max|min) e  where [e] does not
   reference z[I]: reordering the iterations of a reduction loop only
   permutes the applications of an associative-commutative operator, which
   we accept up to floating-point rounding (validated numerically with
   tolerance, as in the paper). *)
let is_commutative_reduction (s : stmt) : bool =
  let dst = s.dst in
  let refs_dst e =
    List.exists
      (fun (a : access) -> a.array = dst.array)
      (Ir.Prog.expr_refs e)
  in
  match s.rhs with
  | Bin ((Add | Mul | Max | Min), Ref a, e) ->
      a.array = dst.array
      && List.for_all2 Ir.Index.equal a.idx dst.idx
      && not (refs_dst e)
  | Bin ((Add | Mul | Max | Min), e, Ref a) ->
      a.array = dst.array
      && List.for_all2 Ir.Index.equal a.idx dst.idx
      && not (refs_dst e)
  | _ -> false

(* The *storage-effective* index vector of an access: a reused ([:N])
   buffer dimension has storage extent 1, so whatever the logical index
   says, every iteration hits the same slot.  All dependence reasoning
   must happen on these effective indices — this is what makes the
   analyses stay sound after reuse_dims has been applied. *)
let effective (prog : Ir.Prog.t) (a : access) : access =
  let b = Ir.Prog.buffer_of_array prog a.array in
  {
    a with
    idx = List.map2 (fun i r -> if r then Ir.Index.zero else i) a.idx b.reuse;
  }

(* All (kind, effective access, stmt, order) tuples in a node list, in
   execution (document) order. *)
let ordered_accesses (prog : Ir.Prog.t) (nodes : node list) :
    (Ir.Prog.access_kind * access * stmt * int) list =
  let counter = ref 0 in
  let rec go nodes acc =
    List.fold_left
      (fun acc n ->
        match n with
        | Stmt s ->
            let o = !counter in
            incr counter;
            List.fold_left
              (fun acc (k, a) -> (k, effective prog a, s, o) :: acc)
              acc (Ir.Prog.stmt_accesses s)
        | Scope sc -> go sc.body acc)
      acc nodes
  in
  List.rev (go nodes [])

let accesses_conflict (prog : Ir.Prog.t) k1 (a1 : access) k2 (a2 : access) =
  (k1 = Ir.Prog.Write || k2 = Ir.Prog.Write)
  && Ir.Prog.arrays_alias prog a1.array a2.array

(* ------------------------------------------------------------------ *)
(* Legality rules                                                      *)
(* ------------------------------------------------------------------ *)

(* Two sibling nodes can be swapped when no array is written by one and
   accessed by the other (including aliasing through shared buffers). *)
let nodes_independent (prog : Ir.Prog.t) (n1 : node) (n2 : node) : bool =
  let acc1 = Ir.Prog.node_accesses n1 and acc2 = Ir.Prog.node_accesses n2 in
  not
    (List.exists
       (fun (k1, a1) ->
         List.exists (fun (k2, a2) -> accesses_conflict prog k1 a1 k2 a2) acc2)
       acc1)

(* Fusing two sibling scopes at [depth] interleaves their iterations.
   Safe when every conflicting access pair between the two bodies moves in
   lockstep along the fused iterator ([same_component]), so iteration [i]
   of the second body only touches data produced at iteration [i] of the
   first. *)
let fusion_safe (prog : Ir.Prog.t) ~depth (body1 : node list)
    (body2 : node list) : bool =
  let acc1 = ordered_accesses prog body1 and acc2 = ordered_accesses prog body2 in
  List.for_all
    (fun (k1, a1, _, _) ->
      List.for_all
        (fun (k2, a2, _, _) ->
          (not (accesses_conflict prog k1 a1 k2 a2))
          || same_component ~depth a1 a2)
        acc2)
    acc1

(* Loop fission is governed by the same zero-distance condition between
   the separated parts. *)
let fission_safe = fusion_safe

(* Interchange of a scope at [depth] with its immediate child at
   [depth+1].  Every conflicting access pair within the subtree must
   either move in lockstep along BOTH loops, or arise from a
   commutative reduction statement, or be an intra-iteration
   write-then-read of a location invariant in both loops (program order
   is preserved by interchange). *)
let interchange_safe (prog : Ir.Prog.t) ~depth (subtree : node list) : bool =
  let accs = ordered_accesses prog subtree in
  let pair_ok (k1, a1, s1, o1) (k2, a2, s2, o2) =
    if not (accesses_conflict prog k1 a1 k2 a2) then true
    else if a1.array <> a2.array then false (* conservative on aliases *)
    else begin
      let dep_on d =
        same_component ~depth:d a1 a2
      in
      let invariant_both =
        List.for_all
          (fun (a : access) ->
            List.for_all
              (fun i ->
                (not (Ir.Index.depends_on depth i))
                && not (Ir.Index.depends_on (depth + 1) i))
              a.idx)
          [ a1; a2 ]
      in
      let same_stmt = o1 = o2 in
      if same_stmt then
        (* write/read within a single statement: fine when the statement
           is a commutative reduction or the access pair is identical *)
        is_commutative_reduction s1
        || List.for_all2 Ir.Index.equal a1.idx a2.idx
      else if invariant_both then
        (* location untouched by either loop: safe when, per iteration,
           the write precedes the read (document order preserved), and
           writes are unconditional; reject read-before-write (dependent
           iteration patterns) *)
        (match (k1, k2) with
        | Ir.Prog.Write, Ir.Prog.Read -> o1 < o2
        | Ir.Prog.Read, Ir.Prog.Write -> o2 < o1
        | Ir.Prog.Write, Ir.Prog.Write ->
            (* last write wins; (size-1, size-1) is last in both orders *)
            List.for_all2 Ir.Index.equal a1.idx a2.idx
        | Ir.Prog.Read, Ir.Prog.Read -> true)
      else
        (* must move in lockstep along both interchanged loops, or be a
           reduction carried by one of them *)
        (dep_on depth || is_commutative_reduction s1 || is_commutative_reduction s2)
        && (dep_on (depth + 1)
           || is_commutative_reduction s1
           || is_commutative_reduction s2)
    end
  in
  List.for_all (fun p1 -> List.for_all (fun p2 -> pair_ok p1 p2) accs) accs

(* A loop at [depth] can be executed in parallel when conflicting access
   pairs inside its body always target iteration-private data: every
   conflicting pair must move in lockstep along the loop
   ([same_component] implies each iteration touches a disjoint slice). *)
let parallel_safe (prog : Ir.Prog.t) ~depth (body : node list) : bool =
  let accs = ordered_accesses prog body in
  List.for_all
    (fun (k1, a1, _, _) ->
      List.for_all
        (fun (k2, a2, _, _) ->
          (not (accesses_conflict prog k1 a1 k2 a2))
          || same_component ~depth a1 a2)
        accs)
    accs

(* GPU thread blocks can execute commutative reductions cooperatively
   (tree reduction in shared memory / warp shuffles), so block mapping
   additionally tolerates conflicts that arise from a single commutative
   reduction statement updating a loop-invariant accumulator.  Validated
   numerically with tolerance, like any reordering of a reduction. *)
let parallel_reduction_safe (prog : Ir.Prog.t) ~depth (body : node list) :
    bool =
  let accs = ordered_accesses prog body in
  List.for_all
    (fun (k1, a1, s1, o1) ->
      List.for_all
        (fun (k2, a2, s2, o2) ->
          (not (accesses_conflict prog k1 a1 k2 a2))
          || same_component ~depth a1 a2
          || (o1 = o2 && is_commutative_reduction s1)
          || (is_commutative_reduction s1 && is_commutative_reduction s2
             && s1 == s2))
        accs)
    accs

(* ------------------------------------------------------------------ *)
(* reuse_dims legality                                                 *)
(* ------------------------------------------------------------------ *)

(* Collapsing dimension [dim] of [buf] to storage extent 1 is safe when:
   - no array of the buffer is a program input or output;
   - every access to the buffer indexes [dim] with exactly [{d}] for a
     single common depth [d], all under the same scope node (so distinct
     iterations of that scope are the only users of distinct slices); and
   - within the scope body, the first access in document order is a
     write (no iteration observes a stale value from the previous one).
   This is precisely the Figure-5 situation: legal after fusion, illegal
   before. *)
let reuse_safe (prog : Ir.Prog.t) (buf : buffer) ~(dim : int) : bool =
  let is_io a = List.mem a prog.inputs || List.mem a prog.outputs in
  if List.exists is_io buf.arrays then false
  else if dim < 0 || dim >= List.length buf.shape then false
  else if List.nth buf.reuse dim then false (* already reused *)
  else begin
    (* collect accesses to the buffer with the path of their stmt *)
    let hits = ref [] in
    let order = ref 0 in
    Ir.Prog.iter_nodes
      (fun path node ->
        match node with
        | Stmt s ->
            let o = !order in
            incr order;
            List.iter
              (fun (k, (a : access)) ->
                if List.mem a.array buf.arrays then
                  hits := (k, a, path, o) :: !hits)
              (Ir.Prog.stmt_accesses s)
        | Scope _ -> ())
      prog;
    let hits = List.rev !hits in
    match hits with
    | [] -> false (* dead buffer: nothing gained, skip *)
    | (_, a0, p0, _) :: _ -> (
        match List.nth_opt a0.idx dim with
        | None -> false
        | Some i0 -> (
            match (i0.terms, i0.offset) with
            | [ (1, d) ], 0 ->
                (* every access must use exactly {d} at [dim] *)
                let plain_d (a : access) =
                  match List.nth_opt a.idx dim with
                  | Some { terms = [ (1, d') ]; offset = 0 } -> d' = d
                  | _ -> false
                in
                (* the scope ancestor at depth d must be the same node:
                   compare the path prefix that addresses it *)
                let scope_prefix path =
                  (* prefix of [path] containing the first (d+1) scope
                     ancestors *)
                  let rec go nodes path acc scopes_seen =
                    match path with
                    | [] -> None
                    | i :: rest -> (
                        match List.nth_opt nodes i with
                        | Some (Scope s) ->
                            if scopes_seen = d then Some (List.rev (i :: acc))
                            else go s.body rest (i :: acc) (scopes_seen + 1)
                        | _ -> None)
                  in
                  go prog.body path [] 0
                in
                let prefix0 = scope_prefix p0 in
                (* the scope whose iterations will share the collapsed
                   slot must execute sequentially: collapsing a dimension
                   indexed by a parallel or vectorized scope would be a
                   data race *)
                let scope_sequential =
                  match prefix0 with
                  | None -> false
                  | Some pref -> (
                      match Ir.Prog.node_at prog pref with
                      | Scope sc -> (
                          match sc.annot with
                          | Seq | Unroll | Frep -> true
                          | Par | Vec | GpuGrid | GpuBlock | GpuWarp -> false)
                      | Stmt _ -> false)
                in
                prefix0 <> None && scope_sequential
                && List.for_all
                     (fun (_, a, p, _) ->
                       plain_d a && scope_prefix p = prefix0)
                     hits
                && (match hits with
                   | (Ir.Prog.Write, _, _, _) :: _ -> true
                   | _ -> false)
            | _ -> false))
  end
