(* Reference canonicalizer for test_canon's oracle property:
   lib/canon/canon.ml as it was before each node was printed once per
   pass, kept verbatim below this header.  It prints through
   Printer_oracle, the printer of the same vintage. *)
module Ir = struct
  include Ir
  module Printer = Printer_oracle
end

(* Canonicalization of scheduled programs (see canon.mli for the
   contract).

   The passes run in an order chosen so that each one's decisions are
   invariant under the incidental differences the later passes erase:

   1. commutative operand sort + sibling sort, both keyed on a printed
      form with every non-interface array name replaced by "@" — so two
      alpha-variants of the same program make identical decisions;
   2. alpha-renaming of non-interface arrays, ordered by a structural
      occurrence signature (also name-erased) so the numbering does not
      depend on the incidental sibling order the input arrived in;
   3. a second sibling sort on the full renamed text, to break ties the
      erased keys could not see;
   4. buffer declarations sorted by canonical name.

   Every sibling swap is guarded by Dep.nodes_independent — exactly the
   reorder move's safety condition — so the canonical program is
   semantically equal to (and reachable by legal moves from) the
   input. *)

open Ir.Types
module SS = Set.Make (String)
module SM = Map.Make (String)

let version = 1

(* ------------------------------------------------------------------ *)
(* Interface arrays                                                    *)
(* ------------------------------------------------------------------ *)

let io_set (p : Ir.Prog.t) : SS.t =
  List.fold_left (fun s a -> SS.add a s) SS.empty (p.inputs @ p.outputs)

(* ------------------------------------------------------------------ *)
(* Name-erased printed keys                                            *)
(* ------------------------------------------------------------------ *)

let erase_access io (a : access) =
  if SS.mem a.array io then a else { a with array = "@" }

let rec erase_expr io (e : expr) =
  match e with
  | Ref a -> Ref (erase_access io a)
  | Bin (op, a, b) -> Bin (op, erase_expr io a, erase_expr io b)
  | Un (op, a) -> Un (op, erase_expr io a)
  | (IterVal _ | Const _) as e -> e

let rec erase_node io (n : node) =
  match n with
  | Stmt s -> Stmt { dst = erase_access io s.dst; rhs = erase_expr io s.rhs }
  | Scope sc -> Scope { sc with body = List.map (erase_node io) sc.body }

let expr_key io e = Ir.Printer.expr_str (erase_expr io e)

(* Printed text of a single node subtree.  Printer.body only takes a
   whole program; a one-node body borrows the surrounding program. *)
let node_text (p : Ir.Prog.t) n = Ir.Printer.body { p with body = [ n ] }
let node_key io p n = node_text p (erase_node io n)

(* ------------------------------------------------------------------ *)
(* Pass 1a: commutative operand order                                  *)
(* ------------------------------------------------------------------ *)

let rec canon_expr_by keyf (e : expr) =
  match e with
  | Bin (((Add | Mul | Max | Min) as op), a, b) ->
      let a = canon_expr_by keyf a and b = canon_expr_by keyf b in
      if String.compare (keyf b) (keyf a) < 0 then Bin (op, b, a)
      else Bin (op, a, b)
  | Bin (op, a, b) -> Bin (op, canon_expr_by keyf a, canon_expr_by keyf b)
  | Un (op, a) -> Un (op, canon_expr_by keyf a)
  | (Ref _ | IterVal _ | Const _) as e -> e

let canon_expr io e = canon_expr_by (expr_key io) e

(* ------------------------------------------------------------------ *)
(* Sibling sort                                                        *)
(* ------------------------------------------------------------------ *)

(* Bubble sort constrained to provably-independent adjacent pairs.
   Each accepted swap removes exactly one key inversion, so the loop
   terminates; each is a legal reorder move, so semantics are
   preserved.  [prog] supplies buffer/aliasing information only — the
   independence check never looks at the surrounding body. *)
let sort_siblings ~key prog nodes =
  let arr = Array.of_list nodes in
  let keys = Array.map key arr in
  let n = Array.length arr in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 2 do
      if
        String.compare keys.(i + 1) keys.(i) < 0
        && Transform.Dep.nodes_independent prog arr.(i) arr.(i + 1)
      then begin
        let t = arr.(i) in
        arr.(i) <- arr.(i + 1);
        arr.(i + 1) <- t;
        let t = keys.(i) in
        keys.(i) <- keys.(i + 1);
        keys.(i + 1) <- t;
        changed := true
      end
    done
  done;
  Array.to_list arr

let rec sort_body ~key prog nodes =
  let nodes =
    List.map
      (fun n ->
        match n with
        | Stmt _ -> n
        | Scope sc -> Scope { sc with body = sort_body ~key prog sc.body })
      nodes
  in
  sort_siblings ~key prog nodes

(* ------------------------------------------------------------------ *)
(* Pass 2: alpha-renaming of non-interface arrays                      *)
(* ------------------------------------------------------------------ *)

(* Occurrence signature of an array: the multiset of name-erased local
   contexts it appears in.  A context is the ancestor scope-header
   chain, the erased statement text, and the role path inside the
   statement ("d" for destination, an operand path inside the rhs).
   Signatures are invariant under alpha-renaming (erased) and under
   sibling reorder (no sibling positions enter the context), so the
   numbering they induce is stable across the spellings we collapse. *)
let occurrence_signatures io (body : node list) :
    string list SM.t * int SM.t =
  let sigs = ref SM.empty in
  let first_use = ref SM.empty in
  let counter = ref 0 in
  let note_use a =
    if not (SS.mem a io) then
      if not (SM.mem a !first_use) then begin
        first_use := SM.add a !counter !first_use;
        incr counter
      end
  in
  let note_sig a ctx =
    if not (SS.mem a io) then
      sigs :=
        SM.update a
          (function None -> Some [ ctx ] | Some l -> Some (ctx :: l))
          !sigs
  in
  let rec walk chain nodes =
    List.iter
      (fun n ->
        match n with
        | Scope sc -> walk (Ir.Printer.scope_header sc :: chain) sc.body
        | Stmt s ->
            let ctx =
              String.concat "|" (List.rev chain)
              ^ "#"
              ^ Ir.Printer.stmt_str
                  {
                    dst = erase_access io s.dst;
                    rhs = erase_expr io s.rhs;
                  }
            in
            note_use s.dst.array;
            note_sig s.dst.array (ctx ^ "#d");
            let rec go path e =
              match e with
              | Ref a ->
                  note_use a.array;
                  note_sig a.array (ctx ^ "#" ^ path)
              | Bin (_, x, y) ->
                  go (path ^ "0") x;
                  go (path ^ "1") y
              | Un (_, x) -> go (path ^ "u") x
              | IterVal _ | Const _ -> ()
            in
            go "r" s.rhs)
      nodes
  in
  walk [] body;
  let sigs =
    SM.map
      (fun l -> List.sort String.compare l)
      !sigs
  in
  (sigs, !first_use)

(* Canonical name for slot [i], avoiding collision with any name we are
   not renaming. *)
let fresh_name taken i =
  let rec go c = if SS.mem c taken then go ("_" ^ c) else c in
  go (Printf.sprintf "_c%d" i)

let renaming io (p : Ir.Prog.t) : string SM.t =
  (* every non-interface array, whether or not the body references it *)
  let decl_order = ref SM.empty in
  let counter = ref 0 in
  List.iter
    (fun (b : buffer) ->
      List.iter
        (fun a ->
          if (not (SS.mem a io)) && not (SM.mem a !decl_order) then begin
            decl_order := SM.add a !counter !decl_order;
            incr counter
          end)
        (b.bname :: b.arrays))
    p.buffers;
  let sigs, first_use = occurrence_signatures io p.body in
  let arrays = SM.bindings !decl_order |> List.map fst in
  let key a =
    let s =
      match SM.find_opt a sigs with
      | Some l -> String.concat "\x00" l
      | None -> "" (* declared but unused: sorts first, decl order ties *)
    in
    let use =
      match SM.find_opt a first_use with
      | Some i -> i
      | None -> max_int
    in
    (s, use, SM.find a !decl_order)
  in
  let ordered =
    List.sort
      (fun a b -> compare (key a) (key b))
      arrays
  in
  let taken = io in
  List.fold_left
    (fun (m, i) a -> (SM.add a (fresh_name taken i) m, i + 1))
    (SM.empty, 0) ordered
  |> fst

let rename m name =
  match SM.find_opt name m with Some n -> n | None -> name

let rename_access m (a : access) = { a with array = rename m a.array }

let rec rename_expr m (e : expr) =
  match e with
  | Ref a -> Ref (rename_access m a)
  | Bin (op, a, b) -> Bin (op, rename_expr m a, rename_expr m b)
  | Un (op, a) -> Un (op, rename_expr m a)
  | (IterVal _ | Const _) as e -> e

let rec rename_node m (n : node) =
  match n with
  | Stmt s ->
      Stmt { dst = rename_access m s.dst; rhs = rename_expr m s.rhs }
  | Scope sc -> Scope { sc with body = List.map (rename_node m) sc.body }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let rec map_stmts f nodes =
  List.map
    (fun n ->
      match n with
      | Stmt s -> Stmt (f s)
      | Scope sc -> Scope { sc with body = map_stmts f sc.body })
    nodes

let canonicalize (p : Ir.Prog.t) : Ir.Prog.t =
  let io = io_set p in
  (* pass 1: commutative operands, then erased-key sibling sort *)
  let body =
    map_stmts (fun s -> { s with rhs = canon_expr io s.rhs }) p.body
  in
  let body = sort_body ~key:(node_key io p) p body in
  (* pass 2: alpha-rename by structural signature *)
  let m = renaming io { p with body } in
  let body = List.map (rename_node m) body in
  let buffers =
    p.buffers
    |> List.map (fun (b : buffer) ->
           {
             b with
             bname = rename m b.bname;
             arrays = List.map (rename m) b.arrays;
           })
    |> List.stable_sort (fun (a : buffer) b ->
           String.compare a.bname b.bname)
  in
  (* pass 3: re-sort on the full renamed text — first commutative
     operands (the erased keys of pass 1 cannot order two distinct
     temporaries with identical access shapes, e.g. [_c1[i] * _c2[i]]),
     then siblings.  The independence checks must see the renamed
     buffer table. *)
  let body =
    map_stmts
      (fun s -> { s with rhs = canon_expr_by Ir.Printer.expr_str s.rhs })
      body
  in
  let renamed = { p with buffers; body } in
  let body = sort_body ~key:(node_text renamed) renamed body in
  { renamed with body }

let fingerprint (p : Ir.Prog.t) : string =
  let canonical = canonicalize p in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "perfdojo-canon-%d\n%s" version
          (Ir.Printer.program canonical)))

let equal a b = String.equal (fingerprint a) (fingerprint b)
