(* Program-level utilities: tree traversal by path, expression iteration,
   access collection, buffer lookup, and bulk index rewriting.  These are
   the primitives every transformation is written in terms of. *)

open Types

type t = program

exception Invalid_path of path

(* ------------------------------------------------------------------ *)
(* Expression utilities                                                *)
(* ------------------------------------------------------------------ *)

let rec expr_fold_refs f acc = function
  | Ref a -> f acc a
  | IterVal _ | Const _ -> acc
  | Bin (_, e1, e2) -> expr_fold_refs f (expr_fold_refs f acc e1) e2
  | Un (_, e) -> expr_fold_refs f acc e

let expr_refs e = List.rev (expr_fold_refs (fun acc a -> a :: acc) [] e)

let rec expr_map_access f = function
  | Ref a -> Ref (f a)
  | IterVal i -> IterVal i
  | Const c -> Const c
  | Bin (op, e1, e2) -> Bin (op, expr_map_access f e1, expr_map_access f e2)
  | Un (op, e) -> Un (op, expr_map_access f e)

(* Rewrite every index (both in array accesses and in IterVal leaves). *)
let rec expr_map_index f = function
  | Ref a -> Ref { a with idx = List.map f a.idx }
  | IterVal i -> IterVal (f i)
  | Const c -> Const c
  | Bin (op, e1, e2) -> Bin (op, expr_map_index f e1, expr_map_index f e2)
  | Un (op, e) -> Un (op, expr_map_index f e)

let rec expr_iter_index f = function
  | Ref a -> List.iter f a.idx
  | IterVal i -> f i
  | Const _ -> ()
  | Bin (_, e1, e2) ->
      expr_iter_index f e1;
      expr_iter_index f e2
  | Un (_, e) -> expr_iter_index f e

let stmt_map_index f (s : stmt) =
  {
    dst = { s.dst with idx = List.map f s.dst.idx };
    rhs = expr_map_index f s.rhs;
  }

(* Number of scalar arithmetic operations in one execution of the
   statement (used by cost models and the theoretical-peak computation). *)
let rec expr_flops = function
  | Ref _ | IterVal _ | Const _ -> 0
  | Bin (_, e1, e2) -> 1 + expr_flops e1 + expr_flops e2
  | Un (_, e) -> 1 + expr_flops e

let stmt_flops s = expr_flops s.rhs

(* ------------------------------------------------------------------ *)
(* Tree traversal                                                      *)
(* ------------------------------------------------------------------ *)

(* The [i]th node of a list; [None] when [i] is out of range, negative
   included (where [List.nth_opt] raises). *)
let nth_node (nodes : node list) i =
  if i < 0 then None else List.nth_opt nodes i

(* Every function below that takes a path raises [Invalid_path] with the
   whole path it was given when that path addresses no node: [], an
   index out of range or negative at any level, or a step into a
   statement. *)

let node_at (prog : t) (p : path) : node =
  let rec go nodes = function
    | [] -> raise (Invalid_path p)
    | [ i ] -> (
        match nth_node nodes i with
        | Some n -> n
        | None -> raise (Invalid_path p))
    | i :: rest -> (
        match nth_node nodes i with
        | Some (Scope s) -> go s.body rest
        | Some (Stmt _) | None -> raise (Invalid_path p))
  in
  go prog.body p

(* Replace the node at [p] by the node list returned by [f] (empty list
   removes it, several nodes splice in place). *)
let rewrite_at (prog : t) (p : path) (f : node -> node list) : t =
  let rec go nodes = function
    | [] -> raise (Invalid_path p)
    | [ i ] ->
        if i < 0 || i >= List.length nodes then raise (Invalid_path p);
        List.concat (List.mapi (fun j n -> if j = i then f n else [ n ]) nodes)
    | i :: rest -> (
        match nth_node nodes i with
        | Some (Scope s) ->
            let s = Scope { s with body = go s.body rest } in
            List.mapi (fun j n -> if j = i then s else n) nodes
        | Some (Stmt _) | None -> raise (Invalid_path p))
  in
  { prog with body = go prog.body p }

(* Depth of the node at [p]: the number of enclosing scopes. *)
let depth_of_path (prog : t) (p : path) : int =
  let rec go nodes q acc =
    match q with
    | [] -> raise (Invalid_path p)
    | [ i ] ->
        if Option.is_none (nth_node nodes i) then raise (Invalid_path p);
        acc
    | i :: rest -> (
        match nth_node nodes i with
        | Some (Scope s) -> go s.body rest (acc + 1)
        | Some (Stmt _) | None -> raise (Invalid_path p))
  in
  go prog.body p 0

(* Iterate all nodes with their paths, outer before inner, in order. *)
let iter_nodes (f : path -> node -> unit) (prog : t) : unit =
  let rec go prefix nodes =
    List.iteri
      (fun i n ->
        let p = prefix @ [ i ] in
        f p n;
        match n with Scope s -> go p s.body | Stmt _ -> ())
      nodes
  in
  go [] prog.body

let fold_nodes (f : 'a -> path -> node -> 'a) (init : 'a) (prog : t) : 'a =
  let acc = ref init in
  iter_nodes (fun p n -> acc := f !acc p n) prog;
  !acc

(* All statements in a node list, with the sizes of the scopes enclosing
   them inside that list (innermost last). *)
let rec stmts_under (nodes : node list) : stmt list =
  List.concat_map
    (function Stmt s -> [ s ] | Scope sc -> stmts_under sc.body)
    nodes

let stmts_of_node = function
  | Stmt s -> [ s ]
  | Scope sc -> stmts_under sc.body

(* Rewrite every index inside a subtree. *)
let rec node_map_index f = function
  | Stmt s -> Stmt (stmt_map_index f s)
  | Scope sc -> Scope { sc with body = List.map (node_map_index f) sc.body }

(* ------------------------------------------------------------------ *)
(* Accesses                                                            *)
(* ------------------------------------------------------------------ *)

type access_kind = Read | Write

(* All (kind, access) pairs performed by a statement, in order: reads of
   the right-hand side first, then the destination write. *)
let stmt_accesses (s : stmt) : (access_kind * access) list =
  let reads = List.map (fun a -> (Read, a)) (expr_refs s.rhs) in
  reads @ [ (Write, s.dst) ]

let node_accesses (n : node) : (access_kind * access) list =
  List.concat_map stmt_accesses (stmts_of_node n)

(* Arrays written / read in a subtree. *)
let written_arrays n =
  List.filter_map
    (function Write, a -> Some a.array | Read, _ -> None)
    (node_accesses n)

let read_arrays n =
  List.filter_map
    (function Read, a -> Some a.array | Write, _ -> None)
    (node_accesses n)

(* ------------------------------------------------------------------ *)
(* Buffers                                                             *)
(* ------------------------------------------------------------------ *)

(* The alias facts of one buffer list: each array's buffer (the first
   buffer that lists it) and its alias class, a small integer shared by
   the arrays of every buffer with one [bname].  Every dependence check
   and cost model asks for them per access, so they are built once per
   buffer list instead of scanning it per lookup.

   Each domain keeps the facts of the last list it was asked about,
   keyed on that list's physical identity: lists are immutable, so [==]
   implies equal facts, and loop moves leave [buffers] physically
   unchanged, so a whole replay of loop moves builds them once.  They
   are per domain because pool tasks ask about different programs at
   once; a published entry is never mutated, so systhreads sharing a
   domain may replace it under each other.  They are not a field of the
   program: every [{ p with body = ... }] would copy them, every parser
   path, kernel builder and buffer move would have to reset them, and
   [digest] marshals the whole record. *)
type alias_facts = {
  key : buffer list;
  slots : (string, buffer * int) Hashtbl.t;
}

(* A buffer's alias class is the position of the first buffer with its
   [bname]. *)
let alias_facts_of key =
  let slots = Hashtbl.create 16 in
  let rec class_of name i = function
    | b :: rest when not (String.equal b.bname name) -> class_of name (i + 1) rest
    | _ -> i
  in
  List.iter
    (fun b ->
      let cls = class_of b.bname 0 key in
      List.iter
        (fun a -> if not (Hashtbl.mem slots a) then Hashtbl.add slots a (b, cls))
        b.arrays)
    key;
  { key; slots }

let last_alias_facts = Domain.DLS.new_key (fun () -> alias_facts_of [])

let alias_slot (prog : t) arr =
  let facts =
    let f = Domain.DLS.get last_alias_facts in
    if f.key == prog.buffers then f
    else begin
      let f = alias_facts_of prog.buffers in
      Domain.DLS.set last_alias_facts f;
      f
    end
  in
  match Hashtbl.find facts.slots arr with
  | slot -> slot
  | exception Not_found -> invalid_arg (Printf.sprintf "unknown array %S" arr)

let buffer_of_array (prog : t) (arr : string) : buffer =
  fst (alias_slot prog arr)

let alias_class (prog : t) (arr : string) : int = snd (alias_slot prog arr)

let buffer_by_name (prog : t) name =
  match List.find_opt (fun b -> b.bname = name) prog.buffers with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "unknown buffer %S" name)

let replace_buffer (prog : t) (b : buffer) : t =
  {
    prog with
    buffers =
      List.map (fun b' -> if b'.bname = b.bname then b else b') prog.buffers;
  }

(* Storage shape of a buffer: reused dimensions collapse to extent 1. *)
let storage_shape (b : buffer) : int list =
  List.map2 (fun d r -> if r then 1 else d) b.shape b.reuse

let buffer_bytes (b : buffer) : int =
  List.fold_left ( * ) (dtype_bytes b.dtype) (storage_shape b)

(* Total scalar arithmetic operations executed by the program: the basis
   of the theoretical-peak comparison in §4.1. *)
let total_flops (prog : t) : int =
  let rec go mult nodes =
    List.fold_left
      (fun acc n ->
        match n with
        | Stmt s -> acc + (mult * stmt_flops s)
        | Scope sc -> acc + go (mult * sc.size) sc.body)
      0 nodes
  in
  go 1 prog.body

(* Sizes of the scopes enclosing the node at [p], outermost first.  The
   returned array is indexed by depth, matching the {k} references valid
   at that node. *)
let enclosing_sizes (prog : t) (p : path) : int array =
  let rec go nodes q acc =
    match q with
    | [] -> raise (Invalid_path p)
    | [ i ] ->
        if Option.is_none (nth_node nodes i) then raise (Invalid_path p);
        List.rev acc
    | i :: rest -> (
        match nth_node nodes i with
        | Some (Scope s) -> go s.body rest (s.size :: acc)
        | Some (Stmt _) | None -> raise (Invalid_path p))
  in
  Array.of_list (go prog.body p [])

(* The exact-structure digest: what the marshaled bytes of the value
   are, so two programs share it exactly when they are the same tree. *)
let digest (prog : t) : Digest.t =
  Digest.string (Marshal.to_string prog [ No_sharing ])
