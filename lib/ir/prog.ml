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

let buffer_of_array (prog : t) (arr : string) : buffer =
  match
    List.find_opt (fun b -> List.mem arr b.arrays) prog.buffers
  with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "unknown array %S" arr)

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

(* Two arrays alias iff they live in the same buffer. *)
let arrays_alias (prog : t) a1 a2 =
  a1 = a2 || (buffer_of_array prog a1).bname = (buffer_of_array prog a2).bname

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
