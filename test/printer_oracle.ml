(* Reference printer for test_canon's oracle property: lib/ir/printer.ml
   as it was before the printer was built bottom-up, kept verbatim below
   this header ([open Ir] resolves its sibling modules).  Canon_oracle
   prints through it, so the reference shares no code with what it
   checks. *)
open Ir

(* Human-readable textual form of the IR (Figure 3b of the paper).

   Scopes print as their iteration count with annotation suffixes
   ([1024:v], [64:b]); child relationship is rendered with vertical bars.
   Buffer declarations precede the body:

     buffer_name dtype [dim1, dim2:N] location -> array1, array2

   The output of {!program} parses back with {!Parser.program}
   (round-trip property tested in the suite). *)

open Types

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Max -> "max"
  | Min -> "min"

let unop_str = function
  | Exp -> "exp"
  | Log -> "log"
  | Sqrt -> "sqrt"
  | Neg -> "neg"
  | Recip -> "recip"
  | Relu -> "relu"

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else if f = Float.neg_infinity then "-inf"
  else if f = Float.infinity then "inf"
  else Printf.sprintf "%.17g" f

let access_str (a : access) =
  if a.idx = [] then a.array
  else
    Printf.sprintf "%s[%s]" a.array
      (String.concat "," (List.map Index.to_string a.idx))

(* Operator precedence: additive 1, multiplicative 2, atoms 3. *)
let rec expr_str ?(prec = 0) (e : expr) =
  match e with
  | Ref a -> access_str a
  | IterVal i -> (
      (* A plain iterator reference prints as {d} (the paper's "index as
         value"); a general affine index uses the idx(...) function form
         so the parser can reconstruct it. *)
      match (i.terms, i.offset) with
      | [ (1, d) ], 0 -> Printf.sprintf "{%d}" d
      | _ -> Printf.sprintf "idx(%s)" (Index.to_string i))
  | Const c -> float_str c
  | Un (op, e) -> Printf.sprintf "%s(%s)" (unop_str op) (expr_str e)
  | Bin ((Max | Min) as op, e1, e2) ->
      Printf.sprintf "%s(%s,%s)" (binop_str op) (expr_str e1) (expr_str e2)
  | Bin (op, e1, e2) ->
      let my_prec = match op with Add | Sub -> 1 | _ -> 2 in
      let s =
        Printf.sprintf "%s %s %s"
          (expr_str ~prec:my_prec e1)
          (binop_str op)
          (expr_str ~prec:(my_prec + 1) e2)
      in
      if my_prec < prec then "(" ^ s ^ ")" else s

let stmt_str (s : stmt) =
  Printf.sprintf "%s = %s" (access_str s.dst) (expr_str s.rhs)

let scope_header (s : scope) =
  let flags =
    (match annot_suffix s.annot with Some f -> [ f ] | None -> [])
    @ (if s.ssr then [ "ssr" ] else [])
  in
  let base = string_of_int s.size in
  let base =
    if flags = [] then base else base ^ ":" ^ String.concat "," flags
  in
  match s.guard with
  | None -> base
  | Some n -> Printf.sprintf "%s/%d" base n

let buffer_str (b : buffer) =
  let dim_str d r = if r then string_of_int d ^ ":N" else string_of_int d in
  let shape = String.concat ", " (List.map2 dim_str b.shape b.reuse) in
  let base =
    Printf.sprintf "%s %s [%s] %s" b.bname (dtype_name b.dtype) shape
      (location_name b.loc)
  in
  if b.arrays = [ b.bname ] then base
  else base ^ " -> " ^ String.concat ", " b.arrays

let body_lines (nodes : node list) : string list =
  let rec go indent nodes =
    List.concat_map
      (fun n ->
        match n with
        | Stmt s -> [ indent ^ stmt_str s ]
        | Scope sc -> (indent ^ scope_header sc) :: go (indent ^ "| ") sc.body)
      nodes
  in
  go "" nodes

let program (p : program) : string =
  let buffers = List.map buffer_str p.buffers in
  let io =
    [
      "inputs: " ^ String.concat ", " p.inputs;
      "outputs: " ^ String.concat ", " p.outputs;
    ]
  in
  String.concat "\n" (buffers @ io @ body_lines p.body) ^ "\n"

(* Body-only rendering, used as the state text fed to the PerfLLM
   embedding and in progress displays. *)
let body (p : program) : string = String.concat "\n" (body_lines p.body)

let pp fmt p = Format.pp_print_string fmt (program p)
