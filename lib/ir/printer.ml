(* Human-readable textual form of the IR (Figure 3b of the paper).

   Scopes print as their iteration count with annotation suffixes
   ([1024:v], [64:b]); child relationship is rendered with vertical bars.
   Buffer declarations precede the body:

     buffer_name dtype [dim1, dim2:N] location -> array1, array2

   The output of {!program} parses back with {!Parser.program}
   (round-trip property tested in the suite).

   Every rule is written once, bottom-up: an expression's text is built
   from its operands' texts and a scope's text from its children's, so a
   caller that already holds those texts (Canon's sort keys) assembles
   the parent's without printing the subtree again. *)

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

let access_named name (a : access) =
  if a.idx = [] then name
  else name ^ "[" ^ String.concat "," (List.map Index.to_string a.idx) ^ "]"

let access_str (a : access) = access_named a.array a

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* An expression's text at precedence 0 with its own precedence:
   additive 1, multiplicative 2, atoms (leaves, calls, max/min) never
   take parentheses. *)
type expr_text = { text : string; prec : int }

let text_of (t : expr_text) = t.text
let atom text = { text; prec = max_int }
let at prec (t : expr_text) =
  if t.prec < prec then "(" ^ t.text ^ ")" else t.text

let un_text op (a : expr_text) = atom (unop_str op ^ "(" ^ a.text ^ ")")

let bin_text op (a : expr_text) (b : expr_text) =
  match op with
  | Max | Min -> atom (binop_str op ^ "(" ^ a.text ^ "," ^ b.text ^ ")")
  | Add | Sub | Mul | Div ->
      let prec = match op with Add | Sub -> 1 | _ -> 2 in
      { text = at prec a ^ " " ^ binop_str op ^ " " ^ at (prec + 1) b; prec }

let rec expr_text ?(name = Fun.id) (e : expr) =
  match e with
  | Ref a -> atom (access_named (name a.array) a)
  | IterVal i -> (
      (* A plain iterator reference prints as {d} (the paper's "index as
         value"); a general affine index uses the idx(...) function form
         so the parser can reconstruct it. *)
      match (i.terms, i.offset) with
      | [ (1, d) ], 0 -> atom ("{" ^ string_of_int d ^ "}")
      | _ -> atom ("idx(" ^ Index.to_string i ^ ")"))
  | Const c -> atom (float_str c)
  | Un (op, a) -> un_text op (expr_text ~name a)
  | Bin (op, a, b) -> bin_text op (expr_text ~name a) (expr_text ~name b)

let expr_str ?(prec = 0) e = at prec (expr_text e)

(* ------------------------------------------------------------------ *)
(* Statements, scopes and programs                                     *)
(* ------------------------------------------------------------------ *)

let stmt_text ?(name = Fun.id) (dst : access) (rhs : expr_text) =
  access_named (name dst.array) dst ^ " = " ^ rhs.text

let stmt_str (s : stmt) = stmt_text s.dst (expr_text s.rhs)

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

(* A scope is its header line, then every line of every child prefixed
   by one bar. *)
let bar = "| "

let scope_text (s : scope) (children : string list) =
  let header = scope_header s in
  let b =
    Buffer.create
      (List.fold_left
         (fun n t -> n + 3 + String.length t)
         (String.length header) children)
  in
  Buffer.add_string b header;
  let rec lines t i =
    match String.index_from_opt t i '\n' with
    | None -> Buffer.add_substring b t i (String.length t - i)
    | Some j ->
        Buffer.add_substring b t i (j + 1 - i);
        Buffer.add_string b bar;
        lines t (j + 1)
  in
  List.iter
    (fun t ->
      Buffer.add_char b '\n';
      Buffer.add_string b bar;
      lines t 0)
    children;
  Buffer.contents b

let rec node_text = function
  | Stmt s -> stmt_str s
  | Scope sc -> scope_text sc (List.map node_text sc.body)

let buffer_str (b : buffer) =
  let dim_str d r = if r then string_of_int d ^ ":N" else string_of_int d in
  let shape = String.concat ", " (List.map2 dim_str b.shape b.reuse) in
  let base =
    Printf.sprintf "%s %s [%s] %s" b.bname (dtype_name b.dtype) shape
      (location_name b.loc)
  in
  if b.arrays = [ b.bname ] then base
  else base ^ " -> " ^ String.concat ", " b.arrays

let program_text (p : program) (body : string list) : string =
  let buffers = List.map buffer_str p.buffers in
  let io =
    [
      "inputs: " ^ String.concat ", " p.inputs;
      "outputs: " ^ String.concat ", " p.outputs;
    ]
  in
  String.concat "\n" (buffers @ io @ body) ^ "\n"

let program (p : program) : string =
  program_text p (List.map node_text p.body)

(* Body-only rendering, used as the state text fed to the PerfLLM
   embedding and in progress displays. *)
let body (p : program) : string =
  String.concat "\n" (List.map node_text p.body)

let pp fmt p = Format.pp_print_string fmt (program p)
