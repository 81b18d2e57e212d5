(* C code generation from the scheduled IR (Figure 3d).

   The generator renders exactly what the annotations say:
   - [:p] scopes emit "#pragma omp parallel for";
   - [:u] scopes emit "#pragma unroll" (kept as a loop for readability);
   - [:v] scopes emit a vector-width pragma over the single statement;
   - [:g]/[:b] scopes split the program into a CUDA-style __global__
     kernel plus a host launch;
   - guarded (padded) scopes emit an if-mask;
   - Snitch SSR scopes emit the stream configuration calls and [:f]
     emits the hardware-loop FREP form.

   The output is illustrative, compilable C in structure; heap buffers
   are file-scope statics filled in by a guarded allocator that the
   entry point calls first, so a generated translation unit compiles
   and links standalone (and several of them link into one library
   without symbol clashes). *)

open Ir.Types

let buf_c_type = function F32 -> "float" | F64 -> "double" | I32 -> "int32_t"

let var d = Printf.sprintf "i%d" d

let index_c (i : index) : string =
  match (i.terms, i.offset) with
  | [], n -> string_of_int n
  | terms, off ->
      let term (c, d) =
        if c = 1 then var d else Printf.sprintf "%d*%s" c (var d)
      in
      let body = String.concat " + " (List.map term terms) in
      if off = 0 then body
      else if off > 0 then Printf.sprintf "%s + %d" body off
      else Printf.sprintf "%s - %d" body (-off)

(* Flattened row-major access honoring reuse-collapsed dimensions. *)
let access_c (prog : Ir.Prog.t) (a : access) : string =
  let b = Ir.Prog.buffer_of_array prog a.array in
  let storage = Ir.Prog.storage_shape b in
  let rec flatten idx dims reuse =
    match (idx, dims, reuse) with
    | [], [], [] -> "0"
    | i :: idx', _d :: dims', r :: reuse' ->
        let rest = flatten idx' dims' reuse' in
        let this = if r then "0" else "(" ^ index_c i ^ ")" in
        let inner_size = List.fold_left ( * ) 1 dims' in
        if inner_size = 1 then
          if rest = "0" then this else this ^ " + " ^ rest
        else
          Printf.sprintf "%s*%d%s" this inner_size
            (if rest = "0" then "" else " + " ^ rest)
    | _ -> invalid_arg "rank mismatch"
  in
  ignore storage;
  Printf.sprintf "%s[%s]" b.bname
    (flatten a.idx (Ir.Prog.storage_shape b) b.reuse)

(* Every binop arm is matched explicitly (fmaxf/fminf for Max/Min, one
   [infix_c] call per arithmetic operator), so there is no catch-all arm
   needing an unreachable Max|Min assert. *)
let rec expr_c prog (e : expr) : string =
  match e with
  | Ref a -> access_c prog a
  | IterVal i -> Printf.sprintf "(float)(%s)" (index_c i)
  | Const c ->
      (* NaN has no C literal: %g renders it as "nan", which suffixed
         with "f" became the invalid token "nanf".  Emit the math.h
         macro, like the INFINITY cases.  (NaN compares unequal to
         everything, so it must be tested before the infinity arms.) *)
      if Float.is_nan c then "NAN"
      else if c = Float.neg_infinity then "-INFINITY"
      else if c = Float.infinity then "INFINITY"
      else if Float.is_integer c && Float.abs c < 1e9 then
        Printf.sprintf "%.1ff" c
      else Printf.sprintf "%.9gf" c
  | Bin (Max, a, b) ->
      Printf.sprintf "fmaxf(%s, %s)" (expr_c prog a) (expr_c prog b)
  | Bin (Min, a, b) ->
      Printf.sprintf "fminf(%s, %s)" (expr_c prog a) (expr_c prog b)
  | Bin (Add, a, b) -> infix_c prog "+" a b
  | Bin (Sub, a, b) -> infix_c prog "-" a b
  | Bin (Mul, a, b) -> infix_c prog "*" a b
  | Bin (Div, a, b) -> infix_c prog "/" a b
  | Un (Exp, e) -> Printf.sprintf "expf(%s)" (expr_c prog e)
  | Un (Log, e) -> Printf.sprintf "logf(%s)" (expr_c prog e)
  | Un (Sqrt, e) -> Printf.sprintf "sqrtf(%s)" (expr_c prog e)
  | Un (Neg, e) -> Printf.sprintf "(-%s)" (expr_c prog e)
  | Un (Recip, e) -> Printf.sprintf "(1.0f / %s)" (expr_c prog e)
  | Un (Relu, e) -> Printf.sprintf "fmaxf(0.0f, %s)" (expr_c prog e)

and infix_c prog o a b =
  Printf.sprintf "(%s %s %s)" (expr_c prog a) o (expr_c prog b)

let stmt_c prog (s : stmt) =
  Printf.sprintf "%s = %s;" (access_c prog s.dst) (expr_c prog s.rhs)

type flavor = Plain | Cuda | Snitch_asm

let rec gen_nodes prog flavor indent depth nodes buf =
  List.iter (fun n -> gen_node prog flavor indent depth n buf) nodes

and gen_node prog flavor indent depth node buf =
  let pad = String.make indent ' ' in
  match node with
  | Stmt s -> Buffer.add_string buf (pad ^ stmt_c prog s ^ "\n")
  | Scope sc ->
      let v = var depth in
      let emit_for ?(pragma = "") () =
        if pragma <> "" then Buffer.add_string buf (pad ^ pragma ^ "\n");
        Buffer.add_string buf
          (Printf.sprintf "%sfor (int %s = 0; %s < %d; ++%s) {\n" pad v v
             sc.size v);
        (match sc.guard with
        | Some g ->
            Buffer.add_string buf
              (Printf.sprintf "%s  if (%s >= %d) continue;  /* padded */\n"
                 pad v g)
        | None -> ());
        if sc.ssr && flavor = Snitch_asm then
          Buffer.add_string buf
            (Printf.sprintf
               "%s  /* SSR: operands stream via ft0..ft2 */\n" pad);
        gen_nodes prog flavor (indent + 2) (depth + 1) sc.body buf;
        Buffer.add_string buf (pad ^ "}\n")
      in
      (match flavor with
      | Snitch_asm when sc.ssr && sc.annot = Frep ->
          Buffer.add_string buf
            (Printf.sprintf "%ssnrt_ssr_enable();\n" pad);
          Buffer.add_string buf
            (Printf.sprintf
               "%sasm volatile(\"frep.o %%0, 1, 0, 0\" :: \"r\"(%d));\n" pad
               (sc.size - 1));
          gen_nodes prog flavor (indent + 2) (depth + 1) sc.body buf;
          Buffer.add_string buf
            (Printf.sprintf "%ssnrt_ssr_disable();\n" pad)
      | _ -> (
          match sc.annot with
          | Seq -> emit_for ()
          | Unroll -> emit_for ~pragma:"#pragma unroll" ()
          | Par -> emit_for ~pragma:"#pragma omp parallel for" ()
          | Vec ->
              emit_for
                ~pragma:(Printf.sprintf "#pragma omp simd simdlen(%d)" sc.size)
                ()
          | Frep -> emit_for ~pragma:"/* frep hardware loop */" ()
          | GpuGrid when flavor = Cuda ->
              (* handled by kernel extraction in [program] *)
              emit_for ~pragma:"/* grid dimension */" ()
          | GpuGrid -> emit_for ~pragma:"/* grid dimension */" ()
          | GpuBlock -> emit_for ~pragma:"/* block dimension */" ()
          | GpuWarp -> emit_for ~pragma:"/* warp lane */" ()))

(* ------------------------------------------------------------------ *)
(* CUDA kernel extraction                                              *)
(* ------------------------------------------------------------------ *)

(* Replace the grid/block loop indices by CUDA builtins inside the
   kernel body. *)
let rec gen_cuda_body prog indent depth grid_depth _block_depth nodes buf =
  List.iter
    (fun node ->
      let pad = String.make indent ' ' in
      match node with
      | Stmt s -> Buffer.add_string buf (pad ^ stmt_c prog s ^ "\n")
      | Scope sc when sc.annot = GpuBlock ->
          Buffer.add_string buf
            (Printf.sprintf "%s{ const int %s = threadIdx.x;\n" pad
               (var depth));
          (match sc.guard with
          | Some g ->
              Buffer.add_string buf
                (Printf.sprintf "%s  if (%s >= %d) return; /* padded */\n" pad
                   (var depth) g)
          | None -> ());
          gen_cuda_body prog (indent + 2) (depth + 1) grid_depth (Some depth)
            sc.body buf;
          Buffer.add_string buf (pad ^ "}\n")
      | Scope sc ->
          gen_node prog Cuda indent depth (Scope sc) buf)
    nodes

let cuda_kernels prog entry buf =
  let kernel_id = ref 0 in
  let rec host indent depth nodes =
    List.iter
      (fun node ->
        let pad = String.make indent ' ' in
        match node with
        | Stmt s -> Buffer.add_string buf (pad ^ stmt_c prog s ^ "\n")
        | Scope sc when sc.annot = GpuGrid ->
            let id = !kernel_id in
            incr kernel_id;
            let tpb =
              let rec find_block nodes =
                List.fold_left
                  (fun acc n ->
                    match n with
                    | Scope s when s.annot = GpuBlock -> s.size
                    | Scope s -> max acc (find_block s.body)
                    | Stmt _ -> acc)
                  1 nodes
              in
              find_block sc.body
            in
            Buffer.add_string buf
              (Printf.sprintf "%skernel_%d<<<%d, %d>>>(%s);\n" pad id sc.size
                 tpb
                 (String.concat ", "
                    (List.map (fun b -> b.bname) prog.buffers)))
        | Scope sc ->
            Buffer.add_string buf
              (Printf.sprintf "%sfor (int %s = 0; %s < %d; ++%s) {\n" pad
                 (var depth) (var depth) sc.size (var depth));
            host (indent + 2) (depth + 1) sc.body;
            Buffer.add_string buf (pad ^ "}\n"))
      nodes
  in
  (* kernel definitions *)
  let kid = ref 0 in
  let rec defs depth nodes =
    List.iter
      (fun node ->
        match node with
        | Scope sc when sc.annot = GpuGrid ->
            let id = !kid in
            incr kid;
            let params =
              String.concat ", "
                (List.map
                   (fun b ->
                     Printf.sprintf "%s* __restrict__ %s" (buf_c_type b.dtype)
                       b.bname)
                   prog.buffers)
            in
            Buffer.add_string buf
              (Printf.sprintf "__global__ void kernel_%d(%s) {\n" id params);
            Buffer.add_string buf
              (Printf.sprintf "  const int %s = blockIdx.x;\n" (var depth));
            gen_cuda_body prog 2 (depth + 1) (Some depth) None sc.body buf;
            Buffer.add_string buf "}\n\n"
        | Scope sc -> defs (depth + 1) sc.body
        | Stmt _ -> ())
      nodes
  in
  defs 0 prog.body;
  Buffer.add_string buf (Printf.sprintf "void %s(/* host entry */) {\n" entry);
  Buffer.add_string buf "  pd_alloc_buffers();\n";
  host 2 0 prog.body;
  Buffer.add_string buf "}\n"

(* ------------------------------------------------------------------ *)
(* Program-level output                                                *)
(* ------------------------------------------------------------------ *)

(* Identifiers math.h/stdlib.h already declare as functions: a buffer
   with one of these names must not shadow them at file scope. *)
let c_reserved =
  [ "gamma"; "y0"; "y1"; "yn"; "j0"; "j1"; "jn"; "exp"; "log"; "sin"; "cos";
    "tan"; "pow"; "sqrt"; "abs"; "div"; "index"; "remainder"; "signgam" ]

let declarations (prog : Ir.Prog.t) buf =
  (* the macro renames every later use, declarations included; the
     headers above were already processed, so they are unaffected *)
  List.iter
    (fun b ->
      if List.mem b.bname c_reserved then
        Buffer.add_string buf
          (Printf.sprintf "#define %s pd_%s  /* avoids a libc clash */\n"
             b.bname b.bname))
    prog.buffers;
  let heap = ref [] in
  List.iter
    (fun b ->
      let elems = List.fold_left ( * ) 1 (Ir.Prog.storage_shape b) in
      let ty = buf_c_type b.dtype in
      (match b.loc with
      | Stack | Register ->
          Buffer.add_string buf
            (Printf.sprintf "static %s %s[%d];  /* %s */\n" ty b.bname elems
               (location_name b.loc))
      | Shared ->
          Buffer.add_string buf
            (Printf.sprintf "__shared__ %s %s[%d];\n" ty b.bname elems)
      | Heap ->
          Buffer.add_string buf (Printf.sprintf "static %s* %s;\n" ty b.bname);
          heap := (b.bname, elems, ty) :: !heap);
      List.iter
        (fun a ->
          if a <> b.bname then
            Buffer.add_string buf
              (Printf.sprintf "#define %s %s  /* alias */\n" a b.bname))
        b.arrays)
    prog.buffers;
  (* malloc at file scope is not constant-initializable; a guarded
     allocator (static, so translation units never clash in a library)
     runs once from the entry point instead *)
  Buffer.add_string buf
    "\nstatic int pd_buffers_ready;\n\
     static void pd_alloc_buffers(void) {\n\
    \  if (pd_buffers_ready) return;\n\
    \  pd_buffers_ready = 1;\n";
  List.iter
    (fun (name, elems, ty) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s = malloc(%d * sizeof(%s));\n" name elems ty))
    (List.rev !heap);
  Buffer.add_string buf "}\n"

let contains_gpu prog =
  Ir.Prog.fold_nodes
    (fun acc _ n ->
      acc
      ||
      match n with
      | Scope sc -> sc.annot = GpuGrid || sc.annot = GpuBlock
      | Stmt _ -> false)
    false prog

let contains_snitch prog =
  Ir.Prog.fold_nodes
    (fun acc _ n ->
      acc
      || match n with Scope sc -> sc.ssr || sc.annot = Frep | Stmt _ -> false)
    false prog

(* Generate C for a program, picking the flavor from its annotations. *)
let program ?(entry = "run") (prog : Ir.Prog.t) : string =
  let buf = Buffer.create 1024 in
  let flavor =
    if contains_gpu prog then Cuda
    else if contains_snitch prog then Snitch_asm
    else Plain
  in
  Buffer.add_string buf "#include <math.h>\n#include <stdlib.h>\n";
  (match flavor with
  | Snitch_asm -> Buffer.add_string buf "#include \"snrt.h\"\n"
  | _ -> ());
  Buffer.add_string buf "\n/* buffers */\n";
  declarations prog buf;
  Buffer.add_string buf "\n/* kernel */\n";
  (match flavor with
  | Cuda -> cuda_kernels prog entry buf
  | Plain | Snitch_asm ->
      Buffer.add_string buf (Printf.sprintf "void %s(void) {\n" entry);
      Buffer.add_string buf "  pd_alloc_buffers();\n";
      gen_nodes prog flavor 2 0 prog.body buf;
      Buffer.add_string buf "}\n");
  Buffer.contents buf

(* A library member's entry point: the kernel label and the target name
   reduced to C identifier characters ("layernorm 1" on x86 ->
   perfdojo_layernorm_1_x86). *)
let entry_symbol ~kernel ~target =
  let ident =
    String.map (function
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c
      | _ -> '_')
  in
  "perfdojo_" ^ ident kernel ^ "_" ^ ident target
