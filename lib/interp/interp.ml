(* Reference interpreter for the PerfDojo IR.

   Execution is completely faithful to storage semantics: arrays that
   alias the same buffer share one backing store, and a reused dimension
   ([:N] suffix) has storage extent 1, so an *illegal* application of
   reuse_dims really produces wrong results here.  This is what makes
   numerical equivalence checking a meaningful oracle for transformation
   correctness (the paper's empirical validation, §2.2). *)

open Ir.Types

type tensors = (string, float array) Hashtbl.t
(* keyed by buffer name; all arrays of a buffer share the entry *)

(* ------------------------------------------------------------------ *)
(* Storage resolution                                                  *)
(* ------------------------------------------------------------------ *)

type slot = {
  store : float array;
  strides : int array; (* stride 0 for reused dimensions *)
}

let storage_strides (b : buffer) : int array =
  let dims = Array.of_list (Ir.Prog.storage_shape b) in
  let n = Array.length dims in
  let strides = Array.make n 0 in
  let acc = ref 1 in
  for i = n - 1 downto 0 do
    strides.(i) <- (if dims.(i) = 1 && List.nth b.reuse i then 0 else !acc);
    acc := !acc * dims.(i)
  done;
  strides

let storage_size (b : buffer) =
  List.fold_left ( * ) 1 (Ir.Prog.storage_shape b)

let alloc_tensors (prog : Ir.Prog.t) : tensors =
  let t = Hashtbl.create 16 in
  List.iter
    (fun b -> Hashtbl.replace t b.bname (Array.make (storage_size b) 0.0))
    prog.buffers;
  t

let slots_of (prog : Ir.Prog.t) (t : tensors) : (string, slot) Hashtbl.t =
  let slots = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let store =
        match Hashtbl.find_opt t b.bname with
        | Some s -> s
        | None -> invalid_arg ("missing tensor for buffer " ^ b.bname)
      in
      let strides = storage_strides b in
      List.iter
        (fun arr -> Hashtbl.replace slots arr { store; strides })
        b.arrays)
    prog.buffers;
  slots

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let apply_binop op a b =
  match op with
  | Add -> a +. b
  | Sub -> a -. b
  | Mul -> a *. b
  | Div -> a /. b
  | Max -> Float.max a b
  | Min -> Float.min a b

let apply_unop op a =
  match op with
  | Exp -> exp a
  | Log -> log a
  | Sqrt -> sqrt a
  | Neg -> -.a
  | Recip -> 1.0 /. a
  | Relu -> Float.max 0.0 a

let flat_offset (slot : slot) (idx : index list) (env : int array) : int =
  let off = ref 0 in
  List.iteri
    (fun dim i ->
      let v = Ir.Index.eval env i in
      off := !off + (slot.strides.(dim) * v))
    idx;
  !off

let run (prog : Ir.Prog.t) (t : tensors) : unit =
  let slots = slots_of prog t in
  let slot arr =
    match Hashtbl.find_opt slots arr with
    | Some s -> s
    | None -> invalid_arg ("unknown array " ^ arr)
  in
  let env = Array.make 64 0 in
  let rec eval_expr = function
    | Const c -> c
    | IterVal i -> float_of_int (Ir.Index.eval env i)
    | Ref a ->
        let s = slot a.array in
        s.store.(flat_offset s a.idx env)
    | Bin (op, e1, e2) -> apply_binop op (eval_expr e1) (eval_expr e2)
    | Un (op, e) -> apply_unop op (eval_expr e)
  in
  let exec_stmt (s : stmt) =
    let v = eval_expr s.rhs in
    let sl = slot s.dst.array in
    sl.store.(flat_offset sl s.dst.idx env) <- v
  in
  let rec exec_nodes depth nodes =
    List.iter
      (fun node ->
        match node with
        | Stmt s -> exec_stmt s
        | Scope sc ->
            (* masked (padded) iterations are skipped *)
            let bound = match sc.guard with Some g -> g | None -> sc.size in
            for i = 0 to bound - 1 do
              env.(depth) <- i;
              exec_nodes (depth + 1) sc.body
            done)
      nodes
  in
  exec_nodes 0 prog.body

(* ------------------------------------------------------------------ *)
(* Equivalence checking                                                *)
(* ------------------------------------------------------------------ *)

let random_inputs (rng : Util.Rng.t) (prog : Ir.Prog.t) : tensors =
  let t = alloc_tensors prog in
  List.iter
    (fun b ->
      if List.exists (fun a -> List.mem a prog.inputs) b.arrays then begin
        let store = Hashtbl.find t b.bname in
        for i = 0 to Array.length store - 1 do
          store.(i) <- Util.Rng.float_range rng (-1.0) 1.0
        done
      end)
    prog.buffers;
  t

(* Relative-or-absolute tolerance comparison over the declared outputs. *)
let outputs_close ?(tol = 1e-5) (prog : Ir.Prog.t) (a : tensors) (b : tensors)
    : (unit, string) result =
  let check_array arr =
    let buf = Ir.Prog.buffer_of_array prog arr in
    let sa = Hashtbl.find a buf.bname and sb = Hashtbl.find b buf.bname in
    if Array.length sa <> Array.length sb then
      Error
        (Printf.sprintf "output %s: storage sizes differ (%d vs %d)" arr
           (Array.length sa) (Array.length sb))
    else begin
      let bad = ref None in
      Array.iteri
        (fun i va ->
          if !bad = None then begin
            let vb = sb.(i) in
            let scale = Float.max 1.0 (Float.max (abs_float va) (abs_float vb)) in
            if
              abs_float (va -. vb) > tol *. scale
              && not (Float.is_nan va && Float.is_nan vb)
            then bad := Some (i, va, vb)
          end)
        sa;
      match !bad with
      | None -> Ok ()
      | Some (i, va, vb) ->
          Error
            (Printf.sprintf "output %s differs at flat index %d: %g vs %g" arr
               i va vb)
    end
  in
  List.fold_left
    (fun acc arr -> match acc with Error _ -> acc | Ok () -> check_array arr)
    (Ok ()) prog.outputs

(* Numerically validate that [transformed] computes the same function as
   [reference] on [trials] random inputs. *)
let equivalent ?(seed = 42) ?(tol = 1e-5) ?(trials = 2)
    (reference : Ir.Prog.t) (transformed : Ir.Prog.t) : (unit, string) result
    =
  if reference.inputs <> transformed.inputs then Error "input lists differ"
  else if reference.outputs <> transformed.outputs then
    Error "output lists differ"
  else begin
    let rng = Util.Rng.create seed in
    let rec trial k =
      if k = 0 then Ok ()
      else begin
        let t_ref = random_inputs rng reference in
        (* feed the transformed program the same input values, through its
           own buffer declarations (layouts may differ for temporaries,
           but input/output buffers must be materialized identically) *)
        let t_tr = alloc_tensors transformed in
        List.iter
          (fun arr ->
            let b_ref = Ir.Prog.buffer_of_array reference arr in
            let b_tr = Ir.Prog.buffer_of_array transformed arr in
            let src = Hashtbl.find t_ref b_ref.bname in
            let dst = Hashtbl.find t_tr b_tr.bname in
            if Array.length src <> Array.length dst then
              invalid_arg ("input storage size mismatch for " ^ arr)
            else Array.blit src 0 dst 0 (Array.length src))
          reference.inputs;
        run reference t_ref;
        run transformed t_tr;
        (* compare via each program's own buffer mapping *)
        let cmp =
          List.fold_left
            (fun acc arr ->
              match acc with
              | Error _ -> acc
              | Ok () ->
                  let b_ref = Ir.Prog.buffer_of_array reference arr in
                  let b_tr = Ir.Prog.buffer_of_array transformed arr in
                  let sa = Hashtbl.find t_ref b_ref.bname in
                  let sb = Hashtbl.find t_tr b_tr.bname in
                  if Array.length sa <> Array.length sb then
                    Error (Printf.sprintf "output %s: sizes differ" arr)
                  else begin
                    let bad = ref None in
                    Array.iteri
                      (fun i va ->
                        if !bad = None then begin
                          let vb = sb.(i) in
                          let scale =
                            Float.max 1.0
                              (Float.max (abs_float va) (abs_float vb))
                          in
                          if
                            abs_float (va -. vb) > tol *. scale
                            && not (Float.is_nan va && Float.is_nan vb)
                          then bad := Some (i, va, vb)
                        end)
                      sa;
                    match !bad with
                    | None -> Ok ()
                    | Some (i, va, vb) ->
                        Error
                          (Printf.sprintf
                             "output %s differs at flat index %d: %g vs %g"
                             arr i va vb)
                  end)
            (Ok ()) reference.outputs
        in
        match cmp with Ok () -> trial (k - 1) | Error _ -> cmp
      end
    in
    trial trials
  end
