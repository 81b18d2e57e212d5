(* Whole-block optimization: the paper's introduction motivates bespoke
   fused kernels (flash attention) that library-centric stacks cannot
   provide.  This example builds a single-head attention score block —
   S = Q*K^T / sqrt(d), P = softmax(S), O = P*V — as ONE PerfDojo
   program, and compares optimizing it whole against a per-operator
   library schedule.

   Run with:  dune exec examples/attention_block.exe *)

open Perfdojo

let seq = 256 (* sequence length *)
let dim = 64 (* head dimension *)

(* The whole block as one program.  K is stored transposed (column-major
   scores access) as libraries do for attention. *)
let attention : Ir.Prog.t =
  let scale = 1.0 /. sqrt (float_of_int dim) in
  let text =
    Printf.sprintf
      ("q f32 [%d, %d] heap\n" ^^ "k f32 [%d, %d] heap\n"
     ^^ "v f32 [%d, %d] heap\n" ^^ "s f32 [%d, %d] heap\n"
     ^^ "mx f32 [%d] heap\n" ^^ "sm f32 [%d] heap\n"
     ^^ "p f32 [%d, %d] heap\n" ^^ "o f32 [%d, %d] heap\n"
     ^^ "inputs: q, k, v\noutputs: o\n"
     (* scores: s[i,j] = scale * sum_d q[i,d] * k[j,d] *)
     ^^ "%d\n| %d\n| | s[{0},{1}] = 0\n| | %d\n"
     ^^ "| | | s[{0},{1}] = s[{0},{1}] + q[{0},{2}] * k[{1},{2}]\n"
     ^^ "| | s[{0},{1}] = s[{0},{1}] * %.17g\n"
     (* row softmax *)
     ^^ "%d\n| mx[{0}] = -inf\n| %d\n"
     ^^ "| | mx[{0}] = max(mx[{0}], s[{0},{1}])\n"
     ^^ "| sm[{0}] = 0\n| %d\n"
     ^^ "| | p[{0},{1}] = exp(s[{0},{1}] - mx[{0}])\n"
     ^^ "| | sm[{0}] = sm[{0}] + p[{0},{1}]\n"
     ^^ "| %d\n| | p[{0},{1}] = p[{0},{1}] / sm[{0}]\n"
     (* output: o = p * v *)
     ^^ "%d\n| %d\n| | o[{0},{1}] = 0\n| | %d\n"
     ^^ "| | | o[{0},{1}] = o[{0},{1}] + p[{0},{2}] * v[{2},{1}]\n")
      seq dim seq dim seq dim seq seq seq seq seq seq seq dim (* buffers *)
      seq seq dim scale (* scores *)
      seq seq seq seq (* softmax *)
      seq dim seq (* output *)
  in
  Ir.Parser.program text

(* An independent OCaml reference, for confidence. *)
let reference q k v =
  let s = Array.make_matrix seq seq 0.0 in
  let scale = 1.0 /. sqrt (float_of_int dim) in
  for i = 0 to seq - 1 do
    for j = 0 to seq - 1 do
      for d = 0 to dim - 1 do
        s.(i).(j) <- s.(i).(j) +. (q.((i * dim) + d) *. k.((j * dim) + d))
      done;
      s.(i).(j) <- s.(i).(j) *. scale
    done
  done;
  let o = Array.make (seq * dim) 0.0 in
  for i = 0 to seq - 1 do
    let mx = Array.fold_left Float.max neg_infinity s.(i) in
    let exps = Array.map (fun x -> exp (x -. mx)) s.(i) in
    let sum = Array.fold_left ( +. ) 0.0 exps in
    for j = 0 to seq - 1 do
      let pij = exps.(j) /. sum in
      for d = 0 to dim - 1 do
        o.((i * dim) + d) <- o.((i * dim) + d) +. (pij *. v.((j * dim) + d))
      done
    done
  done;
  o

let () =
  Ir.Validate.check_exn attention;
  Printf.printf "attention block: seq=%d dim=%d, %d statements, %.2e flops\n"
    seq dim
    (List.length (Ir.Prog.stmts_under attention.body))
    (float_of_int (Ir.Prog.total_flops attention));

  (* numerical check against the OCaml reference *)
  let rng = Util.Rng.create 2024 in
  let t = Interp.alloc_tensors attention in
  List.iter
    (fun name ->
      let store = Hashtbl.find t name in
      for i = 0 to Array.length store - 1 do
        store.(i) <- Util.Rng.float_range rng (-1.0) 1.0
      done)
    [ "q"; "k"; "v" ];
  let expect =
    reference (Hashtbl.find t "q") (Hashtbl.find t "k") (Hashtbl.find t "v")
  in
  Interp.run attention t;
  let o = Hashtbl.find t "o" in
  Array.iteri
    (fun i v ->
      if abs_float (v -. expect.(i)) > 1e-3 then
        failwith (Printf.sprintf "mismatch at %d: %g vs %g" i v expect.(i)))
    o;
  print_endline "matches the independent OCaml reference: OK\n";

  (* whole-block optimization vs the per-operator library schedule *)
  List.iter
    (fun target ->
      let lib = Baselines.pytorch target attention in
      let lib_time = Baselines.time target lib in
      let ours =
        Perfdojo.(optimize_best ~ctx:Ctx.default ~budget:250 target attention)
      in
      Printf.printf "%-22s library(per-op) %.3e s   whole-block %.3e s   (%.2fx)\n"
        (Machine.Desc.target_name target)
        lib_time ours.time_s (lib_time /. ours.time_s))
    [
      Machine.Desc.Cpu Machine.Desc.xeon_e5_2695v4;
      Machine.Desc.Cpu Machine.Desc.grace_arm;
      Machine.Desc.Gpu Machine.Desc.gh200;
    ];

  (* show where the whole-block win comes from on the CPU *)
  let target = Machine.Desc.Cpu Machine.Desc.xeon_e5_2695v4 in
  let ours =
    Perfdojo.(optimize_best ~ctx:Ctx.default ~budget:250 target attention)
  in
  print_endline "\nwhole-block x86 schedule:";
  print_endline (Ir.Printer.body ours.schedule)
