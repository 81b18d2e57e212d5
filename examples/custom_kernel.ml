(* Extending the library: define a new operator in the textual IR, check
   it against a reference implementation, then optimize it for two
   targets.  This is the workflow for covering new ONNX operators.

   Run with:  dune exec examples/custom_kernel.exe *)

open Perfdojo

(* A "hardswish"-style activation followed by a row sum — a composite
   operator no library ships as one kernel:
     t = x * min(max(x + 3, 0), 6) / 6
     z[i] = sum_j t[i, j]                                              *)
let n = 512
let m = 256

let kernel_text =
  Printf.sprintf
    ("x f32 [%d, %d] heap\n" ^^ "t f32 [%d, %d] heap\n"
   ^^ "z f32 [%d] heap\n" ^^ "inputs: x\noutputs: z\n" ^^ "%d\n"
   ^^ "| %d\n"
   ^^ "| | t[{0},{1}] = x[{0},{1}] * min(max(x[{0},{1}] + 3, 0), 6) / 6\n"
   ^^ "%d\n" ^^ "| z[{0}] = 0\n" ^^ "| %d\n"
   ^^ "| | z[{0}] = z[{0}] + t[{0},{1}]\n")
    n m n m n n m n m

let reference x =
  let z = Array.make n 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      let v = x.((i * m) + j) in
      z.(i) <- z.(i) +. (v *. Float.min (Float.max (v +. 3.0) 0.0) 6.0 /. 6.0)
    done
  done;
  z

let () =
  (* parse and validate *)
  let prog = Ir.Parser.program kernel_text in
  Ir.Validate.check_exn prog;
  print_endline "parsed and validated:";
  print_endline (Ir.Printer.body prog);

  (* check against the independent OCaml reference on random data *)
  let rng = Util.Rng.create 123 in
  let t = Interp.alloc_tensors prog in
  let x = Hashtbl.find t "x" in
  for i = 0 to Array.length x - 1 do
    x.(i) <- Util.Rng.float_range rng (-6.0) 6.0
  done;
  let expect = reference x in
  Interp.run prog t;
  let z = Hashtbl.find t "z" in
  Array.iteri
    (fun i v ->
      if abs_float (v -. expect.(i)) > 1e-3 *. Float.max 1.0 (abs_float v)
      then failwith (Printf.sprintf "mismatch at %d: %g vs %g" i v expect.(i)))
    z;
  print_endline "\nmatches the independent OCaml reference: OK";

  (* optimize for two very different targets from the same definition *)
  List.iter
    (fun target ->
      let o =
        Perfdojo.(optimize_best ~ctx:Ctx.default ~budget:150 target prog)
      in
      Printf.printf "\n%s: %.3e s -> %.3e s (%.1fx)\n"
        (Machine.Desc.target_name target)
        (Machine.time target prog)
        o.time_s
        (Machine.time target prog /. o.time_s);
      (* the fused/reused schedule, not the naive two-pass one *)
      print_endline (Ir.Printer.body o.schedule))
    [
      Machine.Desc.Cpu Machine.Desc.xeon_e5_2695v4;
      Machine.Desc.Snitch Machine.Desc.snitch_cluster;
    ]
