(* Quickstart: the 5-minute tour of the public API.

   Run with:  dune exec examples/quickstart.exe *)

open Perfdojo

let () =
  (* 1. Pick a kernel (or build your own — see custom_kernel.ml). *)
  let prog = Kernels.softmax ~n:1024 ~m:256 in
  print_endline "=== the PerfDojo textual IR (Figure 3b) ===";
  print_string (Ir.Printer.program prog);

  (* 2. Pick a target machine.  Hardware knowledge enters only as the
     set of transformations the target exposes. *)
  let target = Machine.Desc.Cpu Machine.Desc.avx512_cpu in
  Printf.printf "\nnaive runtime on %s: %.3e s\n"
    (Machine.Desc.target_name target)
    (Machine.time target prog);

  (* 3. Play the performance game manually: list moves, apply some. *)
  let game = Game.start target prog in
  let moves = Game.moves game in
  Printf.printf "\n%d applicable transformations; first five:\n"
    (List.length moves);
  List.iteri
    (fun i (_, d) -> if i < 5 then Printf.printf "  %s\n" d)
    moves;
  let t = Game.play_named game "join_scopes([0,3])" in
  Printf.printf "\nafter join_scopes([0,3]): %.3e s\n" t;
  let t = Game.play_named game "parallelize([0])" in
  Printf.printf "after parallelize([0]):   %.3e s\n" t;

  (* ... and undo the fusion while keeping the parallelization: the
     history is non-destructive. *)
  (match Game.undo_at game 1 with
  | Some _ -> print_endline "undid the fusion, parallelization kept"
  | None -> print_endline "(undo refused: later move depended on it)");

  (* 4. Every move is semantics-preserving by construction; check it
     numerically anyway, like the paper does. *)
  (match Game.verify game with
  | Ok () -> print_endline "numerical equivalence to original: OK"
  | Error e -> failwith e);

  (* 5. Or let the machine play: a one-call automatic optimization. *)
  let outcome = optimize_best ~ctx:Ctx.default ~budget:150 target prog in
  Printf.printf "\nautomatic optimization: %.3e s (%.1fx speedup)\n"
    outcome.time_s
    (Machine.time target prog /. outcome.time_s);

  (* 6. Generate C for the winning schedule. *)
  print_endline "\n=== generated C (truncated) ===";
  let c = Codegen.program outcome.schedule in
  let lines = String.split_on_char '\n' c in
  List.iteri (fun i l -> if i < 25 then print_endline l) lines;
  if List.length lines > 25 then print_endline "..."
