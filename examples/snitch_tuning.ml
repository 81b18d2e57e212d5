(* Bringing up a new accelerator (§4.1): the Snitch RISC-V core with SSR
   and FREP extensions.  The vendor ships *transformations* (enable_ssr,
   enable_frep) and a cycle-approximate simulator — not a tuned library —
   and the generic machinery does the rest.

   Run with:  dune exec examples/snitch_tuning.exe *)

open Perfdojo

let optimize = optimize_ctx ~ctx:Ctx.default

let () =
  let sn = Machine.Desc.snitch_cluster in
  let target = Machine.Desc.Snitch sn in
  Printf.printf "target: %s (1 FPU, %d-cycle FP latency, %d SSR streams)\n\n"
    (Machine.Desc.target_name target)
    sn.sn_fp_latency sn.sn_ssr_streams;

  Printf.printf "%-14s %10s %10s %10s %10s   (fraction of peak)\n" "kernel"
    "naive" "greedy" "heuristic" "search";
  List.iter
    (fun (e : Kernels.entry) ->
      let p = e.build () in
      let frac q = Machine.Snitch_sim.peak_fraction sn q in
      let n = optimize Naive target p in
      let g = optimize Greedy target p in
      let h = optimize Heuristic target p in
      let s =
        optimize
          (Annealing { budget = 120; space = Search.Stochastic.Heuristic })
          target p
      in
      Printf.printf "%-14s %10.3f %10.3f %10.3f %10.3f\n" e.label
        (frac n.schedule) (frac g.schedule) (frac h.schedule)
        (frac s.schedule))
    Kernels.snitch_micro;

  (* Show what the pipeline produced for one kernel, down to the
     SSR/FREP-annotated C. *)
  let p = Kernels.gemv ~m:64 ~n:64 in
  let h = optimize Heuristic target p in
  print_endline "\ngemv schedule found by the heuristic pass:";
  print_endline (Ir.Printer.body h.schedule);
  print_endline "\ngenerated Snitch C:";
  print_string (Codegen.program h.schedule);

  (* The latency-hiding story in one picture: the same kernel with and
     without the tile-by-4 trick. *)
  let g = optimize Greedy target p in
  Printf.printf
    "\ngreedy (SSR+FREP only):      %.3f of peak\n\
     heuristic (+ tile-4 unroll): %.3f of peak\n"
    (Machine.Snitch_sim.peak_fraction sn g.schedule)
    (Machine.Snitch_sim.peak_fraction sn h.schedule)
