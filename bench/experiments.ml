(* The experiment harness: one entry per table / figure of the paper's
   evaluation (see DESIGN.md for the index).  Every experiment prints the
   rows/series the paper reports; EXPERIMENTS.md records paper-vs-measured
   for each. *)

open Perfdojo
module Desc = Machine.Desc
module Stoch = Search.Stochastic

let snitch = Desc.snitch_cluster
let target_snitch = Desc.Snitch snitch
let caps_snitch = Machine.caps target_snitch
let xeon = Desc.xeon_e5_2695v4
let target_x86 = Desc.Cpu xeon
let caps_x86 = Machine.caps target_x86
let gh200 = Desc.gh200
let mi300a = Desc.mi300a

let time target p = Machine.time target p

(* ------------------------------------------------------------------ *)
(* Table 1: representation feature matrix                              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  Report.header "Table 1: Features available in representations";
  Report.table
    [ "feature"; "GCC"; "Polly"; "Halide"; "DaCe"; "TVM"; "PerfDojo" ]
    [
      [ "Manual transformations"; "x"; "x"; "y"; "y"; "y"; "y" ];
      [ "Semantic preservation"; "y"; "y"; "x"; "x"; "y"; "y" ];
      [ "Atomic transformations"; "x"; "x"; "x"; "x"; "y"; "y" ];
      [ "Heuristics not required"; "x"; "x"; "y"; "y"; "x"; "y" ];
      [ "Unconstrained search space"; "x"; "y"; "x"; "y"; "x"; "y" ];
      [ "Non-destructive transformations"; "x"; "y"; "x"; "x"; "x"; "y" ];
    ];
  print_endline
    "\nPerfDojo column is exercised by this repository's test suite:";
  print_endline
    "  manual transformations + semantic preservation -> test_transform.ml";
  print_endline "  atomic moves + undo (non-destructive)        -> engine tests";
  print_endline "  no heuristics required                       -> PerfLLM (test_rl.ml)"

(* ------------------------------------------------------------------ *)
(* Table 2: supported representation features                          *)
(* ------------------------------------------------------------------ *)

let table2 () =
  Report.header "Table 2: Supported representation features";
  let show label text =
    let p = Ir.Parser.program text in
    Ir.Validate.check_exn p;
    (* run it to prove the interpreter supports the feature *)
    let rng = Util.Rng.create 1 in
    let t = Interp.random_inputs rng p in
    Interp.run p t;
    Printf.printf "%-22s %s\n" label
      (String.concat "  |  "
         (List.filter
            (fun l -> String.trim l <> "")
            (String.split_on_char '\n' (Ir.Printer.body p))))
  in
  show "Element-wise"
    ("x f32 [4, 6] heap\ny f32 [4, 6] heap\nz f32 [4, 6] heap\n"
   ^ "inputs: x, y\noutputs: z\n4\n| 6\n| | z[{0},{1}] = x[{0},{1}] * y[{0},{1}]\n");
  show "Broadcast"
    ("x f32 [4] heap\nz f32 [4, 6] heap\ninputs: x\noutputs: z\n"
   ^ "4\n| 6\n| | z[{0},{1}] = x[{0}]\n");
  show "Constant as value"
    ("x f32 [4, 6] heap\nz f32 [4, 6] heap\ninputs: x\noutputs: z\n"
   ^ "4\n| 6\n| | z[{0},{1}] = x[{0},{1}] * 3\n");
  show "Index as value"
    ("x f32 [4, 6] heap\nz f32 [4, 6] heap\ninputs: x\noutputs: z\n"
   ^ "4\n| 6\n| | z[{0},{1}] = x[{0},{1}] * {0}\n");
  show "Reduction"
    ("x f32 [4, 6] heap\nz f32 [4] heap\ninputs: x\noutputs: z\n"
   ^ "4\n| z[{0}] = 0\n| 6\n| | z[{0}] = z[{0}] + x[{0},{1}]\n");
  print_endline
    "\nExcluded by design (semantic preservation, as in the paper):";
  print_endline
    "  indirection, data-dependent range, dependent iteration, general control flow"

(* ------------------------------------------------------------------ *)
(* Table 3: the ML operator set                                        *)
(* ------------------------------------------------------------------ *)

let table3 () =
  Report.header "Table 3: ML operators optimized using PerfLLM";
  Report.table
    [ "label"; "input shape"; "description"; "flops"; "buffers" ]
    (List.map
       (fun (e : Kernels.entry) ->
         let p = e.build () in
         [
           e.label;
           e.shape_desc;
           e.description;
           Printf.sprintf "%.3e" (float_of_int (Ir.Prog.total_flops p));
           string_of_int (List.length p.buffers);
         ])
       Kernels.table3)

(* ------------------------------------------------------------------ *)
(* Figure 3: softmax representations                                   *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  Report.header "Figure 3: Softmax kernel representations";
  let p = Kernels.softmax ~n:24576 ~m:512 in
  Report.subheader "(b) textual form";
  print_string (Ir.Printer.program p);
  Report.subheader "(d) generated C (naive schedule)";
  print_string (Codegen.program p);
  Report.subheader "generated C (optimized x86 schedule)";
  let opt = Search.Passes.cpu_heuristic caps_x86 p in
  print_string (Codegen.program opt)

(* ------------------------------------------------------------------ *)
(* Figure 5: reuse_dims needs prior fusion                             *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  Report.header "Figure 5: reuse_dims is only offered after join_scopes";
  let text =
    "x f32 [6] heap\nt f32 [6] heap\nz f32 [6] heap\n"
    ^ "inputs: x\noutputs: z\n6\n| t[{0}] = x[{0}] * 2\n"
    ^ "6\n| z[{0}] = t[{0}] + 1\n"
  in
  let p = Ir.Parser.program text in
  let offered prog name target =
    List.exists
      (fun (i : Transform.Xforms.instance) ->
        i.xname = name && i.target = target)
      (Transform.Xforms.all caps_x86 prog)
  in
  Printf.printf "before fusion: reuse_dims(t dim 0) offered = %b\n"
    (offered p "reuse_dims" "t dim 0");
  let joined =
    (List.find
       (fun (i : Transform.Xforms.instance) -> i.xname = "join_scopes")
       (Transform.Xforms.all caps_x86 p))
      .apply p
  in
  Printf.printf "after fusion:  reuse_dims(t dim 0) offered = %b\n"
    (offered joined "reuse_dims" "t dim 0");
  (* demonstrate that the blocked application really is wrong *)
  let forced =
    Ir.Prog.replace_buffer p
      { (Ir.Prog.buffer_by_name p "t") with reuse = [ true ] }
  in
  (match Interp.equivalent p forced with
  | Ok () -> print_endline "unexpected: forced reuse passed"
  | Error e -> Printf.printf "forcing reuse without fusion fails: %s\n" e);
  let safe =
    Ir.Prog.replace_buffer joined
      { (Ir.Prog.buffer_by_name joined "t") with reuse = [ true ] }
  in
  match Interp.equivalent p safe with
  | Ok () -> print_endline "reuse after fusion verifies numerically: OK"
  | Error e -> Printf.printf "unexpected failure: %s\n" e

(* ------------------------------------------------------------------ *)
(* Figure 6: original vs Max Q-learning on the paper's toy MDP         *)
(* ------------------------------------------------------------------ *)

(* The example of Figure 6: from S0, action a0 stops immediately with a
   decent reward; action a1 walks through *worse* states — enabling
   transformations that temporarily degrade performance, the plateaus of
   Figure 9 — before reaching S3, the best achievable state.  Standard
   Q-learning maximizes the expected cumulative reward, which the
   negative intermediate steps pull below the stop value; Max Q-learning
   propagates the peak and picks a1.  Reproduced with exact tabular
   value iteration over the two Bellman operators. *)
let fig6 () =
  Report.header "Figure 6: Q-value updates, original vs Max Q-learning";
  (* states 0..3; transitions: (state, action) -> (next, reward);
     action 0 = stop (terminal), action 1 = continue *)
  let gamma = 0.9 in
  let step s a =
    match (s, a) with
    | 0, 0 -> Some (-1, 1.0) (* stop: decent immediate reward *)
    | 0, 1 -> Some (1, -1.0) (* enabling move: temporarily slower *)
    | 1, 0 -> Some (-1, -1.0)
    | 1, 1 -> Some (2, -1.0)
    | 2, 0 -> Some (-1, -1.0)
    | 2, 1 -> Some (3, 3.0) (* S3: the best achievable state *)
    | 3, _ -> None (* terminal *)
    | _ -> None
  in
  let solve max_bellman =
    let q = Array.make_matrix 4 2 0.0 in
    for _ = 1 to 200 do
      for s = 0 to 3 do
        for a = 0 to 1 do
          match step s a with
          | None -> q.(s).(a) <- 0.0
          | Some (s', r) ->
              let future =
                if s' < 0 then 0.0
                else Float.max q.(s').(0) q.(s').(1)
              in
              q.(s).(a) <-
                (if max_bellman then Float.max r (gamma *. future)
                 else r +. (gamma *. future))
        done
      done
    done;
    q
  in
  let orig = solve false and maxq = solve true in
  Report.table
    [ "objective"; "Q(S0,stop)"; "Q(S0,continue)"; "chosen action" ]
    [
      [
        "original Q-learning";
        Report.f3 orig.(0).(0);
        Report.f3 orig.(0).(1);
        (if orig.(0).(0) >= orig.(0).(1) then "stop" else "continue");
      ];
      [
        "Max Q-learning";
        Report.f3 maxq.(0).(0);
        Report.f3 maxq.(0).(1);
        (if maxq.(0).(0) >= maxq.(0).(1) then "stop" else "continue");
      ];
    ];
  print_endline
    "\n(enabling transformations temporarily degrade performance, so the\n\
    \ cumulative objective stops immediately while Max Q-learning pursues\n\
    \ the peak-reward state S3, as in the paper's example)"

(* ------------------------------------------------------------------ *)
(* Figures 4 and 9: the manual softmax journey on an AVX-512 CPU       *)
(* ------------------------------------------------------------------ *)

(* A scripted manual optimization session: at each step, pick the first
   applicable move whose description contains the given pattern. *)
let journey target prog (script : string list) =
  let game = Game.start target prog in
  let steps = ref [ ("(start)", Machine.time target prog) ] in
  List.iter
    (fun pattern ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        m = 0 || go 0
      in
      match
        List.find_opt
          (fun (_, d) -> contains d pattern)
          (Game.moves game)
      with
      | Some (i, d) ->
          let t = Game.play game i in
          steps := (d, t) :: !steps
      | None -> Printf.printf "  (skipped: %s not applicable)\n" pattern)
    script;
  (game, List.rev !steps)

let softmax_script =
  [
    (* fuse the exponentiation with the sum accumulation: one pass over
       the row instead of two *)
    "join_scopes([0,3])";
    (* enabling moves with no immediate effect (the plateaus of Fig. 9):
       localize the row temporaries *)
    "set_storage(mx -> stack)";
    "set_storage(s -> stack)";
    (* parallelize over rows *)
    "parallelize([0])";
    (* break the max-reduction dependency chain with 8 partial
       accumulators, unrolled into independent chains *)
    "split_reduction([0,1] into 8)";
    "unroll([0,2,0])";
    (* vectorize the division loop: tile to the AVX-512 width first *)
    "split_scope([0,6] factor 16)";
    "vectorize([0,6,0])";
  ]

let fig4_9 () =
  Report.header
    "Figures 4 & 9: manual transformation journey (softmax, AVX-512 CPU)";
  let avx = Desc.avx512_cpu in
  let target = Desc.Cpu avx in
  let p = Kernels.softmax ~n:24576 ~m:512 in
  let game, steps = journey target p softmax_script in
  Report.table
    [ "step"; "move"; "runtime (s)"; "speedup vs start" ]
    (List.mapi
       (fun i (d, t) ->
         [
           string_of_int i;
           d;
           Report.e3 t;
           Report.x2 (snd (List.hd steps) /. t);
         ])
       steps);
  (match Game.verify game with
  | Ok () ->
      print_endline
        "\nsemantic check: final program numerically equals the original (OK)"
  | Error e -> Printf.printf "\nsemantic check FAILED: %s\n" e);
  Report.subheader "final schedule";
  print_endline (Ir.Printer.body (Game.state game))

(* ------------------------------------------------------------------ *)
(* Figure 7: Snitch pass strategies                                    *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  Report.header
    "Figure 7: Snitch micro-kernels, transformation strategies (frac of peak)";
  let rows =
    List.map
      (fun (e : Kernels.entry) ->
        let p = e.build () in
        let frac q = Machine.Snitch_sim.peak_fraction snitch q in
        let n = frac (Search.Passes.naive caps_snitch p) in
        let g = frac (Search.Passes.greedy caps_snitch p) in
        let h = frac (Search.Passes.heuristic caps_snitch p) in
        (e.label, n, g, h))
      Kernels.snitch_micro
  in
  Report.table
    [ "kernel"; "naive"; "greedy"; "heuristic" ]
    (List.map
       (fun (l, n, g, h) -> [ l; Report.f3 n; Report.f3 g; Report.f3 h ])
       rows);
  let gm f = Report.geomean (Array.of_list (List.map f rows)) in
  let gn = gm (fun (_, n, _, _) -> n)
  and gg = gm (fun (_, _, g, _) -> g)
  and gh = gm (fun (_, _, _, h) -> h) in
  Printf.printf
    "\ngeomean fraction of peak: naive %.3f  greedy %.3f  heuristic %.3f\n" gn
    gg gh;
  Printf.printf "geomean speedup over naive: greedy %s, heuristic %s\n"
    (Report.x2 (gg /. gn))
    (Report.x2 (gh /. gn));
  print_endline
    "(paper: greedy +46%, heuristic +58% over naive; same ordering)"

(* ------------------------------------------------------------------ *)
(* Figure 8: Snitch micro-kernels across frameworks                    *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  Report.header
    "Figure 8: Snitch micro-kernels, frameworks (fraction of peak)";
  let budget = Report.search_budget () in
  let rows =
    List.map
      (fun (e : Kernels.entry) ->
        let p = e.build () in
        let frac q = Machine.Snitch_sim.peak_fraction snitch q in
        (* plain C: the naive nest through the scalar compiler *)
        let c = frac p in
        (* TVM does not know the Snitch extensions: its template space
           has no SSR/FREP moves *)
        let tvm_filter (i : Transform.Xforms.instance) =
          Baselines.tvm_template i
          && i.xname <> "enable_ssr" && i.xname <> "enable_frep"
        in
        let tvm =
          frac
            (Stoch.simulated_annealing ~seed:11 ~filter:tvm_filter
               ~space:Stoch.Edges ~budget:(budget / 2) caps_snitch
               (time target_snitch) p)
              .best
        in
        let greedy = frac (Search.Passes.greedy caps_snitch p) in
        let heuristic = frac (Search.Passes.heuristic caps_snitch p) in
        let handwritten =
          frac (Baselines.handwritten_snitch caps_snitch p).prog
        in
        (* "transformed": the manual transformation-centric session,
           represented by the best of the heuristic pass and a
           human-budget heuristic-space refinement *)
        let refined =
          (Stoch.simulated_annealing ~seed:3 ~space:Stoch.Heuristic
             ~budget:(budget / 2) caps_snitch (time target_snitch) p)
            .best
        in
        let transformed = Float.max heuristic (frac refined) in
        (e.label, c, tvm, greedy, heuristic, transformed, handwritten))
      Kernels.snitch_micro
  in
  Report.table
    [ "kernel"; "C"; "TVM"; "greedy"; "heuristic"; "transformed";
      "handwritten" ]
    (List.map
       (fun (l, c, t, g, h, tr, hw) ->
         [ l; Report.f3 c; Report.f3 t; Report.f3 g; Report.f3 h;
           Report.f3 tr; Report.f3 hw ])
       rows);
  let gm f = Report.geomean (Array.of_list (List.map f rows)) in
  Printf.printf
    "\ngeomean transformed/handwritten: %s   (paper: 1.13x)\n"
    (Report.x2
       (gm (fun (_, _, _, _, _, tr, _) -> tr)
       /. gm (fun (_, _, _, _, _, _, hw) -> hw)))

(* ------------------------------------------------------------------ *)
(* Figures 10 and 11: x86 kernel performance across frameworks         *)
(* ------------------------------------------------------------------ *)

type x86_kernel = { xlabel : string; prog : Ir.Prog.t }

let x86_report ~budget (kernels : x86_kernel list) =
  let rows =
    List.map
      (fun k ->
        let p = k.prog in
        let t_of (s : Baselines.scheduled) = Baselines.time target_x86 s in
        let pt = t_of (Baselines.pytorch target_x86 p) in
        let ort = t_of (Baselines.onnxruntime target_x86 p) in
        let jx = t_of (Baselines.jax target_x86 p) in
        let dnn = t_of (Baselines.onednn target_x86 p) in
        let pl = Baselines.pluto ~label:k.xlabel target_x86 p in
        let plt = t_of pl in
        let tv = Baselines.tvm ~budget ~label:k.xlabel target_x86 p in
        let tvt = t_of tv in
        let heur = optimize_ctx ~ctx:Ctx.default Heuristic target_x86 p in
        let search =
          optimize_ctx ~ctx:Ctx.default
            (Annealing { budget; space = Stoch.Heuristic })
            target_x86 p
        in
        let best = Float.min heur.time_s search.time_s in
        ( k.xlabel, pt, ort, jx, dnn, plt, tvt, heur.time_s,
          Float.min search.time_s best,
          (match pl.verdict with
          | Baselines.Failed_validation -> "pluto:INVALID"
          | _ -> ""),
          match tv.verdict with
          | Baselines.No_valid_schedule -> "tvm:NO-SCHEDULE"
          | _ -> "" ))
      kernels
  in
  Report.table
    [ "kernel"; "PyTorch"; "ONNXRT"; "JAX"; "OneDNN"; "Pluto"; "TVM";
      "ours(heur)"; "ours(search)"; "notes" ]
    (List.map
       (fun (l, pt, ort, jx, dnn, plt, tvt, h, s, note1, note2) ->
         [
           l; Report.e3 pt; Report.e3 ort; Report.e3 jx; Report.e3 dnn;
           Report.e3 plt; Report.e3 tvt; Report.e3 h; Report.e3 s;
           String.concat " " (List.filter (fun s -> s <> "") [ note1; note2 ]);
         ])
       rows);
  rows

let fig10 () =
  Report.header
    "Figure 10: x86 kernel performance, uncommon sizes (runtime, lower = better)";
  let budget = Report.search_budget () in
  let kernels =
    [
      { xlabel = "softmax"; prog = Kernels.softmax ~n:2000 ~m:130 };
      { xlabel = "layernorm"; prog = Kernels.layernorm ~n:1000 ~m:750 };
      { xlabel = "matmul"; prog = Kernels.matmul ~m:500 ~k:500 ~n:500 };
      { xlabel = "mul"; prog = Kernels.mul ~n:998 ~m:1000 };
      { xlabel = "reducemean"; prog = Kernels.reducemean ~n:3000 ~m:70 };
      { xlabel = "rmsnorm"; prog = Kernels.rmsnorm ~n:1027 ~m:514 };
      { xlabel = "relu"; prog = Kernels.relu ~n:999 ~m:1111 };
      { xlabel = "gemv"; prog = Kernels.gemv ~m:1000 ~n:1700 };
    ]
  in
  let rows = x86_report ~budget kernels in
  let gm f =
    Report.geomean (Array.of_list (List.map f rows))
  in
  Printf.printf
    "\ngeomean speedup ours(best) vs best library: %s\n"
    (Report.x2
       (gm (fun (_, pt, ort, jx, dnn, _, _, _, _, _, _) ->
            Float.min (Float.min pt ort) (Float.min jx dnn))
       /. gm (fun (_, _, _, _, _, _, _, h, s, _, _) -> Float.min h s)))

let fig11 () =
  Report.header
    "Figure 11: x86 performance on shapes from existing models (Table 3)";
  let budget = Report.search_budget () in
  let kernels =
    List.map
      (fun (e : Kernels.entry) -> { xlabel = e.label; prog = e.build () })
      Kernels.table3
  in
  let rows = x86_report ~budget kernels in
  (* the paper excludes SwiGLU (TVM produces no valid schedule there) *)
  let included =
    List.filter (fun (l, _, _, _, _, _, _, _, _, _, _) -> l <> "swiglu") rows
  in
  let gm f = Report.geomean (Array.of_list (List.map f included)) in
  Printf.printf
    "\ngeomean speedup ours(best) over TVM (excl. swiglu): %s   (paper: 1.076x)\n"
    (Report.x2
       (gm (fun (_, _, _, _, _, _, tvt, _, _, _, _) -> tvt)
       /. gm (fun (_, _, _, _, _, _, _, h, s, _, _) -> Float.min h s)))

(* ------------------------------------------------------------------ *)
(* Figure 12: convergence of search methods x space structures         *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  Report.header
    "Figure 12: convergence, {sampling, annealing} x {edges, heuristic}";
  let budget = Report.search_budget () in
  let p = Kernels.softmax ~n:512 ~m:512 in
  let objective = time target_x86 in
  let runs =
    [
      ( "sampling/edges",
        Stoch.random_sampling ~seed:1 ~space:Stoch.Edges ~budget caps_x86
          objective p );
      ( "sampling/heuristic",
        Stoch.random_sampling ~seed:1 ~space:Stoch.Heuristic ~budget caps_x86
          objective p );
      ( "annealing/edges",
        Stoch.simulated_annealing ~seed:1 ~space:Stoch.Edges ~budget caps_x86
          objective p );
      ( "annealing/heuristic",
        Stoch.simulated_annealing ~seed:1 ~space:Stoch.Heuristic ~budget
          caps_x86 objective p );
    ]
  in
  let checkpoints =
    List.filter (fun c -> c <= budget) [ 1; 5; 10; 25; 50; 100; 200; 400; 700; 1000 ]
  in
  Report.table
    ("method/evals" :: List.map string_of_int checkpoints)
    (List.map
       (fun (name, (r : Stoch.result)) ->
         name
         :: List.map (fun c -> Report.e3 r.curve.(c - 1)) checkpoints)
       runs);
  print_endline
    "\n(best-so-far modelled runtime in seconds; heuristic-structured spaces";
  print_endline
    " converge faster than edges-structured ones, as in the paper)"

(* ------------------------------------------------------------------ *)
(* Figures 1b and 13: PerfLLM on GH200 and MI300A                      *)
(* ------------------------------------------------------------------ *)

let perfllm_gpu ~gpu ~figure ~paper_note () =
  Report.header figure;
  let target = Desc.Gpu gpu in
  let caps = Machine.caps target in
  let episodes = Report.rl_episodes () in
  let cfg =
    {
      Rl.Perfllm.default_config with
      episodes;
      max_steps = 20;
      action_cap = 28;
    }
  in
  let rows =
    List.map
      (fun (e : Kernels.entry) ->
        let p = e.build () in
        let pt = Baselines.time target (Baselines.pytorch target p) in
        let tvm_sched = Baselines.tvm ~budget:150 ~label:e.label target p in
        let tvm = Baselines.time target tvm_sched in
        let rl, _ =
          Rl.Perfllm.optimize ~cfg ~seed:17 caps (time target) p
        in
        Printf.printf "  tuned %-12s perfdojo %s  pytorch %s  tvm %s%s\n%!"
          e.label (Report.e3 rl.best_time) (Report.e3 pt) (Report.e3 tvm)
          (match tvm_sched.verdict with
          | Baselines.No_valid_schedule -> "  [tvm: default schedule]"
          | _ -> "");
        (e.label, pt, tvm, rl.best_time))
      Kernels.table3
  in
  print_newline ();
  Report.table
    [ "kernel"; "vs PyTorch"; "vs TVM" ]
    (List.map
       (fun (l, pt, tvm, ours) ->
         [ l; Report.x2 (pt /. ours); Report.x2 (tvm /. ours) ])
       rows);
  let gm f = Report.geomean (Array.of_list (List.map f rows)) in
  Printf.printf "\ngeomean speedup: %s vs PyTorch, %s vs TVM   %s\n"
    (Report.x2 (gm (fun (_, pt, _, o) -> pt /. o)))
    (Report.x2 (gm (fun (_, _, tvm, o) -> tvm /. o)))
    paper_note

let fig1b () =
  perfllm_gpu ~gpu:gh200
    ~figure:"Figure 1b: PerfDojo (PerfLLM) on GH200 vs PyTorch and TVM"
    ~paper_note:"(paper: 6.65x vs PyTorch, 13.65x vs TVM)" ()

let fig13 () =
  perfllm_gpu ~gpu:mi300a
    ~figure:"Figure 13: PerfDojo (PerfLLM) on MI300A vs PyTorch and TVM"
    ~paper_note:"(paper: 1.56x vs PyTorch, 1.80x vs TVM)" ()

(* ------------------------------------------------------------------ *)
(* Figure 14: discovered GPU kernels in detail                         *)
(* ------------------------------------------------------------------ *)

let fig14 () =
  Report.header "Figure 14: GPU kernel implementations discovered";
  Report.subheader
    "(a) elementwise multiplication 6x14336 on GH200";
  let target = Desc.Gpu gh200 in
  let caps = Machine.caps target in
  let p = Kernels.mul ~n:6 ~m:14336 in
  let cfg =
    {
      Rl.Perfllm.default_config with
      episodes = Report.rl_episodes ();
      max_steps = 16;
      action_cap = 28;
    }
  in
  let rl, _ = Rl.Perfllm.optimize ~cfg ~seed:23 caps (time target) p in
  let heur = optimize_ctx ~ctx:Ctx.default Heuristic target p in
  let best = if rl.best_time <= heur.time_s then rl.best else heur.schedule in
  print_endline (Ir.Printer.body best);
  let pt = Baselines.time target (Baselines.pytorch target p) in
  Printf.printf "\nruntime %s vs PyTorch %s -> %s (paper: 1.71x via 128-bit loads)\n"
    (Report.e3 (time target best))
    (Report.e3 pt)
    (Report.x2 (pt /. time target best));
  Report.subheader
    "(b) batch normalization 8x64x300x300 on MI300A (wavefront 64)";
  let target = Desc.Gpu mi300a in
  let caps = Machine.caps target in
  let p = Kernels.batchnorm ~n:8 ~c:64 ~h:300 ~w:300 in
  let heur =
    Search.Passes.gpu_heuristic ~warp:mi300a.warp caps p
  in
  let search =
    Stoch.simulated_annealing ~seed:5 ~space:Stoch.Heuristic
      ~budget:(Report.search_budget ()) caps (time target) p
  in
  let best =
    if time target heur <= search.best_time then heur else search.best
  in
  print_endline (Ir.Printer.body best);
  let padded =
    Ir.Prog.fold_nodes
      (fun acc _ n ->
        match n with
        | Ir.Types.Scope { size = 320; guard = Some 300; _ } -> true
        | _ -> acc)
      false best
  in
  Printf.printf
    "\nschedule pads a 300-iteration scope to 320 (5 wavefronts): %b\n"
    padded;
  let pt = Baselines.time target (Baselines.pytorch target p) in
  let tvm = Baselines.tvm ~budget:150 ~label:"batchnorm 2" target p in
  Printf.printf "runtime %s: %s vs PyTorch, %s vs TVM (paper: 1.12x, 1.76x)\n"
    (Report.e3 (time target best))
    (Report.x2 (pt /. time target best))
    (Report.x2 (Baselines.time target tvm /. time target best));
  print_endline
    "(temporaries e, v, a, b stay in host statements before the kernel launch)"

(* ------------------------------------------------------------------ *)
(* Arm (Grace) — the conclusion's Arm datapoint                        *)
(* ------------------------------------------------------------------ *)

let arm () =
  Report.header
    "Arm (Neoverse V2 / Grace): automated optimization vs PyTorch";
  let target = Desc.Cpu Desc.grace_arm in
  let budget = Report.search_budget () in
  let rows =
    List.map
      (fun (e : Kernels.entry) ->
        let p = e.build () in
        let pt = Baselines.time target (Baselines.pytorch target p) in
        let tvm = Baselines.tvm ~budget ~label:e.label target p in
        let ours = optimize_best ~ctx:Ctx.default ~budget target p in
        (e.label, pt, Baselines.time target tvm, ours.time_s))
      Kernels.table3
  in
  Report.table
    [ "kernel"; "PyTorch"; "TVM"; "PerfDojo"; "vs PyTorch"; "vs TVM" ]
    (List.map
       (fun (l, pt, tvm, o) ->
         [ l; Report.e3 pt; Report.e3 tvm; Report.e3 o;
           Report.x2 (pt /. o); Report.x2 (tvm /. o) ])
       rows);
  let gm f = Report.geomean (Array.of_list (List.map f rows)) in
  Printf.printf "\ngeomean speedup: %s vs PyTorch, %s vs TVM\n"
    (Report.x2 (gm (fun (_, pt, _, o) -> pt /. o)))
    (Report.x2 (gm (fun (_, _, tvm, o) -> tvm /. o)))

(* ------------------------------------------------------------------ *)
(* RL ablations (Sections 3.2 / 3.3)                                   *)
(* ------------------------------------------------------------------ *)

let rl_ablation () =
  Report.header
    "RL ablation: max-Bellman / Double DQN / Dueling (softmax micro, Snitch)";
  let p = Kernels.gemv ~m:64 ~n:64 in
  let run name dqn_cfg =
    let cfg =
      {
        Rl.Perfllm.default_config with
        episodes = 12;
        max_steps = 12;
        action_cap = 20;
        dqn = dqn_cfg;
      }
    in
    let r, _ =
      Rl.Perfllm.optimize ~cfg ~seed:31 caps_snitch (time target_snitch) p
    in
    (name, r.best_time, r.episode_best.(Array.length r.episode_best - 1))
  in
  let base = Rl.Dqn.default_config in
  let rows =
    [
      run "full (max-Bellman + double + dueling)" base;
      run "standard Bellman" { base with max_bellman = false };
      run "no double DQN" { base with double_dqn = false };
      run "no dueling" { base with dueling = false };
    ]
  in
  (* reward-shape comparison: the paper's exact r = c/T vs the
     log-compressed default used at these scaled-down budgets *)
  let run_shape name shape =
    let cfg =
      {
        Rl.Perfllm.default_config with
        episodes = 12;
        max_steps = 12;
        action_cap = 20;
        reward_shape = shape;
      }
    in
    let r, _ =
      Rl.Perfllm.optimize ~cfg ~seed:31 caps_snitch (time target_snitch) p
    in
    (name, r.best_time, 0.0)
  in
  let rows =
    rows
    @ [
        run "prioritized replay (excluded in paper)"
          { base with prioritized = true };
        run_shape "reward r = c/T (paper)" Rl.Perfllm.Inverse_runtime;
        run_shape "reward r = log(c/T) (default)" Rl.Perfllm.Log_speedup;
      ]
  in
  (* the policy-gradient alternative the paper rejects (§3.2) *)
  let rows =
    rows
    @ [
        (let cfg =
           {
             Rl.Reinforce.default_config with
             episodes = 12;
             max_steps = 12;
             action_cap = 20;
           }
         in
         let r =
           Rl.Reinforce.optimize ~cfg ~seed:31 caps_snitch
             (time target_snitch) p
         in
         ("policy gradient (REINFORCE, rejected in paper)", r.best_time, 0.0));
      ]
  in
  let naive_time = time target_snitch p in
  Report.table
    [ "variant"; "best runtime"; "speedup vs naive" ]
    (List.map
       (fun (n, t, _) -> [ n; Report.e3 t; Report.x2 (naive_time /. t) ])
       rows)

(* ------------------------------------------------------------------ *)
(* Tuning database: memoized search + warm-start trajectory            *)
(* ------------------------------------------------------------------ *)

(* Set by bench/main.ml's --db flag; when given, the experiment loads
   and updates a persistent database so successive bench runs keep
   improving on recorded schedules. *)
let tuning_db_file : string option ref = ref None

let tuning () =
  Report.header
    "Tuning DB: memoized evaluation and warm-started search trajectory";
  let budget = Report.search_budget () / 2 in
  let db =
    match !tuning_db_file with
    | None -> Tuning.Db.create ()
    | Some f -> (
        match Tuning.Db.load f with
        | Ok db -> db
        | Error msg ->
            Printf.printf "  (ignoring unreadable db: %s)\n" msg;
            Tuning.Db.create ())
  in
  let workloads =
    [
      ("softmax", Kernels.softmax ~n:512 ~m:512, "x86", target_x86);
      ("softmax", Kernels.softmax ~n:24576 ~m:512, "snitch", target_snitch);
      ("gemv", Kernels.gemv ~m:4096 ~n:4096, "snitch", target_snitch);
      ("layernorm", Kernels.layernorm ~n:512 ~m:1024, "x86", target_x86);
    ]
  in
  let summaries =
    List.map
      (fun (kernel, p, tname, target) ->
        let strat =
          Perfdojo.Annealing { budget; space = Stoch.Heuristic }
        in
        (* each run deposits its winner under the one deposit rule *)
        let run ctx =
          let o, record =
            Perfdojo.optimize_recorded ~ctx ~kernel ~target_name:tname strat
              target p
          in
          Option.iter (fun r -> ignore (Tuning.Db.add db r)) record;
          o
        in
        (* cold run: empty cache, no warm start *)
        let cold_cache = Tuning.Cache.create () in
        let cold =
          run Perfdojo.Ctx.(default |> with_seed 1 |> with_cache cold_cache)
        in
        (* warm run: fresh cache, seeded from the database's best *)
        let warm_cache = Tuning.Cache.create () in
        let warm_start =
          Tuning.Warmstart.moves_for db ~kernel ~target:tname ~root:p
        in
        let warm =
          run
            Perfdojo.Ctx.(
              default |> with_seed 2 |> with_cache warm_cache
              |> with_warm_start warm_start)
        in
        (kernel, tname, time target p, cold, cold_cache, warm, warm_cache))
      workloads
  in
  Report.table
    [
      "kernel"; "target"; "naive"; "cold best"; "warm best"; "hit rate";
      "evals saved";
    ]
    (List.map
       (fun (kernel, tname, naive, (cold : Perfdojo.outcome), _,
             (warm : Perfdojo.outcome), warm_cache) ->
         [
           kernel; tname;
           Report.e3 naive;
           Report.e3 cold.time_s;
           Report.e3 warm.time_s;
           Printf.sprintf "%.1f%%" (100. *. Tuning.Cache.hit_rate warm_cache);
           string_of_int (Tuning.Cache.hits warm_cache);
         ])
       summaries);
  print_endline
    "\n(warm runs are seeded from the database's recorded best and never";
  print_endline
    " finish behind it; hits are performance-model evaluations avoided)";
  (* machine-readable summary for the perf trajectory *)
  let json =
    Util.Json.Obj
      [
        ("budget", Util.Json.Num (float_of_int budget));
        ( "workloads",
          Util.Json.Arr
            (List.map
               (fun (kernel, tname, _, (cold : Perfdojo.outcome), cold_cache,
                     (warm : Perfdojo.outcome), warm_cache) ->
                 Util.Json.Obj
                   [
                     ("kernel", Util.Json.Str kernel);
                     ("target", Util.Json.Str tname);
                     ("cold_best_s", Util.Json.Num cold.time_s);
                     ("warm_best_s", Util.Json.Num warm.time_s);
                     ( "cold_hit_rate",
                       Util.Json.Num (Tuning.Cache.hit_rate cold_cache) );
                     ( "warm_hit_rate",
                       Util.Json.Num (Tuning.Cache.hit_rate warm_cache) );
                     ( "evals_saved",
                       Util.Json.Num
                         (float_of_int
                            (Tuning.Cache.hits cold_cache
                            + Tuning.Cache.hits warm_cache)) );
                   ])
               summaries) );
      ]
  in
  let oc = open_out "BENCH_tuning.json" in
  output_string oc (Util.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "\nwrote BENCH_tuning.json";
  match !tuning_db_file with
  | None -> ()
  | Some f ->
      Tuning.Db.save db f;
      Printf.printf "tuning database saved: %s (%d records)\n" f
        (Tuning.Db.size db)

(* ------------------------------------------------------------------ *)
(* Parallel search: worker domains vs wall-clock                       *)
(* ------------------------------------------------------------------ *)

(* The multicore story: the batched annealing search produces the same
   result for every jobs >= 1 (same seed, same batch), so the only thing
   --jobs buys is wall-clock time.  This experiment measures it, checks
   the invariance, and records jobs -> {wall, speedup} for the roadmap's
   perf trajectory.

   The analytic machine models answer in microseconds, so candidate
   evaluation here is never the bottleneck it is in production, where a
   candidate is measured by running it on the device (AutoTVM-style) and
   the host mostly *waits*.  We emulate that measuring backend with a
   fixed per-evaluation round-trip so the experiment exercises the
   latency-hiding that parallel evaluation exists for; the modelled time
   itself stays exact, so the jobs-invariance check is still strict. *)
let parallel () =
  Report.header
    "Parallel search: worker domains vs wall-clock (annealing, softmax \
     512x512, x86)";
  let budget = Report.search_budget () in
  let batch = 16 in
  let measure_latency = 0.002 (* s per evaluation, simulated device *) in
  let p = Kernels.softmax ~n:512 ~m:512 in
  let objective q =
    let t = time target_x86 q in
    Unix.sleepf measure_latency;
    t
  in
  let run jobs =
    (* every run traces into its own buffer: the stripped streams must
       agree across jobs (the observability layer's invariance
       guarantee), and the last run's stream becomes the JSONL sidecar *)
    let obs = Obs.Trace.make_buffer () in
    Parallel.Pool.with_pool ~jobs (fun pool ->
        let t0 = Unix.gettimeofday () in
        let r =
          Stoch.simulated_annealing ~seed:1 ~obs ~batch ~pool
            ~space:Stoch.Heuristic ~budget caps_x86 objective p
        in
        (r, Unix.gettimeofday () -. t0, obs))
  in
  (* sequential reference: the default --jobs 0 algorithm *)
  let t0 = Unix.gettimeofday () in
  let seq =
    Stoch.simulated_annealing ~seed:1 ~space:Stoch.Heuristic ~budget caps_x86
      objective p
  in
  let seq_wall = Unix.gettimeofday () -. t0 in
  let jobs_list = [ 1; 2; 4 ] in
  let results = List.map (fun j -> (j, run j)) jobs_list in
  let (r1 : Stoch.result), w1, obs1 = snd (List.hd results) in
  let identical =
    List.for_all
      (fun (_, ((r : Stoch.result), _, _)) ->
        r.best_time = r1.best_time && r.best_moves = r1.best_moves)
      results
  in
  let stripped obs =
    List.map Obs.Trace.strip_timing (Obs.Trace.events obs)
  in
  let trace_identical =
    let ref_stream = stripped obs1 in
    List.for_all
      (fun (_, (_, _, obs)) -> stripped obs = ref_stream)
      results
  in
  Report.table
    [ "jobs"; "wall (s)"; "speedup vs jobs=1"; "best (s)"; "evals" ]
    ([ "seq (jobs=0)"; Printf.sprintf "%.3f" seq_wall; "-";
       Report.e3 seq.best_time; string_of_int seq.evals ]
    :: List.map
         (fun (j, ((r : Stoch.result), w, _)) ->
           [
             string_of_int j;
             Printf.sprintf "%.3f" w;
             Report.x2 (w1 /. w);
             Report.e3 r.best_time;
             string_of_int r.evals;
           ])
         results);
  Printf.printf
    "\nresult identical across jobs (same seed, batch %d): %b\n" batch
    identical;
  Printf.printf "trace identical across jobs (modulo dur_s): %b\n"
    trace_identical;
  Printf.printf "recommended jobs on this machine: %d\n"
    (Parallel.Pool.default_jobs ());
  (* JSONL trace sidecar: one canonical event per line, from the last
     (highest-jobs) run.  bench/trace_lint.exe re-parses it and the
     @smoke alias fails on any malformed line. *)
  let _, (_, _, obs_last) = List.nth results (List.length results - 1) in
  let oc = open_out "BENCH_parallel_trace.jsonl" in
  List.iter
    (fun ev ->
      output_string oc (Util.Json.to_string ev);
      output_char oc '\n')
    (Obs.Trace.events obs_last);
  close_out oc;
  print_endline "wrote BENCH_parallel_trace.jsonl";
  let json =
    Util.Json.Obj
      [
        ("budget", Util.Json.Num (float_of_int budget));
        ("batch", Util.Json.Num (float_of_int batch));
        ("measure_latency_s", Util.Json.Num measure_latency);
        ("workload", Util.Json.Str "annealing/heuristic softmax 512x512 x86");
        ("identical", Util.Json.Str (string_of_bool identical));
        ("trace_identical", Util.Json.Str (string_of_bool trace_identical));
        ("seq_wall_s", Util.Json.Num seq_wall);
        ( "runs",
          Util.Json.Arr
            (List.map
               (fun (j, ((r : Stoch.result), w, _)) ->
                 Util.Json.Obj
                   [
                     ("jobs", Util.Json.Num (float_of_int j));
                     ("wall_s", Util.Json.Num w);
                     ("speedup_vs_jobs1", Util.Json.Num (w1 /. w));
                     ("best_s", Util.Json.Num r.best_time);
                   ])
               results) );
      ]
  in
  let oc = open_out "BENCH_parallel.json" in
  output_string oc (Util.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_parallel.json"

(* ------------------------------------------------------------------ *)
(* Fault tolerance: guarded search under injected failures             *)
(* ------------------------------------------------------------------ *)

(* Set by bench/main.ml's --fault-rate flag. *)
let fault_rate = ref 0.2

(* The degradation story end to end: with a deterministic fraction of
   evaluations raising, returning NaN or burning fuel, the guarded
   search must still finish, still produce a numerically correct
   schedule, account for every quarantined evaluation (outcome.failures
   = traced search.eval_error events), and stay jobs-invariant — the
   *same* candidates fail at --jobs 1 and --jobs 4.  The experiment
   hard-fails (and with it @smoke) if any of that breaks.  It also
   measures what the guard costs when nothing fails: the overhead of
   wrapping every evaluation must be noise. *)
let faults () =
  Report.header
    "Fault tolerance: annealing under injected faults (softmax 64x64, x86)";
  let budget = max 8 (Report.search_budget () / 4) in
  let rate = !fault_rate in
  let p = Kernels.softmax ~n:64 ~m:64 in
  let injected =
    if rate = 0. then Robust.Faults.none
    else Robust.Faults.spread ~seed:7 rate
  in
  let strat = Perfdojo.Annealing { budget; space = Stoch.Heuristic } in
  let count_eval_errors obs =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Util.Json.Obj (("ev", Util.Json.Str "search.eval_error") :: _) ->
            acc + 1
        | _ -> acc)
      0 (Obs.Trace.events obs)
  in
  let run label jobs strat =
    let obs = Obs.Trace.make_buffer () in
    let t0 = Unix.gettimeofday () in
    let o =
      Perfdojo.optimize_ctx
        ~ctx:
          Perfdojo.Ctx.(
            default |> with_seed 1 |> with_jobs jobs |> with_obs obs
            |> with_faults injected)
        strat target_x86 p
    in
    let wall = Unix.gettimeofday () -. t0 in
    (* a degraded run is still a correct run *)
    (match Interp.equivalent p o.schedule with
    | Ok () -> ()
    | Error msg ->
        failwith
          (Printf.sprintf "%s: schedule failed verification: %s" label msg));
    let traced = count_eval_errors obs in
    if traced <> o.failures then
      failwith
        (Printf.sprintf
           "%s: outcome.failures = %d but %d search.eval_error events traced"
           label o.failures traced);
    (label, o, wall, obs)
  in
  let runs =
    [
      run "annealing jobs=0" 0 strat;
      run "annealing jobs=1" 1 strat;
      run "annealing jobs=4" 4 strat;
      run "portfolio jobs=4" 4 (Perfdojo.Portfolio { budget });
    ]
  in
  Report.table
    [ "run"; "wall (s)"; "best (s)"; "evals"; "failures" ]
    (List.map
       (fun (label, (o : Perfdojo.outcome), wall, _) ->
         [
           label;
           Printf.sprintf "%.3f" wall;
           Report.e3 o.time_s;
           string_of_int o.evaluations;
           string_of_int o.failures;
         ])
       runs);
  (* jobs-invariance extends to the failures: jobs=1 and jobs=4 anneal
     the same candidates, quarantine the same candidates, and trace the
     same stream modulo wall-clock fields *)
  let stripped obs =
    List.map Obs.Trace.strip_timing (Obs.Trace.events obs)
  in
  let _, o1, _, obs1 = List.nth runs 1 in
  let _, o4, _, obs4 = List.nth runs 2 in
  let trace_identical =
    o1.time_s = o4.time_s
    && o1.failures = o4.failures
    && stripped obs1 = stripped obs4
  in
  if not trace_identical then
    failwith "faults: jobs=1 and jobs=4 disagree under injected faults";
  Printf.printf
    "\ninjected fault rate %.2f: every run verified numerically; failures \
     accounted exactly;\n\
     jobs=1 and jobs=4 identical (same quarantined candidates): %b\n"
    rate trace_identical;
  (* guard overhead when nothing fails: wrap the same objective in
     Guard.eval and compare against calling it raw *)
  let evals = 20_000 in
  let objective q = time target_x86 q in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to evals do
    ignore (objective p)
  done;
  let raw_s = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to evals do
    ignore (Robust.Guard.eval objective p)
  done;
  let guarded_s = Unix.gettimeofday () -. t0 in
  let overhead = if raw_s > 0. then guarded_s /. raw_s else 1. in
  Printf.printf
    "guard overhead at fault rate 0: %d evals raw %.4f s, guarded %.4f s \
     -> %.3fx\n"
    evals raw_s guarded_s overhead;
  if overhead > 5. then
    failwith
      (Printf.sprintf "faults: guard overhead %.2fx exceeds 5x bound"
         overhead);
  let json =
    Util.Json.Obj
      [
        ("fault_rate", Util.Json.Num rate);
        ("budget", Util.Json.Num (float_of_int budget));
        ("workload", Util.Json.Str "annealing/heuristic softmax 64x64 x86");
        ("trace_identical", Util.Json.Str (string_of_bool trace_identical));
        ("guard_overhead_ratio", Util.Json.Num overhead);
        ("guard_overhead_evals", Util.Json.Num (float_of_int evals));
        ( "runs",
          Util.Json.Arr
            (List.map
               (fun (label, (o : Perfdojo.outcome), wall, _) ->
                 Util.Json.Obj
                   [
                     ("run", Util.Json.Str label);
                     ("wall_s", Util.Json.Num wall);
                     ("best_s", Util.Json.Num o.time_s);
                     ("evals", Util.Json.Num (float_of_int o.evaluations));
                     ("failures", Util.Json.Num (float_of_int o.failures));
                   ])
               runs) );
      ]
  in
  let oc = open_out "BENCH_faults.json" in
  output_string oc (Util.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_faults.json"

(* ------------------------------------------------------------------ *)
(* Library generation: the whole operator suite in one run             *)
(* ------------------------------------------------------------------ *)

(* The batch generator end to end: every kernel in the default suite
   optimized for x86 and Snitch, C sources + umbrella header + manifest
   emitted, then a second run over the same tuning database that must
   skip every fingerprint-matched pair.  Hard-fails (and with it
   @smoke) if the jobs=1 and jobs=4 manifests differ byte-for-byte or
   if the warm run re-optimizes an up-to-date pair.  The final (warm)
   library lands in BENCH_libgen/, whose manifest.json @smoke lints
   with trace_lint --json. *)
let libgen () =
  Report.header
    "Library generation: whole-suite batch optimize + emit (x86 + Snitch)";
  let budget = max 4 (Report.search_budget () / 8) in
  let strat = Perfdojo.Annealing { budget; space = Stoch.Heuristic } in
  let targets = [ "x86"; "snitch" ] in
  let read_file path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let run ~db ~jobs out =
    let t0 = Unix.gettimeofday () in
    let lib =
      Libgen.generate ~strategy:strat ~db
        ~ctx:Perfdojo.Ctx.(default |> with_jobs jobs)
        ~targets ~out ()
    in
    (lib, Unix.gettimeofday () -. t0)
  in
  let lib1, w1 = run ~db:(Tuning.Db.create ()) ~jobs:1 "BENCH_libgen_jobs1" in
  let db = Tuning.Db.create () in
  let lib4, w4 = run ~db ~jobs:4 "BENCH_libgen_jobs4" in
  let m1 = read_file "BENCH_libgen_jobs1/manifest.json" in
  let m4 = read_file "BENCH_libgen_jobs4/manifest.json" in
  if m1 <> m4 then
    failwith "libgen: jobs=1 and jobs=4 manifests differ byte-for-byte";
  (* warm run over the jobs=4 database: every recorded pair must skip *)
  let warm, ww = run ~db ~jobs:4 "BENCH_libgen" in
  let pairs = List.length warm.Libgen.entries in
  if lib4.Libgen.degraded = 0 && warm.Libgen.skipped <> pairs then
    failwith
      (Printf.sprintf "libgen: warm run skipped %d of %d up-to-date pairs"
         warm.Libgen.skipped pairs);
  let row label (lib : Libgen.library) wall =
    [
      label;
      Printf.sprintf "%.3f" wall;
      string_of_int lib.Libgen.fresh;
      string_of_int lib.Libgen.skipped;
      string_of_int lib.Libgen.degraded;
    ]
  in
  Report.table
    [ "run"; "wall (s)"; "fresh"; "skipped"; "degraded" ]
    [
      row "cold jobs=1" lib1 w1;
      row "cold jobs=4" lib4 w4;
      row "warm jobs=4" warm ww;
    ];
  let n_kernels = List.length (Libgen.default_kernels ()) in
  let skip_rate = float_of_int warm.Libgen.skipped /. float_of_int pairs in
  Printf.printf
    "\nsuite coverage: %d kernels x %d targets = %d pairs; manifests \
     byte-identical across jobs\n"
    n_kernels (List.length targets) pairs;
  Printf.printf
    "parallel cold run: %s vs jobs=1; warm run skips %.0f%% in %.3f s\n"
    (Report.x2 (w1 /. w4))
    (100. *. skip_rate) ww;
  let json =
    Util.Json.Obj
      [
        ("budget", Util.Json.Num (float_of_int budget));
        ("kernels", Util.Json.Num (float_of_int n_kernels));
        ( "targets",
          Util.Json.Arr (List.map (fun t -> Util.Json.Str t) targets) );
        ("pairs", Util.Json.Num (float_of_int pairs));
        ("manifest_identical", Util.Json.Str (string_of_bool (m1 = m4)));
        ("cold_wall_jobs1_s", Util.Json.Num w1);
        ("cold_wall_jobs4_s", Util.Json.Num w4);
        ("parallel_speedup", Util.Json.Num (w1 /. w4));
        ("warm_wall_s", Util.Json.Num ww);
        ("warm_skip_rate", Util.Json.Num skip_rate);
        ("fresh", Util.Json.Num (float_of_int lib4.Libgen.fresh));
        ("skipped", Util.Json.Num (float_of_int warm.Libgen.skipped));
        ("degraded", Util.Json.Num (float_of_int warm.Libgen.degraded));
      ]
  in
  let oc = open_out "BENCH_libgen.json" in
  output_string oc (Util.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_libgen.json (library in BENCH_libgen/)"

(* ------------------------------------------------------------------ *)
(* The tuning service: warm-query fast path vs cold search latency     *)
(* ------------------------------------------------------------------ *)

(* An in-process server under a mixed workload: one cold pass that
   searches and deposits every pair, then rounds of optimize + query
   over the same pairs that must all hit the warm path.  Hard-fails
   (and with it @smoke) unless the post-cold pass is 100% warm, the
   warm p50 sits at least 100x below the cold p50, and shutdown
   acknowledges exactly one database record per pair.  The server's
   trace lands in BENCH_serve_trace.jsonl for trace_lint. *)
let serve () =
  Report.header "Tuning service: warm-query fast path vs cold search";
  let module S = Serve.Server in
  let module P = Serve.Protocol in
  let budget = max 16 (Report.search_budget () / 2) in
  let target = "snitch" in
  let kernels = [ "scale"; "axpy"; "dot"; "vecsum" ] in
  let oc = open_out "BENCH_serve_trace.jsonl" in
  let metrics = Obs.Metrics.create () in
  let cfg =
    {
      S.default_config with
      queue_depth = 32;
      workers = 2;
      default_budget = budget;
      obs = Obs.Trace.to_channel oc;
      metrics = Some metrics;
    }
  in
  let server = S.create cfg in
  let next_id = ref 0 in
  let fresh () =
    incr next_id;
    !next_id
  in
  let optimize k =
    P.Optimize
      {
        id = fresh ();
        kernel = k;
        target;
        strategy = "annealing";
        budget;
        deadline_ms = 0;
        force = false;
      }
  in
  let query k = P.Query { id = fresh (); kernel = k; target } in
  (* cold pass: every pair searches and deposits *)
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun k ->
      match S.submit server (optimize k) with
      | P.Optimized { warm = false; _ } -> ()
      | P.Optimized { warm = true; _ } ->
          failwith ("serve: first request for " ^ k ^ " answered warm")
      | r ->
          failwith
            ("serve: cold optimize of " ^ k ^ " answered "
           ^ P.response_kind r))
    kernels;
  let cold_wall = Unix.gettimeofday () -. t0 in
  (* warm pass: optimize + query rounds, every one must hit warm *)
  let rounds = 50 in
  let warm_total = ref 0 in
  let warm_misses = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rounds do
    List.iter
      (fun k ->
        incr warm_total;
        (match S.submit server (optimize k) with
        | P.Optimized { warm = true; _ } -> ()
        | _ -> incr warm_misses);
        incr warm_total;
        match S.submit server (query k) with
        | P.Queried { found = true; _ } -> ()
        | _ -> incr warm_misses)
      kernels
  done;
  let warm_wall = Unix.gettimeofday () -. t0 in
  if !warm_misses > 0 then
    failwith
      (Printf.sprintf "serve: %d of %d post-cold requests missed the warm path"
         !warm_misses !warm_total);
  let summary name : Obs.Metrics.summary =
    match Obs.Metrics.histogram metrics name with
    | Some s -> s
    | None -> failwith ("serve: no samples in histogram " ^ name)
  in
  let w = summary "serve.latency_warm_s" in
  let c = summary "serve.latency_cold_s" in
  let ratio = c.p50 /. w.p50 in
  if ratio < 100. then
    failwith
      (Printf.sprintf
         "serve: warm p50 only %.0fx below cold p50 (%.3e vs %.3e)" ratio
         w.p50 c.p50);
  let requests =
    match S.submit server (P.Stats { id = fresh () }) with
    | P.Stats_reply { counters; _ } -> (
        match List.assoc_opt "serve.requests" counters with
        | Some n -> n
        | None -> failwith "serve: stats reply lacks serve.requests")
    | r -> failwith ("serve: stats answered " ^ P.response_kind r)
  in
  let records =
    match S.submit server (P.Shutdown { id = fresh () }) with
    | P.Shutdown_ack { records; _ } -> records
    | r -> failwith ("serve: shutdown answered " ^ P.response_kind r)
  in
  close_out oc;
  if records <> List.length kernels then
    failwith
      (Printf.sprintf "serve: %d records at shutdown, expected %d" records
         (List.length kernels));
  let req_s = float_of_int !warm_total /. warm_wall in
  Report.table
    [ "path"; "requests"; "wall (s)"; "p50 (s)"; "p99 (s)" ]
    [
      [
        "cold"; string_of_int c.count; Printf.sprintf "%.3f" cold_wall;
        Report.e3 c.p50; Report.e3 c.p99;
      ];
      [
        "warm"; string_of_int w.count; Printf.sprintf "%.3f" warm_wall;
        Report.e3 w.p50; Report.e3 w.p99;
      ];
    ];
  Printf.printf
    "\nwarm pass: 100%% hit (%d/%d), %.0f req/s; warm p50 %s below cold \
     p50\n"
    (!warm_total - !warm_misses)
    !warm_total req_s (Report.x2 ratio);
  let json =
    Util.Json.Obj
      [
        ("budget", Util.Json.Num (float_of_int budget));
        ("target", Util.Json.Str target);
        ( "kernels",
          Util.Json.Arr (List.map (fun k -> Util.Json.Str k) kernels) );
        ("requests", Util.Json.Num (float_of_int requests));
        ("cold_wall_s", Util.Json.Num cold_wall);
        ("warm_wall_s", Util.Json.Num warm_wall);
        ("warm_req_per_s", Util.Json.Num req_s);
        ("cold_p50_s", Util.Json.Num c.p50);
        ("cold_p99_s", Util.Json.Num c.p99);
        ("warm_p50_s", Util.Json.Num w.p50);
        ("warm_p99_s", Util.Json.Num w.p99);
        ("warm_to_cold_p50", Util.Json.Num ratio);
        ( "warm_hit_rate",
          Util.Json.Num
            (float_of_int (!warm_total - !warm_misses)
            /. float_of_int !warm_total) );
        ("records", Util.Json.Num (float_of_int records));
      ]
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc (Util.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_serve.json"

(* ------------------------------------------------------------------ *)
(* Surrogate pre-ranking: evaluations saved at equal quality           *)
(* ------------------------------------------------------------------ *)

(* Train the linear ranking model on the Table-3 kernels, then search a
   held-out softmax shape twice under the same seed and budget: once
   plain, once with the model pre-ranking every candidate batch at
   filter-ratio 0.25 plus intra-batch dedup.  The claim under test: the
   filtered search stays within 5% of the unfiltered best time while
   paying for at most 40% of its simulator evaluations.  The budget is
   pinned (not PERFDOJO_BUDGET) so the assertions are deterministic. *)
let surrogate () =
  Report.header "Surrogate cost model: pre-ranked search vs full search";
  let budget = 96 in
  let target = target_x86 in
  let strat = Perfdojo.Sampling { budget; space = Stoch.Heuristic } in
  let oc = open_out "BENCH_surrogate_trace.jsonl" in
  let obs = Obs.Trace.to_channel oc in
  let metrics = Obs.Metrics.create () in
  (* phase 1: online training on the Table-3 kernels.  filter_ratio
     stays 1.0, so the model scores and learns from every real
     evaluation but never filters. *)
  let model = Surrogate.Model.create () in
  let train_outcomes =
    List.map
      (fun (e : Kernels.entry) ->
        let ctx =
          Ctx.(
            default |> with_seed 3 |> with_surrogate model |> with_obs obs
            |> with_metrics metrics)
        in
        (e, optimize_ctx ~ctx strat target (e.build ())))
      Kernels.table3
  in
  let online_updates = Surrogate.Model.updates model in
  if online_updates = 0 then
    failwith "surrogate: online training made no model updates";
  (* the offline path (perfdojo model train): every training run's
     winner plus its root becomes a database record, each
     (kernel, target) group a ranking constraint *)
  let records =
    List.concat_map
      (fun ((e : Kernels.entry), (o : outcome)) ->
        let root = e.build () in
        [
          Tuning.Record.make ~kernel:e.label ~target:"x86" ~moves:[]
            ~best_time:(time target root) ~evals:1 ~root ();
          Tuning.Record.make ~kernel:e.label ~target:"x86" ~moves:o.moves
            ~best_time:o.time_s ~evals:o.evaluations ~root ();
        ])
      train_outcomes
  in
  let offline = Surrogate.Model.create () in
  let stats : Surrogate.Model.offline_stats =
    Surrogate.Model.train_offline offline
      ~root_of:(fun ~kernel ~target:_ ->
        match Kernels.find_entry Kernels.table3 kernel with
        | e -> Some (e.build (), caps_x86)
        | exception Invalid_argument _ -> None)
      records
  in
  if stats.pairs = 0 then
    failwith "surrogate: offline training produced no ranking pairs";
  let canon m = Util.Json.to_string (Surrogate.Model.to_json m) in
  let clone m =
    match Surrogate.Model.of_json (Surrogate.Model.to_json m) with
    | Ok c -> c
    | Error e -> failwith ("surrogate: model round-trip failed: " ^ e)
  in
  if canon (clone offline) <> canon offline then
    failwith "surrogate: model serialization is not byte-stable";
  (* phase 2: held-out shape (not among the Table-3 shapes).  The
     baseline runs the same batched engine with the same seed, so the
     only difference is the pre-ranking filter. *)
  let held_out () = Kernels.softmax ~n:48 ~m:96 in
  let baseline =
    let ctx =
      Ctx.(
        default |> with_seed 11 |> with_jobs 1 |> with_obs obs
        |> with_metrics metrics)
    in
    optimize_ctx ~ctx strat target (held_out ())
  in
  let filtered_run jobs =
    let ctx =
      Ctx.(
        default |> with_seed 11 |> with_jobs jobs
        |> with_surrogate (clone model)
        |> with_filter_ratio 0.25 |> with_dedup true |> with_obs obs
        |> with_metrics metrics)
    in
    optimize_ctx ~ctx strat target (held_out ())
  in
  let filt = filtered_run 1 in
  let filt4 = filtered_run 4 in
  close_out oc;
  if filt.time_s <> filt4.time_s || filt.evaluations <> filt4.evaluations
  then
    failwith
      (Printf.sprintf
         "surrogate: filtered search is not jobs-invariant (%.3e/%d vs \
          %.3e/%d)"
         filt.time_s filt.evaluations filt4.time_s filt4.evaluations);
  let regression = filt.time_s /. baseline.time_s in
  let reduction =
    float_of_int baseline.evaluations /. float_of_int (max 1 filt.evaluations)
  in
  if regression > 1.05 then
    failwith
      (Printf.sprintf
         "surrogate: filtered best %.3e is %.1f%% over baseline %.3e"
         filt.time_s
         ((regression -. 1.) *. 100.)
         baseline.time_s);
  if float_of_int filt.evaluations > 0.4 *. float_of_int baseline.evaluations
  then
    failwith
      (Printf.sprintf
         "surrogate: filtered search used %d of %d evaluations (> 40%%)"
         filt.evaluations baseline.evaluations);
  if reduction < 2.5 then
    failwith
      (Printf.sprintf "surrogate: only %.2fx evaluation reduction" reduction);
  Report.table
    [ "path"; "best (s)"; "sim evals"; "vs baseline" ]
    [
      [
        "full search"; Report.e3 baseline.time_s;
        string_of_int baseline.evaluations; "1.00x";
      ];
      [
        "filtered (r=0.25)"; Report.e3 filt.time_s;
        string_of_int filt.evaluations;
        Printf.sprintf "%.2fx best, %.1fx fewer evals" regression reduction;
      ];
    ];
  Printf.printf
    "\nonline updates %d; offline: %d records -> %d pairs, %d updates\n"
    online_updates stats.records stats.pairs
    (Surrogate.Model.updates offline);
  Printf.printf "scored %d, kept %d, filtered out %d, dedup saved %d\n"
    (Obs.Metrics.counter metrics "surrogate.scored")
    (Obs.Metrics.counter metrics "surrogate.kept")
    (Obs.Metrics.counter metrics "surrogate.filtered")
    (Obs.Metrics.counter metrics "surrogate.dedup_saved");
  let json =
    Util.Json.Obj
      [
        ("budget", Util.Json.Num (float_of_int budget));
        ( "train_kernels",
          Util.Json.Arr
            (List.map
               (fun (e : Kernels.entry) -> Util.Json.Str e.label)
               Kernels.table3) );
        ("held_out", Util.Json.Str "softmax n=48 m=96");
        ("filter_ratio", Util.Json.Num 0.25);
        ("baseline_best_s", Util.Json.Num baseline.time_s);
        ( "baseline_evals",
          Util.Json.Num (float_of_int baseline.evaluations) );
        ("filtered_best_s", Util.Json.Num filt.time_s);
        ("filtered_evals", Util.Json.Num (float_of_int filt.evaluations));
        ("best_time_ratio", Util.Json.Num regression);
        ("eval_reduction", Util.Json.Num reduction);
        ("online_updates", Util.Json.Num (float_of_int online_updates));
        ("offline_records", Util.Json.Num (float_of_int stats.records));
        ("offline_pairs", Util.Json.Num (float_of_int stats.pairs));
      ]
  in
  let oc = open_out "BENCH_surrogate.json" in
  output_string oc (Util.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_surrogate.json"

(* ------------------------------------------------------------------ *)
(* Exhaustive baseline: certified optima + visited-set eval savings    *)
(* ------------------------------------------------------------------ *)

(* Two claims, per small kernel:

   1. The exhaustive strategy enumerates the transformation graph to a
      small depth with canonical dedup and certifies the optimum within
      that bound, reporting the TransForm-style unique/total ratio (how
      many spellings each distinct state has).

   2. A stochastic search with the canonical visited set finds the same
      best schedule as the plain run while paying strictly fewer
      simulator evaluations — the saving the fingerprint exists for.

   Both are asserted (the experiment exits non-zero on violation) and
   recorded in BENCH_exhaustive.json; BENCH_exhaustive_trace.jsonl
   carries the exhaustive runs' level-by-level trace for trace_lint. *)
let exhaustive () =
  Report.header
    "Exhaustive baseline: certified optima and visited-set dedup savings";
  let depth = 3 in
  let budget = max 48 (Report.search_budget ()) in
  let kernels =
    [
      ("scale 16", Kernels.scale ~n:16, caps_snitch, target_snitch);
      ("relu 8x8", Kernels.relu ~n:8 ~m:8, caps_x86, target_x86);
    ]
  in
  let obs = Obs.Trace.make_buffer () in
  let rows =
    List.map
      (fun (label, p, caps, target) ->
        let ex =
          Search.Exhaustive.run ~obs ~depth caps (time target) p
        in
        if not ex.certified then
          failwith (label ^ ": exhaustive run not certified");
        if ex.unique >= ex.total then
          failwith (label ^ ": canonical dedup found no duplicates");
        let stoch visited_dedup =
          Parallel.Pool.with_pool ~jobs:2 (fun pool ->
              Stoch.simulated_annealing ~seed:5 ~visited_dedup
                ~batch:Stoch.default_batch ~pool ~space:Stoch.Heuristic
                ~budget caps (time target) p)
        in
        let plain = stoch false and dd = stoch true in
        (* the stochastic engines are calibrated against the
           certificate: within budget they must reach the certified
           optimum, and (the certificate being the point) never beat
           what exhaustive proved best within the depth bound *)
        if plain.best_time < ex.best_time *. (1. -. 1e-9) then
          failwith (label ^ ": stochastic beat the certified optimum");
        if plain.best_time > ex.best_time *. (1. +. 1e-9) then
          failwith
            (label ^ ": stochastic missed the certified optimum in budget");
        if dd.evals >= plain.evals then
          failwith
            (Printf.sprintf "%s: visited set saved nothing (%d >= %d)"
               label dd.evals plain.evals);
        if dd.best_time <> plain.best_time then
          failwith
            (Printf.sprintf "%s: visited-dedup changed the optimum"
               label);
        if
          dd.evals + dd.skipped + dd.deduped + dd.visited + dd.failures
          <> budget
        then failwith (label ^ ": budget accounting broken");
        (label, ex, plain, dd))
      kernels
  in
  Report.table
    [
      "kernel"; "depth"; "unique"; "total"; "ratio"; "certified";
      "optimum (s)"; "stoch best (s)"; "evals plain"; "evals visited";
    ]
    (List.map
       (fun (label, (ex : Search.Exhaustive.result), (plain : Stoch.result),
                 (dd : Stoch.result)) ->
         [
           label;
           string_of_int ex.depth;
           string_of_int ex.unique;
           string_of_int ex.total;
           Printf.sprintf "%.2f"
             (float_of_int ex.unique /. float_of_int ex.total);
           string_of_bool ex.certified;
           Report.e3 ex.best_time;
           Report.e3 plain.best_time;
           string_of_int plain.evals;
           string_of_int dd.evals;
         ])
       rows);
  Printf.printf
    "\nevery optimum certified to depth %d; visited-set runs matched the \
     plain optimum with strictly fewer evaluations\n"
    depth;
  let oc = open_out "BENCH_exhaustive_trace.jsonl" in
  List.iter
    (fun ev ->
      output_string oc (Util.Json.to_string ev);
      output_char oc '\n')
    (Obs.Trace.events obs);
  close_out oc;
  print_endline "wrote BENCH_exhaustive_trace.jsonl";
  let json =
    Util.Json.Obj
      [
        ("depth", Util.Json.Num (float_of_int depth));
        ("budget", Util.Json.Num (float_of_int budget));
        ( "kernels",
          Util.Json.Arr
            (List.map
               (fun (label, (ex : Search.Exhaustive.result),
                         (plain : Stoch.result), (dd : Stoch.result)) ->
                 Util.Json.Obj
                   [
                     ("kernel", Util.Json.Str label);
                     ("unique", Util.Json.Num (float_of_int ex.unique));
                     ("total", Util.Json.Num (float_of_int ex.total));
                     ( "unique_total_ratio",
                       Util.Json.Num
                         (float_of_int ex.unique /. float_of_int ex.total)
                     );
                     ( "certified",
                       Util.Json.Str (string_of_bool ex.certified) );
                     ( "exhausted",
                       Util.Json.Str (string_of_bool ex.exhausted) );
                     ("certified_best_s", Util.Json.Num ex.best_time);
                     ( "exhaustive_evals",
                       Util.Json.Num (float_of_int ex.evals) );
                     ("stoch_best_s", Util.Json.Num plain.best_time);
                     ( "stoch_evals_plain",
                       Util.Json.Num (float_of_int plain.evals) );
                     ( "stoch_evals_visited",
                       Util.Json.Num (float_of_int dd.evals) );
                     ( "visited_slots",
                       Util.Json.Num (float_of_int dd.visited) );
                   ])
               rows) );
      ]
  in
  let oc = open_out "BENCH_exhaustive.json" in
  output_string oc (Util.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_exhaustive.json"

(* ------------------------------------------------------------------ *)
(* Schedule scripts: composite macro-moves deepen the certified horizon *)
(* ------------------------------------------------------------------ *)

(* Three claims, per small kernel, all asserted (the experiment — and
   @smoke with it — exits non-zero on violation):

   1. With the registered composites enabled as macro-moves, the
      exhaustive walk at depth 2 certifies a schedule at least as good
      as the atomic depth-3 certified optimum — each macro packs a
      selector-guarded 2-3 move sequence into one search step — while
      discovering strictly fewer unique states and paying strictly
      fewer simulator evaluations.

   2. Script round-trip: converting the winning move sequence to a .pds
      script and replaying it through the selector resolver lands on
      the byte-identical program (printed text and canonical
      fingerprint) — the provenance a schema-3 database record carries.

   3. A script statement whose composite refuses fails all-or-nothing
      with a typed error (and a transfo.refused trace event), leaving
      no partial application behind.

   BENCH_script.json records the per-kernel numbers;
   BENCH_script_trace.jsonl carries the script.run / target.resolve /
   transfo.refused events for trace_lint. *)
let script () =
  Report.header
    "Schedule scripts: composite macro-moves vs the atomic optimum";
  let atomic_depth = 3 and composite_depth = 2 in
  let obs = Obs.Trace.make_buffer () in
  let caps_macro = Transfo.Composites.enable ~names:[ "all" ] caps_x86 in
  let kernels =
    [
      ("relu_micro 32x32", Kernels.relu ~n:32 ~m:32);
      ("gemv 64x64", Kernels.gemv ~m:64 ~n:64);
    ]
  in
  let rows =
    List.map
      (fun (label, p) ->
        let atomic =
          Search.Exhaustive.run ~obs ~depth:atomic_depth caps_x86
            (time target_x86) p
        in
        let macro =
          Search.Exhaustive.run ~obs ~depth:composite_depth caps_macro
            (time target_x86) p
        in
        if not (atomic.certified && macro.certified) then
          failwith (label ^ ": a run lost its certificate");
        if macro.best_time > atomic.best_time *. (1. +. 1e-9) then
          failwith
            (Printf.sprintf
               "%s: composite depth-%d missed the atomic depth-%d optimum \
                (%.3e > %.3e)"
               label composite_depth atomic_depth macro.best_time
               atomic.best_time);
        if macro.unique >= atomic.unique then
          failwith (label ^ ": composites did not shrink the state count");
        if macro.evals >= atomic.evals then
          failwith (label ^ ": composites did not save evaluations");
        (* round-trip: winning moves -> .pds -> selector replay ->
           byte-identical program *)
        let replayed =
          match Stoch.replay_exact caps_macro p macro.best_moves with
          | Ok q -> q
          | Error e ->
              failwith (label ^ ": winner is not move-replayable: " ^ e)
        in
        let pds = Transfo.Script.of_moves ~kernel:label macro.best_moves in
        (match Transfo.Script.parse (Transfo.Script.to_string pds) with
        | Error e -> failwith (label ^ ": emitted script unparseable: " ^ e)
        | Ok reparsed -> (
            match Transfo.Script.run ~obs caps_macro p reparsed with
            | Error e ->
                failwith
                  (label ^ ": script replay failed: "
                  ^ Transfo.Script.run_error_to_string e)
            | Ok (q, _) ->
                if
                  Ir.Printer.program q <> Ir.Printer.program replayed
                  || Tuning.Record.fingerprint q
                     <> Tuning.Record.fingerprint replayed
                then failwith (label ^ ": script round-trip not identical")));
        (label, atomic, macro))
      kernels
  in
  (* all-or-nothing refusal: fuse_chain at the root scope has no
     following sibling to fuse with, so the statement must fail typed
     (emitting transfo.refused) and leave the session untouched *)
  (match
     Transfo.Script.parse "pds 1\nat path [0] do fuse_chain\n"
   with
  | Error e -> failwith ("refusal script unparseable: " ^ e)
  | Ok s -> (
      match
        Transfo.Script.run ~obs caps_macro (Kernels.relu ~n:32 ~m:32) s
      with
      | Ok _ -> failwith "fuse_chain at the root unexpectedly applied"
      | Error { err = Target.Refused _; _ } -> ()
      | Error e ->
          failwith
            ("expected a refusal, got: "
            ^ Transfo.Script.run_error_to_string e)));
  Report.table
    [
      "kernel"; "atomic d3 (s)"; "states"; "evals"; "composite d2 (s)";
      "states"; "evals";
    ]
    (List.map
       (fun (label, (a : Search.Exhaustive.result),
                 (m : Search.Exhaustive.result)) ->
         [
           label;
           Report.e3 a.best_time;
           string_of_int a.unique;
           string_of_int a.evals;
           Report.e3 m.best_time;
           string_of_int m.unique;
           string_of_int m.evals;
         ])
       rows);
  Printf.printf
    "\ncomposite macro-moves certified the depth-%d atomic optimum (or \
     better) at depth %d with fewer states; every winner script \
     round-tripped byte-identically\n"
    atomic_depth composite_depth;
  let oc = open_out "BENCH_script_trace.jsonl" in
  List.iter
    (fun ev ->
      output_string oc (Util.Json.to_string ev);
      output_char oc '\n')
    (Obs.Trace.events obs);
  close_out oc;
  print_endline "wrote BENCH_script_trace.jsonl";
  let json =
    Util.Json.Obj
      [
        ("atomic_depth", Util.Json.Num (float_of_int atomic_depth));
        ("composite_depth", Util.Json.Num (float_of_int composite_depth));
        ( "kernels",
          Util.Json.Arr
            (List.map
               (fun (label, (a : Search.Exhaustive.result),
                         (m : Search.Exhaustive.result)) ->
                 Util.Json.Obj
                   [
                     ("kernel", Util.Json.Str label);
                     ("atomic_best_s", Util.Json.Num a.best_time);
                     ( "atomic_unique",
                       Util.Json.Num (float_of_int a.unique) );
                     ("atomic_evals", Util.Json.Num (float_of_int a.evals));
                     ("composite_best_s", Util.Json.Num m.best_time);
                     ( "composite_unique",
                       Util.Json.Num (float_of_int m.unique) );
                     ( "composite_evals",
                       Util.Json.Num (float_of_int m.evals) );
                     ( "speedup_vs_atomic",
                       Util.Json.Num (a.best_time /. m.best_time) );
                   ])
               rows) );
      ]
  in
  let oc = open_out "BENCH_script.json" in
  output_string oc (Util.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  print_endline "wrote BENCH_script.json"

(* ------------------------------------------------------------------ *)
(* Crash injection: kill -9 + resume must equal the uninterrupted run  *)
(* ------------------------------------------------------------------ *)

(* The acceptance gate for the recovery subsystem, not a demo.  Four
   sections, every claim asserted (the experiment — and @smoke with it
   — exits non-zero on violation):

   1. Stochastic kill-invariance: sampling and annealing, at jobs=1
      and jobs=4, are forked, SIGKILLed at a seeded evaluation index
      and resumed in a fresh process.  The resumed result (best
      schedule, curve, exact accounting) must equal the uninterrupted
      run's, and the killed trace's checkpointed prefix followed by
      the resumed trace must splice into the uninterrupted trace
      byte-identically (modulo wall-clock fields).

   2. Exhaustive: the resumed run must still certify the {e same}
      optimum, and must re-evaluate strictly fewer candidates than a
      cold restart would.

   3. Libgen ledger: a suite killed mid-run resumes at the first
      unfinished pair (journal.replayed >= 1) and still emits a
      manifest byte-identical to the uninterrupted run's; the ledger
      is truncated once the manifest lands.

   4. Serve WAL: a daemon SIGKILLed after N acknowledged deposits —
      none of them yet checkpointed into the database file — leaves
      all N visible to any other process's load (the database's
      journal) and recovers all N on restart, with the client riding
      the restart on bounded exponential-backoff reconnect. *)
let crash () =
  Report.header
    "Crash injection: kill -9 at seeded points; resume must be invariant";
  let dir = "BENCH_crash_dir" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let in_dir f = Filename.concat dir f in
  let rm f = if Sys.file_exists f then Sys.remove f in
  let read_file path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let read_lines path =
    let ic = open_in_bin path in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  in
  let strip_line l =
    match Util.Json.of_string l with
    | Ok j -> Util.Json.to_string (Obs.Trace.strip_timing j)
    | Error e -> failwith ("crash: unparseable trace line: " ^ e)
  in
  let strip_events evs =
    List.map (fun j -> Util.Json.to_string (Obs.Trace.strip_timing j)) evs
  in
  let strip_field name = function
    | Util.Json.Obj fs ->
        Util.Json.Obj (List.filter (fun (k, _) -> k <> name) fs)
    | j -> j
  in
  let write_json path j =
    let oc = open_out path in
    output_string oc (Util.Json.to_string j);
    output_char oc '\n';
    close_out oc
  in
  let read_json path =
    match Util.Json.of_string (String.trim (read_file path)) with
    | Ok j -> j
    | Error e -> failwith ("crash: unreadable child result: " ^ e)
  in
  let take n l = List.filteri (fun i _ -> i < n) l in
  (* raw lines destined for BENCH_crash_trace.jsonl (lint coverage of
     the checkpoint.* / journal.* schemas) *)
  let bench_trace = ref [] in

  (* -- 1. stochastic kill-invariance ------------------------------- *)
  let budget = max 48 (Report.search_budget ()) in
  let every = 8 in
  let kill_at = budget * 5 / 8 in
  let root = Kernels.relu ~n:8 ~m:8 in
  let run_engine meth ~jobs ~ck ~resume ~obs ~tick =
    let objective p =
      tick ();
      time target_x86 p
    in
    let checkpoint = { Search.Checkpoint.path = ck; every; resume } in
    Parallel.Pool.with_pool ~jobs (fun pool ->
        match meth with
        | `Sampling ->
            Stoch.random_sampling ~seed:9 ~obs ~checkpoint
              ~batch:Stoch.default_batch ~pool ~space:Stoch.Heuristic ~budget
              caps_x86 objective root
        | `Annealing ->
            Stoch.simulated_annealing ~seed:9 ~obs ~checkpoint
              ~batch:Stoch.default_batch ~pool ~space:Stoch.Heuristic ~budget
              caps_x86 objective root
        | `Annealing_learned ->
            (* the visited set and a fresh filtering surrogate: a resumed
               child gets its model only from the checkpoint *)
            let m = Surrogate.Model.create () in
            Stoch.simulated_annealing ~seed:9 ~obs ~checkpoint
              ~visited_dedup:true
              ~prerank:(Surrogate.Model.prerank ~filter_ratio:0.5 ~group:"g" m)
              ~batch:Stoch.default_batch ~pool ~space:Stoch.Heuristic ~budget
              caps_x86 objective root)
  in
  let stoch_json ?sim_calls (r : Stoch.result) =
    let base =
      [
        ("best_time", Recover.Bits.of_float r.best_time);
        ( "best_moves",
          Util.Json.Arr (List.map (fun m -> Util.Json.Str m) r.best_moves)
        );
        ( "curve",
          Util.Json.Arr
            (List.map Recover.Bits.of_float (Array.to_list r.curve)) );
        ("evals", Util.Json.Num (float_of_int r.evals));
        ("skipped", Util.Json.Num (float_of_int r.skipped));
        ("deduped", Util.Json.Num (float_of_int r.deduped));
        ("visited", Util.Json.Num (float_of_int r.visited));
        ("failures", Util.Json.Num (float_of_int r.failures));
      ]
    in
    Util.Json.Obj
      (match sim_calls with
      | None -> base
      | Some n -> base @ [ ("sim_calls", Util.Json.Num (float_of_int n)) ])
  in
  (* every engine run — reference, killed, resumed — happens in a
     forked child: once a process has spawned a domain (any jobs=4
     pool) the OCaml 5 runtime refuses Unix.fork for good, so the
     orchestrating parent must never run an engine itself *)
  let spawn_run ?kill_at ~meth ~jobs ~ck ~resume ~trace ~result () =
    Recover.Chaos.in_subprocess (fun () ->
        let oc = open_out trace in
        let obs = Obs.Trace.to_channel ~flush:true oc in
        let calls = Atomic.make 0 in
        let kill =
          match kill_at with
          | Some at -> Recover.Chaos.kill_switch ~at
          | None -> fun () -> ()
        in
        let tick () =
          kill ();
          Atomic.incr calls
        in
        let r = run_engine meth ~jobs ~ck ~resume ~obs ~tick in
        close_out oc;
        write_json result (stoch_json ~sim_calls:(Atomic.get calls) r))
  in
  let stoch_rows =
    List.concat_map
      (fun (mname, meth) ->
        List.map
          (fun jobs ->
            let tag = Printf.sprintf "%s_j%d" mname jobs in
            let ck_ref = in_dir ("ref_" ^ tag ^ ".ck") in
            let ck = in_dir ("kill_" ^ tag ^ ".ck") in
            rm ck_ref;
            rm ck;
            let ref_trace = in_dir ("ref_" ^ tag ^ ".jsonl") in
            let ref_json = in_dir ("ref_" ^ tag ^ ".json") in
            (if
               spawn_run ~meth ~jobs ~ck:ck_ref ~resume:false
                 ~trace:ref_trace ~result:ref_json ()
               <> Unix.WEXITED 0
             then failwith (tag ^ ": reference child did not exit cleanly"));
            let ref_j = read_json ref_json in
            let ref_evals = Recover.Field.int "evals" ref_j in
            if mname = "sampling" && jobs = 1 then
              bench_trace := !bench_trace @ read_lines ref_trace;
            let ref_stripped = List.map strip_line (read_lines ref_trace) in
            let killed_trace = in_dir ("kill_" ^ tag ^ ".jsonl") in
            (* a filtered run measures fewer slots than the budget *)
            let kill_at = min kill_at (ref_evals * 5 / 8) in
            let status =
              spawn_run ~kill_at ~meth ~jobs ~ck ~resume:false
                ~trace:killed_trace
                ~result:(in_dir ("kill_" ^ tag ^ ".json"))
                ()
            in
            if not (Recover.Chaos.killed status) then
              failwith (tag ^ ": child survived the seeded SIGKILL");
            let payload =
              match Recover.Store.load ~path:ck with
              | Ok p -> p
              | Error e ->
                  failwith
                    (tag ^ ": checkpoint after kill: "
                   ^ Recover.error_message e)
            in
            let events = Recover.Field.int "events" payload in
            let resumed_trace = in_dir ("res_" ^ tag ^ ".jsonl") in
            let resumed_json = in_dir ("res_" ^ tag ^ ".json") in
            (if
               spawn_run ~meth ~jobs ~ck ~resume:true ~trace:resumed_trace
                 ~result:resumed_json ()
               <> Unix.WEXITED 0
             then failwith (tag ^ ": resume child did not exit cleanly"));
            let got_j = read_json resumed_json in
            let sim_calls = Recover.Field.int "sim_calls" got_j in
            if
              Util.Json.to_string (strip_field "sim_calls" got_j)
              <> Util.Json.to_string (strip_field "sim_calls" ref_j)
            then
              failwith
                (tag
               ^ ": killed+resumed result differs from uninterrupted run");
            if sim_calls >= ref_evals then
              failwith
                (Printf.sprintf
                   "%s: resume re-evaluated %d of %d — no cheaper than a \
                    cold restart"
                   tag sim_calls ref_evals);
            let killed_lines = read_lines killed_trace in
            if List.length killed_lines < events then
              failwith (tag ^ ": killed trace shorter than its checkpoint");
            let spliced =
              List.map strip_line (take events killed_lines)
              @ List.map strip_line (read_lines resumed_trace)
            in
            if spliced <> ref_stripped then
              failwith (tag ^ ": trace splice differs from uninterrupted");
            (tag, ref_evals, sim_calls))
          [ 1; 4 ])
      [
        ("sampling", `Sampling);
        ("annealing", `Annealing);
        ("annealing_learned", `Annealing_learned);
      ]
  in

  (* -- 2. exhaustive: same certificate, strictly fewer evals -------- *)
  let ex_root = Kernels.scale ~n:16 in
  let ex_depth = 3 in
  let run_ex ~ck ~resume ~obs ~tick =
    Search.Exhaustive.run ~obs
      ~checkpoint:{ Search.Checkpoint.path = ck; every = 1; resume }
      ~depth:ex_depth caps_snitch
      (fun p ->
        tick ();
        time target_snitch p)
      ex_root
  in
  let ex_json ?sim_calls (r : Search.Exhaustive.result) =
    let base =
      [
        ("best_time", Recover.Bits.of_float r.best_time);
        ( "best_moves",
          Util.Json.Arr (List.map (fun m -> Util.Json.Str m) r.best_moves)
        );
        ("unique", Util.Json.Num (float_of_int r.unique));
        ("total", Util.Json.Num (float_of_int r.total));
        ("evals", Util.Json.Num (float_of_int r.evals));
        ("failures", Util.Json.Num (float_of_int r.failures));
        ("certified", Util.Json.Bool r.certified);
        ("exhausted", Util.Json.Bool r.exhausted);
      ]
    in
    Util.Json.Obj
      (match sim_calls with
      | None -> base
      | Some n -> base @ [ ("sim_calls", Util.Json.Num (float_of_int n)) ])
  in
  let ck_ex_ref = in_dir "ref_exhaustive.ck" in
  let ck_ex = in_dir "kill_exhaustive.ck" in
  rm ck_ex_ref;
  rm ck_ex;
  let obs_ex = Obs.Trace.make_buffer () in
  let ex_ref =
    run_ex ~ck:ck_ex_ref ~resume:false ~obs:obs_ex ~tick:(fun () -> ())
  in
  let ex_ref_events = Obs.Trace.events obs_ex in
  bench_trace := !bench_trace @ List.map Util.Json.to_string ex_ref_events;
  if not ex_ref.certified then failwith "crash: reference run uncertified";
  let ex_kill_at = max 2 (ex_ref.evals / 2) in
  let ex_killed_trace = in_dir "kill_exhaustive.jsonl" in
  let status =
    Recover.Chaos.in_subprocess (fun () ->
        let oc = open_out ex_killed_trace in
        let obs = Obs.Trace.to_channel ~flush:true oc in
        let tick = Recover.Chaos.kill_switch ~at:ex_kill_at in
        ignore (run_ex ~ck:ck_ex ~resume:false ~obs ~tick))
  in
  if not (Recover.Chaos.killed status) then
    failwith "crash: exhaustive child survived the seeded SIGKILL";
  let ex_events =
    match Recover.Store.load ~path:ck_ex with
    | Ok p -> Recover.Field.int "events" p
    | Error e ->
        failwith ("crash: exhaustive checkpoint: " ^ Recover.error_message e)
  in
  let ex_resumed_trace = in_dir "res_exhaustive.jsonl" in
  let ex_resumed_json = in_dir "res_exhaustive.json" in
  let status2 =
    Recover.Chaos.in_subprocess (fun () ->
        let oc = open_out ex_resumed_trace in
        let obs = Obs.Trace.to_channel ~flush:true oc in
        let calls = Atomic.make 0 in
        let r =
          run_ex ~ck:ck_ex ~resume:true ~obs ~tick:(fun () ->
              Atomic.incr calls)
        in
        close_out oc;
        write_json ex_resumed_json (ex_json ~sim_calls:(Atomic.get calls) r))
  in
  if status2 <> Unix.WEXITED 0 then
    failwith "crash: exhaustive resume child did not exit cleanly";
  let ex_got = read_json ex_resumed_json in
  let ex_sim_calls = Recover.Field.int "sim_calls" ex_got in
  (* hard gate (a): the resumed run still certifies the same optimum *)
  if
    Util.Json.to_string (strip_field "sim_calls" ex_got)
    <> Util.Json.to_string (ex_json ex_ref)
  then
    failwith
      "crash: resumed exhaustive run does not certify the same optimum";
  (* hard gate (b): resume is strictly cheaper than a cold restart *)
  if ex_sim_calls >= ex_ref.evals then
    failwith
      (Printf.sprintf
         "crash: exhaustive resume re-evaluated %d of %d — no cheaper \
          than a cold restart"
         ex_sim_calls ex_ref.evals);
  let ex_killed_lines = read_lines ex_killed_trace in
  if List.length ex_killed_lines < ex_events then
    failwith "crash: exhaustive killed trace shorter than its checkpoint";
  let ex_spliced =
    List.map strip_line (take ex_events ex_killed_lines)
    @ List.map strip_line (read_lines ex_resumed_trace)
  in
  if ex_spliced <> strip_events ex_ref_events then
    failwith "crash: exhaustive trace splice differs from uninterrupted";

  (* -- 3. libgen: ledger resume, byte-identical manifest ------------ *)
  let lg_kernels = take 12 (Libgen.default_kernels ()) in
  let lg_budget = max 8 (Report.search_budget () / 4) in
  let lg_strat =
    Perfdojo.Annealing { budget = lg_budget; space = Stoch.Heuristic }
  in
  let gen ~jobs ~out ~ledger ~resume ~obs ~metrics =
    Libgen.generate ~kernels:lg_kernels ~strategy:lg_strat
      ~db:(Tuning.Db.create ())
      ~ctx:
        Perfdojo.Ctx.(
          default |> with_jobs jobs |> with_obs obs |> with_metrics metrics
          |> with_checkpoint ledger |> with_resume resume)
      ~targets:[ "x86" ] ~out ()
  in
  let ref_ledger = in_dir "ref_libgen.journal" in
  rm ref_ledger;
  ignore
    (gen ~jobs:1 ~out:(in_dir "libgen_ref") ~ledger:ref_ledger ~resume:false
       ~obs:Obs.Trace.null ~metrics:(Obs.Metrics.create ()));
  let m_ref = read_file (in_dir "libgen_ref/manifest.json") in
  let count_lines path =
    if not (Sys.file_exists path) then 0
    else String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0
        (read_file path)
  in
  let lg_rows =
    List.map
      (fun jobs ->
        let tag = Printf.sprintf "libgen_j%d" jobs in
        let ledger = in_dir (tag ^ ".journal") in
        let out = in_dir tag in
        rm ledger;
        let killed_trace = in_dir (tag ^ "_kill.jsonl") in
        (* the kill is triggered from outside — the suite has no
           per-eval hook — once at least one pair is durably ledgered;
           the wide window is the remaining ~11 pairs *)
        let pid =
          flush stdout;
          flush stderr;
          match Unix.fork () with
          | 0 ->
              (try
                 let oc = open_out killed_trace in
                 let obs = Obs.Trace.to_channel ~flush:true oc in
                 ignore
                   (gen ~jobs ~out ~ledger ~resume:false ~obs
                      ~metrics:(Obs.Metrics.create ()))
               with _ -> Unix._exit 99);
              Unix._exit 0
          | pid -> pid
        in
        let deadline = Unix.gettimeofday () +. 120. in
        while
          count_lines ledger < 1 && Unix.gettimeofday () < deadline
        do
          Unix.sleepf 0.002
        done;
        if count_lines ledger < 1 then
          failwith (tag ^ ": ledger never grew — suite stuck?");
        Unix.kill pid Sys.sigkill;
        let _, st = Unix.waitpid [] pid in
        if not (Recover.Chaos.killed st) then
          failwith (tag ^ ": suite finished before the kill landed");
        let ledgered_at_kill = count_lines ledger in
        let resumed_trace = in_dir (tag ^ "_res.jsonl") in
        let resumed_json = in_dir (tag ^ "_res.json") in
        let status =
          Recover.Chaos.in_subprocess (fun () ->
              let metrics = Obs.Metrics.create () in
              let oc = open_out resumed_trace in
              let obs = Obs.Trace.to_channel ~flush:true oc in
              ignore (gen ~jobs ~out ~ledger ~resume:true ~obs ~metrics);
              close_out oc;
              write_json resumed_json
                (Util.Json.Obj
                   [
                     ( "replayed",
                       Util.Json.Num
                         (float_of_int
                            (Obs.Metrics.counter metrics "journal.replayed"))
                     );
                   ]))
        in
        if status <> Unix.WEXITED 0 then
          failwith (tag ^ ": resume child did not exit cleanly");
        let m = read_file (Filename.concat out "manifest.json") in
        if m <> m_ref then
          failwith (tag ^ ": resumed manifest differs from uninterrupted");
        let replayed = Recover.Field.int "replayed" (read_json resumed_json) in
        if replayed < 1 then
          failwith (tag ^ ": resume replayed no ledger entries");
        if read_file ledger <> "" then
          failwith (tag ^ ": ledger not truncated after the manifest");
        if jobs = 1 then
          bench_trace := !bench_trace @ read_lines resumed_trace;
        (tag, ledgered_at_kill, replayed))
      [ 1; 4 ]
  in

  (* -- 4. serve WAL: zero lost acknowledgements across kill -9 ------ *)
  let sock = in_dir "serve.sock" in
  let sdb = in_dir "serve_db.jsonl" in
  rm sock;
  rm sdb;
  rm (sdb ^ ".wal");
  let fork_server () =
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        (try
           let cfg =
             {
               Serve.Server.default_config with
               workers = 1;
               seed = 5;
               db_file = Some sdb;
             }
           in
           let server = Serve.Server.create cfg in
           Serve.Server.run_socket server sock
         with _ -> Unix._exit 99);
        Unix._exit 0
    | pid -> pid
  in
  let module P = Serve.Protocol in
  let retry req =
    Serve.Client.request_retry ~attempts:10 ~base_delay_ms:20 ~socket:sock
      req
  in
  let served = [ "axpy"; "dot"; "vecsum" ] in
  let pid1 = fork_server () in
  List.iteri
    (fun i k ->
      match
        retry
          (P.Optimize
             { id = i + 1; kernel = k; target = "x86"; strategy = "annealing";
               budget = 8; deadline_ms = 0; force = false })
      with
      | Ok (P.Optimized _) -> ()
      | Ok r -> failwith ("crash/serve: optimize answered " ^ P.response_kind r)
      | Error e -> failwith ("crash/serve: " ^ Serve.Client.error_message e))
    served;
  (* every reply above was WAL-journaled before it was sent; the
     database checkpoint cadence (64 appends) never ran, so kill -9
     here loses the records unless replay recovers them *)
  Unix.kill pid1 Sys.sigkill;
  let _, st1 = Unix.waitpid [] pid1 in
  if not (Recover.Chaos.killed st1) then
    failwith "crash/serve: server survived SIGKILL";
  rm sock;
  (* the journal is part of the database: a load by any other process
     sees every acknowledged deposit before a server replays it *)
  let seen =
    match Tuning.Db.load sdb with
    | Error e -> failwith ("crash/serve: " ^ e)
    | Ok d ->
        List.filter
          (fun k -> Tuning.Db.best d ~kernel:k ~target:"x86" <> None)
          served
  in
  if List.length seen < List.length served then
    failwith
      (Printf.sprintf
         "crash/serve: an outside load saw %d of %d acknowledged deposits"
         (List.length seen) (List.length served));
  let pid2 = fork_server () in
  List.iteri
    (fun i k ->
      match retry (P.Query { id = 10 + i; kernel = k; target = "x86" }) with
      | Ok (P.Queried { found = true; _ }) -> ()
      | Ok (P.Queried { found = false; _ }) ->
          failwith ("crash/serve: acknowledged deposit lost for " ^ k)
      | Ok r -> failwith ("crash/serve: query answered " ^ P.response_kind r)
      | Error e -> failwith ("crash/serve: " ^ Serve.Client.error_message e))
    served;
  (match
     Serve.Client.with_connection sock (fun c ->
         Serve.Client.request ~deadline_ms:30000 c (P.Shutdown { id = 99 }))
   with
  | Ok (P.Shutdown_ack _) -> ()
  | Ok r -> failwith ("crash/serve: shutdown answered " ^ P.response_kind r)
  | Error e -> failwith ("crash/serve: " ^ Serve.Client.error_message e));
  ignore (Unix.waitpid [] pid2);

  (* -- report + sidecars -------------------------------------------- *)
  Report.table
    [ "run"; "cold evals"; "resumed evals"; "saved" ]
    (List.map
       (fun (tag, cold, resumed) ->
         [
           tag; string_of_int cold; string_of_int resumed;
           Printf.sprintf "%.0f%%"
             (100. *. (1. -. float_of_int resumed /. float_of_int cold));
         ])
       (stoch_rows @ [ ("exhaustive", ex_ref.evals, ex_sim_calls) ]));
  Printf.printf
    "\nevery killed+resumed run matched its uninterrupted twin (result, \
     accounting, spliced trace);\nlibgen manifests byte-identical after \
     resume; serve recovered %d/%d acknowledged deposits (an outside \
     load saw %d/%d before the restart)\n"
    (List.length served) (List.length served) (List.length seen)
    (List.length served);
  let oc = open_out "BENCH_crash_trace.jsonl" in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    !bench_trace;
  close_out oc;
  print_endline "wrote BENCH_crash_trace.jsonl";
  let json =
    Util.Json.Obj
      [
        ("budget", Util.Json.Num (float_of_int budget));
        ("kill_at", Util.Json.Num (float_of_int kill_at));
        ( "stochastic",
          Util.Json.Arr
            (List.map
               (fun (tag, cold, resumed) ->
                 Util.Json.Obj
                   [
                     ("run", Util.Json.Str tag);
                     ("cold_evals", Util.Json.Num (float_of_int cold));
                     ("resumed_evals", Util.Json.Num (float_of_int resumed));
                   ])
               stoch_rows) );
        ( "exhaustive",
          Util.Json.Obj
            [
              ("certified", Util.Json.Bool true);
              ("cold_evals", Util.Json.Num (float_of_int ex_ref.evals));
              ( "resumed_evals",
                Util.Json.Num (float_of_int ex_sim_calls) );
              ("kill_at", Util.Json.Num (float_of_int ex_kill_at));
            ] );
        ( "libgen",
          Util.Json.Arr
            (List.map
               (fun (tag, ledgered, replayed) ->
                 Util.Json.Obj
                   [
                     ("run", Util.Json.Str tag);
                     ("manifest_identical", Util.Json.Bool true);
                     ( "ledgered_at_kill",
                       Util.Json.Num (float_of_int ledgered) );
                     ("replayed", Util.Json.Num (float_of_int replayed));
                   ])
               lg_rows) );
        ( "serve",
          Util.Json.Obj
            [
              ( "acknowledged",
                Util.Json.Num (float_of_int (List.length served)) );
              ( "recovered",
                Util.Json.Num (float_of_int (List.length served)) );
            ] );
      ]
  in
  write_json "BENCH_crash.json" json;
  print_endline "wrote BENCH_crash.json"

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let all : (string * (unit -> unit)) list =
  [
    (* crash must run before any experiment that spawns pool domains:
       the OCaml 5 runtime permanently refuses Unix.fork once a domain
       has been created in the process, and crash orchestrates by
       forking *)
    ("crash", crash);
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("onnx", Onnx_coverage.run);
    ("fig3", fig3);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig4-9", fig4_9);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig1b", fig1b);
    ("fig13", fig13);
    ("fig14", fig14);
    ("arm", arm);
    ("rl-ablation", rl_ablation);
    ("tuning", tuning);
    ("parallel", parallel);
    ("faults", faults);
    ("libgen", libgen);
    ("serve", serve);
    ("surrogate", surrogate);
    ("exhaustive", exhaustive);
    ("script", script);
  ]
