(* Simulated framework baselines.

   The paper compares against real frameworks (PyTorch, TVM/Ansor, JAX,
   ONNXRuntime, OneDNN, Pluto) on real hardware; in this reproduction
   each framework is modelled as a *scheduling policy* over the same IR,
   scored by the same performance models as our own schedules (see
   DESIGN.md).  The policies encode the behaviours the paper attributes
   to each system:

   - PyTorch / libraries: excellent per-operator schedules but
     library-centric — no fusion across the operators of a composite
     kernel, one dispatch per operator, generic (shape-agnostic) launch
     configurations.
   - JAX/XLA: fuses elementwise chains, otherwise library-like.
   - ONNXRuntime (default EP): conservative, no vectorization.
   - OneDNN: near-optimal for the kernels it covers.
   - TVM (Ansor-style auto-scheduler): a template-restricted stochastic
     search with an evaluation budget, plus the schedule-validation
     failures the paper reports (batchnorm/swiglu produce no valid
     schedule and fall back to the default schedule; on GPU additional
     kernels time out, §4.3).
   - Pluto: --parallel --tile, no vectorization; its LayerNorm result
     fails numerical validation (§4.2) and is flagged as invalid.
   - Handwritten Snitch kernels: SSR/FREP-aware hand schedules with
     moderate (2-way) unrolling — strong, but missing the systematic
     4-way latency-hiding tiling that transformations find (§4.1). *)

open Transform
module Desc = Machine.Desc

type verdict = Valid | Failed_validation | No_valid_schedule

type scheduled = {
  framework : string;
  prog : Ir.Prog.t; (* the schedule actually timed *)
  dispatches : int; (* framework-level kernel dispatches *)
  verdict : verdict;
}

(* Top-level loop nests = operator dispatches for a library framework. *)
let count_nests (prog : Ir.Prog.t) =
  List.length
    (List.filter
       (function Ir.Types.Scope _ -> true | Ir.Types.Stmt _ -> false)
       prog.body)

let caps_for = Machine.caps

(* ------------------------------------------------------------------ *)
(* Library-style schedules                                             *)
(* ------------------------------------------------------------------ *)

(* Schedule each top-level nest like a well-tuned library kernel, without
   fusing across nests. *)
let library_schedule ?(vectorize = true) ?(gpu_vec = false) target prog =
  let caps = caps_for target in
  match target with
  | Desc.Cpu _ ->
      if vectorize then
        (* tuned per-operator schedule, but never across operators *)
        Search.Passes.cpu_heuristic ~fuse:false caps prog
      else Search.Passes.parallelize_outer caps prog
  | Desc.Gpu g ->
      (* one kernel per operator (no cross-operator fusion), generic
         block size, padding to the wavefront like any library; the
         launch configuration itself is well chosen (vendor libraries
         tune it per operator) *)
      let prog =
        Search.Passes.gpu_heuristic ~fuse:false ~warp:g.warp
          ~score:(fun p -> Machine.time target p)
          caps prog
      in
      if gpu_vec then prog
      else
        (* strip per-thread vectorization: generic libraries issue
           32-bit accesses for arbitrary shapes (the paper's elementwise
           analysis) *)
        let rec strip = function
          | Ir.Types.Scope sc when sc.annot = Ir.Types.Vec ->
              Ir.Types.Scope
                { sc with annot = Ir.Types.Unroll }
          | Ir.Types.Scope sc ->
              Ir.Types.Scope { sc with body = List.map strip sc.body }
          | n -> n
        in
        { prog with body = List.map strip prog.body }
  | Desc.Snitch _ ->
      (* plain C library on Snitch: no extension use *)
      prog

(* Vendor libraries ship *well-tuned per-operator* schedules: refine the
   generic mapping with a small structural search (mapping, tiling,
   interchange, padding — never cross-operator fusion, never
   shape-specialized vector widths). *)
let library_tune ?(budget = 80) target start =
  let caps = caps_for target in
  let filter (i : Xforms.instance) =
    match i.move with
    | Moveref.(
        Split _ | Gpu _ | Interchange _ | Pad _ | Parallelize _ | Unroll _
        | Unannotate _) ->
        true
    | _ -> false
  in
  let r =
    Search.Stochastic.simulated_annealing ~seed:5 ~filter
      ~space:Search.Stochastic.Edges ~budget caps
      (fun p -> Machine.time target p)
      start
  in
  r.best

let pytorch target prog =
  let start = library_schedule target prog in
  let tuned =
    match target with Desc.Gpu _ -> library_tune target start | _ -> start
  in
  {
    framework = "PyTorch";
    prog = tuned;
    dispatches = count_nests prog;
    verdict = Valid;
  }

let jax target prog =
  (* XLA fuses elementwise producers/consumers first *)
  let caps = caps_for target in
  let fused =
    Search.Passes.fixpoint
      ~pick:(Search.Passes.first_of [ "join_scopes" ] caps)
      prog 100
  in
  let start = library_schedule target fused in
  let tuned =
    match target with Desc.Gpu _ -> library_tune target start | _ -> start
  in
  {
    framework = "JAX";
    prog = tuned;
    dispatches = count_nests fused;
    verdict = Valid;
  }

let onnxruntime target prog =
  {
    framework = "ONNXRuntime";
    prog = library_schedule ~vectorize:false target prog;
    dispatches = count_nests prog;
    verdict = Valid;
  }

let onednn target prog =
  let caps = caps_for target in
  {
    framework = "OneDNN";
    prog = Search.Passes.cpu_heuristic caps prog;
    dispatches = 1;
    verdict = Valid;
  }

let pluto ~label target prog =
  let caps = caps_for target in
  let fused = Search.Passes.naive caps prog in
  let tiled =
    (* --tile with default sizes: split outer loops by 32 when divisible *)
    Search.Passes.fixpoint
      ~pick:
        (Search.Passes.first_move
           (function
             | Moveref.Split (path, 32) ->
                 (* outer-ish paths only *)
                 String.length (Target.path_str path) <= 10
             | _ -> false)
           caps)
      fused 4
  in
  let prog' = Search.Passes.parallelize_outer caps tiled in
  {
    framework = "Pluto";
    prog = prog';
    dispatches = 1;
    verdict =
      (* the paper reports Pluto's LayerNorm failing numerical
         validation *)
      (if String.length label >= 9 && String.sub label 0 9 = "layernorm" then
         Failed_validation
       else Valid);
  }

(* ------------------------------------------------------------------ *)
(* TVM-style auto-scheduler                                            *)
(* ------------------------------------------------------------------ *)

(* Ansor-like template restriction: structural tiling/fusion/annotation
   moves only — no buffer-storage or layout moves, no padding. *)
let tvm_template (i : Xforms.instance) =
  match i.move with
  | Moveref.(
      Split _ | Join _ | Interchange _ | Unroll _ | Vectorize _
      | Parallelize _ | Gpu _ | Fission _) ->
      true
  | _ -> false

(* Deterministic failure model per the paper's observations. *)
let tvm_fails target label =
  let has_prefix p =
    String.length label >= String.length p
    && String.sub label 0 (String.length p) = p
  in
  has_prefix "batchnorm" || has_prefix "swiglu"
  ||
  match target with
  | Desc.Gpu _ ->
      (* runtime-timeout failures on several GPU kernels (§4.3) *)
      let h = ref 0 in
      String.iter (fun c -> h := ((!h * 131) + Char.code c) land 0xFFFF) label;
      !h mod 5 < 2
  | _ -> false

let tvm ?(budget = 1000) ?(seed = 11) ~label target prog =
  let caps = caps_for target in
  if tvm_fails target label then begin
    (* no valid schedule found: fall back to the default schedule — a
       plain untuned mapping (no launch-configuration search, no wide
       loads), as when TVM compiles the un-scheduled expression *)
    let default =
      match target with
      | Desc.Gpu g ->
          Search.Passes.gpu_heuristic ~fuse:false ~warp:g.warp
            ~vectorize:false (caps_for target) prog
      | _ -> prog
    in
    {
      framework = "TVM";
      prog = default;
      dispatches = 0;
      verdict = No_valid_schedule;
    }
  end
  else begin
    let objective p = Machine.time target p in
    (* Ansor generates sketch-structured initial candidates; start the
       tuning from a generic mapped/vectorized sketch rather than the
       bare loop nest *)
    let sketch =
      match target with
      | Desc.Gpu g ->
          Search.Passes.gpu_heuristic ~fuse:true ~warp:g.warp caps prog
      | Desc.Cpu _ -> Search.Passes.cpu_heuristic caps prog
      | Desc.Snitch _ -> prog
    in
    let start = if objective sketch < objective prog then sketch else prog in
    let r =
      Search.Stochastic.simulated_annealing ~seed ~filter:tvm_template
        ~space:Search.Stochastic.Edges ~budget caps objective start
    in
    let best = if r.best_time <= objective start then r.best else start in
    { framework = "TVM"; prog = best; dispatches = 0; verdict = Valid }
  end

(* ------------------------------------------------------------------ *)
(* Handwritten Snitch kernels                                          *)
(* ------------------------------------------------------------------ *)

let handwritten_snitch caps prog =
  let prog = Search.Passes.naive caps prog in
  (* hand-written Snitch kernels do use multiple accumulators for
     reductions; what they lack is the systematic tile-by-4 reshape for
     every nest (they unroll by 2) *)
  let prog =
    Search.Passes.fixpoint
      ~pick:(Search.Passes.first_of [ "split_reduction" ] caps)
      prog 32
  in
  let prog = Search.Passes.unroll_partial_accumulators caps prog in
  let prog = Search.Passes.tile_sink_unroll caps 2 prog in
  let prog =
    Search.Passes.fixpoint
      ~pick:(Search.Passes.first_of [ "enable_ssr" ] caps)
      prog 200
  in
  let prog =
    Search.Passes.fixpoint
      ~pick:(Search.Passes.first_of [ "enable_frep" ] caps)
      prog 200
  in
  {
    framework = "handwritten";
    prog;
    dispatches = 1;
    verdict = Valid;
  }

(* ------------------------------------------------------------------ *)
(* Timing with framework overheads                                     *)
(* ------------------------------------------------------------------ *)

(* Per-dispatch framework overhead (operator dispatch, tensor
   bookkeeping): libraries pay it per unfused operator. *)
let dispatch_overhead target =
  match target with
  | Desc.Gpu _ -> 6.0e-6
  | Desc.Cpu _ -> 1.5e-6
  | Desc.Snitch _ -> 0.0

let time target (s : scheduled) : float =
  (* frameworks pay the dispatch overhead on every operator call
     (framework bookkeeping on top of the modelled launch cost) *)
  Machine.time target s.prog
  +. (float_of_int (max 0 s.dispatches) *. dispatch_overhead target)
