(* Machine descriptors for the performance models.

   These stand in for the paper's evaluation hardware (Intel Xeon E5-2695
   v4, NVIDIA GH200, AMD MI300A, the Snitch RISC-V cluster).  Parameters
   are taken from public spec sheets; the models built on top of them are
   deterministic analytic/cycle-approximate simulators (see DESIGN.md for
   the substitution rationale). *)

type cpu = {
  cpu_name : string;
  cores : int;
  vector_bits : int; (* SIMD width: 512 = AVX-512, 128 = NEON *)
  issue_width : int; (* scalar FP ops issued per cycle *)
  fp_latency : int; (* FP pipeline latency in cycles *)
  l1_bytes : int;
  l2_bytes : int;
  llc_bytes : int;
  cache_line : int;
  freq_ghz : float;
  dram_gbs : float; (* sustained DRAM bandwidth, GB/s, whole socket *)
  loop_overhead : float; (* cycles per sequential loop iteration *)
  par_region_overhead : float; (* cycles to fork/join a parallel region *)
  mem_par_scale : float; (* how far parallelism scales memory streams *)
}

type gpu = {
  gpu_name : string;
  sms : int; (* streaming multiprocessors / compute units *)
  warp : int; (* 32 on NVIDIA, 64 wavefront on AMD *)
  max_threads_per_block : int;
  gpu_freq_ghz : float;
  hbm_gbs : float;
  fp32_gflops : float; (* peak vector FP32 throughput *)
  launch_overhead_s : float; (* per kernel launch *)
  host_gflops : float; (* host-side scalar compute for unmapped code *)
  host_gbs : float;
}

type snitch = {
  sn_name : string;
  sn_freq_ghz : float;
  sn_fp_latency : int; (* FPU pipeline depth: 4-cycle use latency *)
  sn_ssr_streams : int; (* available stream semantic registers *)
  sn_loop_overhead : int; (* cycles per iteration of a software loop *)
  sn_mem_latency : int; (* TCDM access, single cycle when streamed *)
}

type target = Cpu of cpu | Gpu of gpu | Snitch of snitch

let target_name = function
  | Cpu c -> c.cpu_name
  | Gpu g -> g.gpu_name
  | Snitch s -> s.sn_name

(* Intel Xeon E5-2695 v4 (Broadwell, 18C, AVX2 256-bit; the paper runs
   with all 18 cores, hyper-threading off).  §4.2. *)
let xeon_e5_2695v4 : cpu =
  {
    cpu_name = "Intel Xeon E5-2695 v4";
    cores = 18;
    vector_bits = 256;
    issue_width = 2;
    fp_latency = 5;
    l1_bytes = 32 * 1024;
    l2_bytes = 256 * 1024;
    llc_bytes = 45 * 1024 * 1024;
    cache_line = 64;
    freq_ghz = 2.1;
    dram_gbs = 68.0;
    loop_overhead = 2.0;
    par_region_overhead = 8000.0;
    mem_par_scale = 4.0;
  }

(* An AVX-512 capable CPU for the softmax journey of Figures 4 and 9. *)
let avx512_cpu : cpu =
  {
    xeon_e5_2695v4 with
    cpu_name = "x86 AVX-512";
    vector_bits = 512;
    cores = 16;
    freq_ghz = 2.4;
    dram_gbs = 90.0;
  }

(* NVIDIA GH200 (Hopper H100 96GB part). §4.3 / Figure 1b. *)
let gh200 : gpu =
  {
    gpu_name = "NVIDIA GH200";
    sms = 132;
    warp = 32;
    max_threads_per_block = 1024;
    gpu_freq_ghz = 1.83;
    hbm_gbs = 4000.0;
    fp32_gflops = 67_000.0;
    launch_overhead_s = 5.0e-6;
    host_gflops = 6.0;
    host_gbs = 80.0;
  }

(* AMD MI300A (CDNA3 APU, 64-lane wavefronts). §4.3 / Figure 13. *)
let mi300a : gpu =
  {
    gpu_name = "AMD MI300A";
    sms = 228;
    warp = 64;
    max_threads_per_block = 1024;
    gpu_freq_ghz = 2.1;
    hbm_gbs = 5300.0;
    fp32_gflops = 61_000.0;
    launch_overhead_s = 8.0e-6;
    host_gflops = 8.0;
    host_gbs = 100.0;
  }

(* Single Snitch core with SSR + FREP extensions (Zaruba et al.), as
   simulated by the paper's Verilator model of the Snitch cluster. §4.1 *)
let snitch_cluster : snitch =
  {
    sn_name = "Snitch (SSR+FREP)";
    sn_freq_ghz = 1.0;
    sn_fp_latency = 4;
    sn_ssr_streams = 3;
    sn_loop_overhead = 2;
    sn_mem_latency = 1;
  }

(* A Neoverse-class Arm core cluster (the GH200's Grace side), used for
   the paper's Arm results.  NEON/SVE 128-bit lanes. *)
let grace_arm : cpu =
  {
    cpu_name = "Arm Neoverse V2 (Grace)";
    cores = 72;
    vector_bits = 128;
    issue_width = 4;
    fp_latency = 4;
    l1_bytes = 64 * 1024;
    l2_bytes = 1024 * 1024;
    llc_bytes = 114 * 1024 * 1024;
    cache_line = 64;
    freq_ghz = 3.0;
    dram_gbs = 380.0;
    loop_overhead = 1.5;
    par_region_overhead = 6000.0;
    mem_par_scale = 8.0;
  }

(* A RISC-V in-order scalar core without the Snitch extensions, the
   baseline "naive hardware" point. *)
let riscv_scalar : cpu =
  {
    cpu_name = "RISC-V scalar";
    cores = 1;
    vector_bits = 0;
    issue_width = 1;
    fp_latency = 4;
    l1_bytes = 8 * 1024;
    l2_bytes = 64 * 1024;
    llc_bytes = 1024 * 1024;
    cache_line = 32;
    freq_ghz = 1.0;
    dram_gbs = 8.0;
    loop_overhead = 2.0;
    par_region_overhead = 0.0;
    mem_par_scale = 1.0;
  }

(* The canonical short-name registry shared by the tuning database, the
   libgen manifest and the CLI's --target flag.  Record keys and
   manifest entries use exactly these names, so they live here rather
   than in the CLI. *)
let known_targets : (string * target) list =
  [
    ("x86", Cpu xeon_e5_2695v4);
    ("avx512", Cpu avx512_cpu);
    ("arm", Cpu grace_arm);
    ("riscv", Cpu riscv_scalar);
    ("snitch", Snitch snitch_cluster);
    ("gh200", Gpu gh200);
    ("mi300a", Gpu mi300a);
  ]

let resolve_target s : (string * target) option =
  let canonical =
    match s with "xeon" | "host" -> "x86" | "grace" -> "arm" | s -> s
  in
  List.assoc_opt canonical known_targets
  |> Option.map (fun t -> (canonical, t))

let target_of_string s : (string * target, string) result =
  match resolve_target s with
  | Some pair -> Ok pair
  | None ->
      Error
        (Printf.sprintf "unknown target %S (known: %s)" s
           (String.concat ", " (List.map fst known_targets)))

let short_name (t : target) : string option =
  List.find_opt (fun (_, t') -> t' = t) known_targets |> Option.map fst

(* The transformation capabilities each target exposes — the paper's
   "hardware-aware transformations" interface (§1): vendors ship
   capabilities, not tuned libraries. *)
let caps_of : target -> Transform.Xforms.caps = function
  | Cpu c ->
      let lanes_f32 = c.vector_bits / 32 in
      Transform.Xforms.cpu_caps
        ~vec_lanes:(if lanes_f32 >= 2 then [ lanes_f32 ] else [])
        ~max_unroll:16 ()
  | Gpu g -> Transform.Xforms.gpu_caps ~max_block:g.max_threads_per_block ()
  | Snitch _ -> Transform.Xforms.snitch_caps ()
