(** Machine descriptors for the performance models.

    These stand in for the paper's evaluation hardware (Intel Xeon
    E5-2695 v4, NVIDIA GH200, AMD MI300A, the Snitch RISC-V cluster);
    parameters come from public spec sheets.  The models built on them
    are deterministic — see DESIGN.md for the substitution rationale. *)

type cpu = {
  cpu_name : string;
  cores : int;
  vector_bits : int;  (** SIMD width: 512 = AVX-512, 256 = AVX2, 128 = NEON *)
  issue_width : int;  (** scalar FP ops issued per cycle *)
  fp_latency : int;  (** FP pipeline use latency in cycles *)
  l1_bytes : int;
  l2_bytes : int;
  llc_bytes : int;
  cache_line : int;
  freq_ghz : float;
  dram_gbs : float;  (** sustained DRAM bandwidth, GB/s, whole socket *)
  loop_overhead : float;  (** cycles per sequential loop iteration *)
  par_region_overhead : float;  (** cycles to fork/join a parallel region *)
  mem_par_scale : float;  (** how far parallelism scales memory streams *)
}

type gpu = {
  gpu_name : string;
  sms : int;  (** streaming multiprocessors / compute units *)
  warp : int;  (** 32 on NVIDIA, 64-lane wavefront on AMD *)
  max_threads_per_block : int;
  gpu_freq_ghz : float;
  hbm_gbs : float;
  fp32_gflops : float;
  launch_overhead_s : float;
  host_gflops : float;  (** host-side compute for unmapped code *)
  host_gbs : float;
}

type snitch = {
  sn_name : string;
  sn_freq_ghz : float;
  sn_fp_latency : int;  (** 4-cycle FPU use latency *)
  sn_ssr_streams : int;  (** available stream semantic registers *)
  sn_loop_overhead : int;  (** cycles per software-loop iteration *)
  sn_mem_latency : int;
}

type target = Cpu of cpu | Gpu of gpu | Snitch of snitch

val target_name : target -> string

val known_targets : (string * target) list
(** Every modelled machine under its canonical short name — the
    namespace tuning-database records, libgen manifests and the CLI's
    [--target] flag share ([x86], [avx512], [arm], [riscv], [snitch],
    [gh200], [mi300a]). *)

val resolve_target : string -> (string * target) option
(** Short name (or an accepted alias: [xeon]/[host] for [x86], [grace]
    for [arm]) to the canonical name and descriptor; [None] when
    unknown. *)

val target_of_string : string -> (string * target, string) result
(** {!resolve_target}, with an [Error] that names [s] and lists the
    known targets — the one message every front end reports. *)

val xeon_e5_2695v4 : cpu
(** The paper's §4.2 x86 machine (18 cores, AVX2). *)

val avx512_cpu : cpu
(** An AVX-512 CPU for the Figures 4/9 softmax journey. *)

val gh200 : gpu
(** NVIDIA GH200 (Hopper), §4.3 / Figure 1b. *)

val mi300a : gpu
(** AMD MI300A (CDNA3, 64-lane wavefronts), §4.3 / Figure 13. *)

val snitch_cluster : snitch
(** Single Snitch core with SSR + FREP, §4.1. *)

val grace_arm : cpu
(** Neoverse-V2-class Arm cluster (the GH200's Grace side). *)

val riscv_scalar : cpu
(** An in-order scalar RISC-V core without the Snitch extensions. *)

val caps_of : target -> Transform.Xforms.caps
(** The transformation capabilities the target exposes (§1: vendors
    ship hardware-aware transformations, not libraries). *)
