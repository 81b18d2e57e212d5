(** C code generation from scheduled IR (Figure 3d).

    The flavor is chosen from the program's annotations: plain C with
    OpenMP pragmas, CUDA (grid-mapped scopes become [__global__] kernels
    plus host launches), or Snitch C with SSR/FREP forms. *)

type flavor = Plain | Cuda | Snitch_asm

val program : ?entry:string -> Ir.Prog.t -> string
(** Full translation unit: buffer declarations plus the kernel body.
    [entry] names the emitted entry-point function (default ["run"]) —
    libgen gives every library member a distinct symbol. *)

val entry_symbol : kernel:string -> target:string -> string
(** That distinct symbol: [perfdojo_<kernel>_<target>], every character
    outside [[A-Za-z0-9_]] replaced by ['_'] — the name libgen and the
    tuning service both emit. *)

val stmt_c : Ir.Prog.t -> Ir.Types.stmt -> string
(** One statement as a C assignment (used in documentation output). *)

val expr_c : Ir.Prog.t -> Ir.Types.expr -> string
val access_c : Ir.Prog.t -> Ir.Types.access -> string
val contains_gpu : Ir.Prog.t -> bool
val contains_snitch : Ir.Prog.t -> bool
