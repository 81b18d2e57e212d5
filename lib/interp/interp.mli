(** Reference interpreter and numerical-equivalence oracle.

    Execution is faithful to *storage* semantics: arrays aliasing one
    buffer share a backing store, and a reused ([:N]) dimension has
    storage extent 1 — so an illegal [reuse_dims] really corrupts results
    here.  This is what makes numerical comparison a meaningful oracle
    for transformation correctness (the paper's empirical validation,
    §2.2). *)

type tensors = (string, float array) Hashtbl.t
(** Backing stores keyed by buffer name; all arrays of a buffer share the
    entry. *)

val alloc_tensors : Ir.Prog.t -> tensors
(** Zero-initialized storage for every buffer of the program. *)

val run : Ir.Prog.t -> tensors -> unit
(** Execute the program in place.  Guarded (padded) iterations are
    masked. *)

val random_inputs : Util.Rng.t -> Ir.Prog.t -> tensors
(** Allocate storage and fill the program's input arrays with uniform
    values in [\[-1, 1)]. *)

val outputs_close :
  ?tol:float -> Ir.Prog.t -> tensors -> tensors -> (unit, string) result
(** Compare the declared outputs of two runs of the same program, with
    relative-or-absolute tolerance. *)

val equivalent :
  ?seed:int ->
  ?tol:float ->
  ?trials:int ->
  Ir.Prog.t ->
  Ir.Prog.t ->
  (unit, string) result
(** [equivalent reference transformed] checks that both programs compute
    the same outputs from identical random inputs over several trials.
    Input and output buffers must be materialized identically; temporary
    layouts may differ. *)
