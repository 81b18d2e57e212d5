(** The paper's operator set as naive IR programs: canonical textbook
    loop nests with no scheduling applied — every optimization starts
    from these.  Shapes are parameters so the same builders serve the
    performance models at paper scale and the reference interpreter at
    test scale. *)

(** {1 Elementwise} *)

val add : n:int -> m:int -> Ir.Prog.t
val mul : n:int -> m:int -> Ir.Prog.t
val relu : n:int -> m:int -> Ir.Prog.t
val scale : n:int -> Ir.Prog.t
(** [z = 2.5 * x] — Snitch micro-kernel. *)

(** {1 Reductions and normalizations} *)

val reducemean : n:int -> m:int -> Ir.Prog.t
val softmax : n:int -> m:int -> Ir.Prog.t
(** Row softmax, the paper's running example (Figure 3): max, exp, sum
    and divide phases in separate loops; fusion is discovered by
    transformations. *)

val layernorm : n:int -> m:int -> Ir.Prog.t
val rmsnorm : n:int -> m:int -> Ir.Prog.t
val batchnorm : n:int -> c:int -> h:int -> w:int -> Ir.Prog.t
(** Training-statistics form with the temporaries e, v, a, b of §4.3. *)

(** {1 Contractions} *)

val matmul : m:int -> n:int -> k:int -> Ir.Prog.t
val bmm : b:int -> m:int -> k:int -> n:int -> Ir.Prog.t
val conv2d :
  n:int -> f:int -> c:int -> h:int -> w:int -> kside:int -> Ir.Prog.t
val swiglu : m:int -> k:int -> n:int -> Ir.Prog.t
val relu_ffn : n:int -> c:int -> h:int -> w:int -> Ir.Prog.t
val gemv : m:int -> n:int -> Ir.Prog.t
val dot : n:int -> Ir.Prog.t
val axpy : n:int -> Ir.Prog.t
val vecsum : n:int -> Ir.Prog.t

(** {1 Registries} *)

type entry = {
  label : string;
  shape_desc : string;
  description : string;
  build : unit -> Ir.Prog.t;  (** paper-scale shapes *)
  build_small : unit -> Ir.Prog.t;  (** interpreter-friendly shapes *)
}

val table3 : entry list
(** The 16 operators of Table 3, with the paper's exact shapes. *)

val snitch_micro : entry list
(** Micro-kernels for the Snitch evaluation (§4.1). *)

val find_entry : entry list -> string -> entry
(** Lookup by label; raises [Invalid_argument] naming the label and
    the available ones when unknown. *)
