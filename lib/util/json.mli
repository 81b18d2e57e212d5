(** Minimal JSON reader/writer for the tuning database and the
    observability trace sink (the package deliberately carries no yojson
    dependency).

    The printer is canonical: compact one-line output, members in the
    order given, floats via a round-trip-exact format.  Parsing a
    printed value and printing it again is byte-identical — the property
    the JSONL database relies on for stable saves. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering.  Non-finite numbers print as [null]. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing garbage is an error.  Accepts the
    full JSON grammar (escapes, [\uXXXX], exponents, nested values).
    A string with no escape is one [String.sub] of the input; a number
    lexeme of an optional [-] and 1–15 decimal digits is read with int
    arithmetic, which is exact below 2{^53}.  Every other number, and
    ["-0"] (which must stay [-0.]), goes through [float_of_string_opt],
    so each lexeme yields the same float bits as that function would. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Object member lookup; [None] on missing key or non-object. *)

val to_float : t -> float option
val to_int : t -> int option
(** [Some] only for an integral number from [min_int] to [max_int]; a
    fraction, or an integral number outside OCaml's [int] range, is
    [None]. *)

val to_str : t -> string option
val to_list : t -> t list option

val num_string : float -> string
(** The canonical number rendering used by {!to_string}: the shortest
    of ["%.15g"], ["%.16g"], ["%.17g"] that parses back to the identical
    float — exact round-trip with stable re-printing.  An integral float
    of magnitude below 10{^15}, other than [-0.], prints through
    [string_of_int], which gives byte for byte the text ["%.15g"] gives
    it; every other float takes the 15/16/17 ladder. *)
