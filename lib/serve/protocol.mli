(** The tuning-service wire protocol: typed requests and responses with
    a canonical one-line JSON encoding.

    Every message is one JSON object; requests carry a ["req"] kind
    member, responses a ["resp"] kind member, and both carry the
    client-chosen correlation [id] echoed back verbatim.  The encoding
    is canonical ({!Util.Json.to_string}): members in a fixed order,
    round-trip-exact floats — decode∘encode is the identity on bytes,
    the property the protocol round-trip tests pin down.

    Versioning is explicit: both encoders stamp {!version} as ["v"],
    and the decoders reject other versions rather than mis-parse. *)

val version : int

(** {1 Requests} *)

type request =
  | Optimize of {
      id : int;
      kernel : string;  (** kernel label, e.g. ["softmax"] *)
      target : string;  (** target short name or alias, e.g. ["x86"] *)
      strategy : string;  (** CLI strategy spelling, e.g. ["annealing"] *)
      budget : int;  (** search budget; [<= 0] means the server default *)
      deadline_ms : int;
          (** queueing deadline; [0] means the server default *)
      force : bool;  (** bypass the warm fast path and re-optimize *)
    }
  | Query of { id : int; kernel : string; target : string }
      (** fingerprint lookup only — never touches the search *)
  | Generate of {
      id : int;
      kernel : string;
      target : string;
      strategy : string;
      budget : int;
      deadline_ms : int;
    }  (** a {!Libgen}-style pair: optimized C for one (kernel, target) *)
  | Stats of { id : int }
  | Shutdown of { id : int }

val request_id : request -> int
val request_kind : request -> string
(** ["optimize"] / ["query"] / ["generate"] / ["stats"] / ["shutdown"]. *)

(** {1 Responses} *)

type error_code =
  | Overloaded  (** admission control: the pending queue is full *)
  | Bad_request  (** unknown kernel / target / strategy, bad field *)
  | Protocol_error  (** unparseable or ill-framed message *)
  | Deadline  (** the request expired in the queue *)
  | Faulted of string
      (** the optimization failed; the payload is the
          {!Robust.Guard.failure_class} (["rejected"], ["non_finite"],
          ["exhausted"]) *)

val error_code_name : error_code -> string
val error_code_of_name : string -> error_code option

type response =
  | Optimized of {
      id : int;
      kernel : string;
      target : string;
      warm : bool;  (** answered from the database without any search *)
      time_s : float;
      moves : string list;
      script : string;
          (** the schedule as a [pds] script; [""] when replying from a
              schema-2 record, which has none *)
      evaluations : int;
      failures : int;
    }
  | Queried of {
      id : int;
      kernel : string;
      target : string;
      found : bool;
      time_s : float;  (** [0.] when not found *)
      moves : string list;
    }
  | Generated of {
      id : int;
      kernel : string;
      target : string;
      warm : bool;
      time_s : float;
      c_entry : string;  (** entry-point symbol of the emitted C *)
      c : string;  (** the full translation unit *)
    }
  | Stats_reply of {
      id : int;
      counters : (string * int) list;
      gauges : (string * float) list;
    }
  | Shutdown_ack of { id : int; records : int }
  | Error of { id : int; code : error_code; msg : string }

val response_id : response -> int
val response_kind : response -> string

(** {1 Encoding} *)

val encode_request : request -> string
(** One-line canonical JSON (no trailing newline). *)

val decode_request : string -> (request, string) result
(** Strict: unknown kinds, wrong version, missing or ill-typed members
    are errors, never silent defaults. *)

val encode_response : response -> string
val decode_response : string -> (response, string) result
