(* The tuning-service wire protocol.

   One JSON object per message through Util.Json's canonical printer:
   fixed member order, round-trip-exact floats, so encode is a
   deterministic function of the value and decode∘encode is the byte
   identity — the same discipline as the tuning database and the trace
   sink, checked by the QCheck round-trip properties in test_serve.

   Decoding is strict: a wrong version, an unknown kind, a missing or
   ill-typed member is an [Error], never a silent default — a server
   must not guess what a client meant. *)

module J = Util.Json

let version = 1

type request =
  | Optimize of {
      id : int;
      kernel : string;
      target : string;
      strategy : string;
      budget : int;
      deadline_ms : int;
      force : bool;
    }
  | Query of { id : int; kernel : string; target : string }
  | Generate of {
      id : int;
      kernel : string;
      target : string;
      strategy : string;
      budget : int;
      deadline_ms : int;
    }
  | Stats of { id : int }
  | Shutdown of { id : int }

let request_id = function
  | Optimize { id; _ }
  | Query { id; _ }
  | Generate { id; _ }
  | Stats { id }
  | Shutdown { id } ->
      id

let request_kind = function
  | Optimize _ -> "optimize"
  | Query _ -> "query"
  | Generate _ -> "generate"
  | Stats _ -> "stats"
  | Shutdown _ -> "shutdown"

type error_code =
  | Overloaded
  | Bad_request
  | Protocol_error
  | Deadline
  | Faulted of string

let error_code_name = function
  | Overloaded -> "overloaded"
  | Bad_request -> "bad_request"
  | Protocol_error -> "protocol"
  | Deadline -> "deadline"
  | Faulted cls -> "faulted." ^ cls

let error_code_of_name = function
  | "overloaded" -> Some Overloaded
  | "bad_request" -> Some Bad_request
  | "protocol" -> Some Protocol_error
  | "deadline" -> Some Deadline
  | s ->
      let prefix = "faulted." in
      let n = String.length prefix in
      if String.length s >= n && String.sub s 0 n = prefix then
        Some (Faulted (String.sub s n (String.length s - n)))
      else None

type response =
  | Optimized of {
      id : int;
      kernel : string;
      target : string;
      warm : bool;
      time_s : float;
      moves : string list;
      script : string;
      evaluations : int;
      failures : int;
    }
  | Queried of {
      id : int;
      kernel : string;
      target : string;
      found : bool;
      time_s : float;
      moves : string list;
    }
  | Generated of {
      id : int;
      kernel : string;
      target : string;
      warm : bool;
      time_s : float;
      c_entry : string;
      c : string;
    }
  | Stats_reply of {
      id : int;
      counters : (string * int) list;
      gauges : (string * float) list;
    }
  | Shutdown_ack of { id : int; records : int }
  | Error of { id : int; code : error_code; msg : string }

let response_id = function
  | Optimized { id; _ }
  | Queried { id; _ }
  | Generated { id; _ }
  | Stats_reply { id; _ }
  | Shutdown_ack { id; _ }
  | Error { id; _ } ->
      id

let response_kind = function
  | Optimized _ -> "optimized"
  | Queried _ -> "queried"
  | Generated _ -> "generated"
  | Stats_reply _ -> "stats"
  | Shutdown_ack _ -> "shutdown"
  | Error _ -> "error"

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let jint i = J.Num (float_of_int i)
let jstrs ss = J.Arr (List.map (fun s -> J.Str s) ss)

(* The kind and version lead every message, then the id, then the
   kind-specific members in declaration order. *)
let head kind_key kind id =
  [ (kind_key, J.Str kind); ("v", jint version); ("id", jint id) ]

let request_json = function
  | Optimize { id; kernel; target; strategy; budget; deadline_ms; force } ->
      J.Obj
        (head "req" "optimize" id
        @ [
            ("kernel", J.Str kernel);
            ("target", J.Str target);
            ("strategy", J.Str strategy);
            ("budget", jint budget);
            ("deadline_ms", jint deadline_ms);
            ("force", J.Bool force);
          ])
  | Query { id; kernel; target } ->
      J.Obj
        (head "req" "query" id
        @ [ ("kernel", J.Str kernel); ("target", J.Str target) ])
  | Generate { id; kernel; target; strategy; budget; deadline_ms } ->
      J.Obj
        (head "req" "generate" id
        @ [
            ("kernel", J.Str kernel);
            ("target", J.Str target);
            ("strategy", J.Str strategy);
            ("budget", jint budget);
            ("deadline_ms", jint deadline_ms);
          ])
  | Stats { id } -> J.Obj (head "req" "stats" id)
  | Shutdown { id } -> J.Obj (head "req" "shutdown" id)

let response_json = function
  | Optimized
      { id; kernel; target; warm; time_s; moves; script; evaluations; failures }
    ->
      J.Obj
        (head "resp" "optimized" id
        @ [
            ("kernel", J.Str kernel);
            ("target", J.Str target);
            ("warm", J.Bool warm);
            ("time_s", J.Num time_s);
            ("moves", jstrs moves);
            ("script", J.Str script);
            ("evaluations", jint evaluations);
            ("failures", jint failures);
          ])
  | Queried { id; kernel; target; found; time_s; moves } ->
      J.Obj
        (head "resp" "queried" id
        @ [
            ("kernel", J.Str kernel);
            ("target", J.Str target);
            ("found", J.Bool found);
            ("time_s", J.Num time_s);
            ("moves", jstrs moves);
          ])
  | Generated { id; kernel; target; warm; time_s; c_entry; c } ->
      J.Obj
        (head "resp" "generated" id
        @ [
            ("kernel", J.Str kernel);
            ("target", J.Str target);
            ("warm", J.Bool warm);
            ("time_s", J.Num time_s);
            ("c_entry", J.Str c_entry);
            ("c", J.Str c);
          ])
  | Stats_reply { id; counters; gauges } ->
      J.Obj
        (head "resp" "stats" id
        @ [
            ( "counters",
              J.Obj (List.map (fun (k, v) -> (k, jint v)) counters) );
            ("gauges", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) gauges));
          ])
  | Shutdown_ack { id; records } ->
      J.Obj (head "resp" "shutdown" id @ [ ("records", jint records) ])
  | Error { id; code; msg } ->
      J.Obj
        (head "resp" "error" id
        @ [ ("code", J.Str (error_code_name code)); ("msg", J.Str msg) ])

let encode_request r = J.to_string (request_json r)
let encode_response r = J.to_string (response_json r)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* [Error] below always means [Stdlib.result]'s — the [response]
   constructor of the same name is disambiguated by the annotations *)
let field name conv obj : ('a, string) result =
  match J.member name obj with
  | None -> Error (Printf.sprintf "missing member %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "ill-typed member %S" name))

let to_bool = function J.Bool b -> Some b | _ -> None

let to_strings v =
  match J.to_list v with
  | None -> None
  | Some items ->
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | J.Str s :: rest -> go (s :: acc) rest
        | _ -> None
      in
      go [] items

let to_int_pairs = function
  | J.Obj members ->
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | (k, v) :: rest -> (
            match J.to_int v with
            | Some i -> go ((k, i) :: acc) rest
            | None -> None)
      in
      go [] members
  | _ -> None

let to_float_pairs = function
  | J.Obj members ->
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | (k, v) :: rest -> (
            match J.to_float v with
            | Some f -> go ((k, f) :: acc) rest
            | None -> None)
      in
      go [] members
  | _ -> None

(* Parse the shared envelope: the kind under [kind_key], the version
   (rejected unless exactly {!version}) and the correlation id. *)
let envelope kind_key line =
  let* obj =
    match J.of_string line with
    | Error msg -> Error ("unparseable message: " ^ msg)
    | Ok (J.Obj _ as o) -> Ok o
    | Ok _ -> Error "message is not a JSON object"
  in
  let* kind = field kind_key J.to_str obj in
  let* v = field "v" J.to_int obj in
  let* () =
    if v = version then Ok ()
    else Error (Printf.sprintf "unsupported protocol version %d" v)
  in
  let* id = field "id" J.to_int obj in
  Ok (obj, kind, id)

let decode_request line : (request, string) result =
  let* obj, kind, id = envelope "req" line in
  match kind with
  | "optimize" ->
      let* kernel = field "kernel" J.to_str obj in
      let* target = field "target" J.to_str obj in
      let* strategy = field "strategy" J.to_str obj in
      let* budget = field "budget" J.to_int obj in
      let* deadline_ms = field "deadline_ms" J.to_int obj in
      let* force = field "force" to_bool obj in
      Ok (Optimize { id; kernel; target; strategy; budget; deadline_ms; force })
  | "query" ->
      let* kernel = field "kernel" J.to_str obj in
      let* target = field "target" J.to_str obj in
      Ok (Query { id; kernel; target })
  | "generate" ->
      let* kernel = field "kernel" J.to_str obj in
      let* target = field "target" J.to_str obj in
      let* strategy = field "strategy" J.to_str obj in
      let* budget = field "budget" J.to_int obj in
      let* deadline_ms = field "deadline_ms" J.to_int obj in
      Ok (Generate { id; kernel; target; strategy; budget; deadline_ms })
  | "stats" -> Ok (Stats { id })
  | "shutdown" -> Ok (Shutdown { id })
  | k -> Error (Printf.sprintf "unknown request kind %S" k)

let decode_response line : (response, string) result =
  let* obj, kind, id = envelope "resp" line in
  match kind with
  | "optimized" ->
      let* kernel = field "kernel" J.to_str obj in
      let* target = field "target" J.to_str obj in
      let* warm = field "warm" to_bool obj in
      let* time_s = field "time_s" J.to_float obj in
      let* moves = field "moves" to_strings obj in
      let* script = field "script" J.to_str obj in
      let* evaluations = field "evaluations" J.to_int obj in
      let* failures = field "failures" J.to_int obj in
      Ok
        (Optimized
           {
             id; kernel; target; warm; time_s; moves; script; evaluations;
             failures;
           })
  | "queried" ->
      let* kernel = field "kernel" J.to_str obj in
      let* target = field "target" J.to_str obj in
      let* found = field "found" to_bool obj in
      let* time_s = field "time_s" J.to_float obj in
      let* moves = field "moves" to_strings obj in
      Ok (Queried { id; kernel; target; found; time_s; moves })
  | "generated" ->
      let* kernel = field "kernel" J.to_str obj in
      let* target = field "target" J.to_str obj in
      let* warm = field "warm" to_bool obj in
      let* time_s = field "time_s" J.to_float obj in
      let* c_entry = field "c_entry" J.to_str obj in
      let* c = field "c" J.to_str obj in
      Ok (Generated { id; kernel; target; warm; time_s; c_entry; c })
  | "stats" ->
      let* counters = field "counters" to_int_pairs obj in
      let* gauges = field "gauges" to_float_pairs obj in
      Ok (Stats_reply { id; counters; gauges })
  | "shutdown" ->
      let* records = field "records" J.to_int obj in
      Ok (Shutdown_ack { id; records })
  | "error" ->
      let* code_s = field "code" J.to_str obj in
      let* code =
        match error_code_of_name code_s with
        | Some c -> Ok c
        | None -> Error (Printf.sprintf "unknown error code %S" code_s)
      in
      let* msg = field "msg" J.to_str obj in
      Ok (Error { id; code; msg })
  | k -> Error (Printf.sprintf "unknown response kind %S" k)
