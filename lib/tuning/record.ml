(* One tuning result: the best move sequence found for a
   (kernel, target) pair, with the provenance needed to reuse it —
   program fingerprint, modelled runtime, evaluation count.  Serialized
   as one canonical JSON object per line. *)

open Util

type t = {
  kernel : string;
  target : string;
  moves : string list;
  best_time : float;
  evals : int;
  fingerprint : string;
  script : string option;
}

let schema_version = 3

(* Canonical program identity: digest of the canonicalized program, so
   alpha-renamed and commutatively-reordered spellings of the same root
   share their records. *)
let fingerprint (p : Ir.Prog.t) : string = Canon.fingerprint p

let root_keys (p : Ir.Prog.t) : string * string =
  let f = fingerprint p in
  (f, f)

let matches_root ~keys:(f, _) (r : t) = String.equal r.fingerprint f

let make ?script ~kernel ~target ~moves ~best_time ~evals ~root () =
  { kernel; target; moves; best_time; evals; fingerprint = fingerprint root;
    script }

let to_json (r : t) : string =
  let script_member =
    match r.script with None -> [] | Some s -> [ ("script", Json.Str s) ]
  in
  Json.to_string
    (Json.Obj
       ([
          ("schema", Json.Num (float_of_int schema_version));
          ("kernel", Json.Str r.kernel);
          ("target", Json.Str r.target);
          ("moves", Json.Arr (List.map (fun m -> Json.Str m) r.moves));
          ("best_time", Json.Num r.best_time);
          ("evals", Json.Num (float_of_int r.evals));
          ("fingerprint", Json.Str r.fingerprint);
        ]
       @ script_member))

let of_json (line : string) : (t, string) result =
  match Json.of_string line with
  | Error msg -> Error ("record: " ^ msg)
  | Ok v -> (
      let str_field name =
        match Option.bind (Json.member name v) Json.to_str with
        | Some s -> Ok s
        | None -> Error (Printf.sprintf "record: missing string %S" name)
      in
      let int_field name =
        match Option.bind (Json.member name v) Json.to_int with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "record: missing int %S" name)
      in
      let float_field name =
        match Option.bind (Json.member name v) Json.to_float with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "record: missing number %S" name)
      in
      let moves_field () =
        match Option.bind (Json.member "moves" v) Json.to_list with
        | None -> Error "record: missing array \"moves\""
        | Some items ->
            List.fold_right
              (fun item acc ->
                match (Json.to_str item, acc) with
                | Some s, Ok rest -> Ok (s :: rest)
                | None, _ -> Error "record: non-string move"
                | _, (Error _ as e) -> e)
              items (Ok [])
      in
      (* optional, but a present member must be a string *)
      let script_field () =
        match Json.member "script" v with
        | None -> Ok None
        | Some (Json.Str s) -> Ok (Some s)
        | Some _ -> Error "record: ill-typed string \"script\""
      in
      let ( let* ) = Result.bind in
      let* schema = int_field "schema" in
      (* schema 2 is schema 3 without the optional script *)
      let* () =
        if schema = 2 || schema = schema_version then Ok ()
        else if schema = 1 then
          Error
            "record: unsupported schema version 1 (the record predates \
             canonical fingerprints: re-tune its pair or delete the line)"
        else
          Error (Printf.sprintf "record: unsupported schema version %d" schema)
      in
      let* kernel = str_field "kernel" in
      let* target = str_field "target" in
      let* moves = moves_field () in
      let* best_time = float_field "best_time" in
      let* evals = int_field "evals" in
      let* fingerprint = str_field "fingerprint" in
      let* script = script_field () in
      Ok { kernel; target; moves; best_time; evals; fingerprint; script })

let key (r : t) : string =
  r.kernel ^ "|" ^ r.fingerprint ^ "|" ^ r.target ^ "|"
  ^ String.concat ";" r.moves

(* Total order for stable saves: every field participates so equal-keyed
   records compare equal only when byte-identical. *)
let compare_order (a : t) (b : t) : int =
  let c = compare a.kernel b.kernel in
  if c <> 0 then c
  else
    let c = compare a.target b.target in
    if c <> 0 then c
    else
      let c = compare a.best_time b.best_time in
      if c <> 0 then c
      else
        let c = compare a.moves b.moves in
        if c <> 0 then c
        else
          let c = compare a.evals b.evals in
          if c <> 0 then c
          else
            let c = compare a.fingerprint b.fingerprint in
            if c <> 0 then c else compare a.script b.script
