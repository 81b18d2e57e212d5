(* trace_lint: validate a JSONL trace file.

   Every line must (1) parse as a single canonical JSON value, (2)
   re-print byte-identically (the canonical-form invariant the tuning
   database and the trace sink share), and (3) be an object carrying an
   "ev" string — the trace event envelope.  Exit status 1 on the first
   violation, so the @smoke alias catches a sink regression the moment
   it produces a malformed or non-canonical line.

   With --json, remaining arguments are single-document files instead
   (e.g. a library manifest.json): the whole file must be one canonical
   JSON object on one newline-terminated line. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

(* The crash-safety events carry fixed typed schemas: resume splices
   traces by these fields, so a checkpoint/journal line that drops or
   retypes one would corrupt recovery silently — @smoke fails loudly
   here instead. *)
let field_int path lineno ev fields name =
  match List.assoc_opt name fields with
  | Some (Util.Json.Num f) when Float.is_integer f && f >= 0. -> ()
  | Some _ ->
      fail "%s:%d: %s: %S is not a non-negative integer" path lineno ev name
  | None -> fail "%s:%d: %s: missing field %S" path lineno ev name

let field_str path lineno ev fields name =
  match List.assoc_opt name fields with
  | Some (Util.Json.Str _) -> ()
  | Some _ -> fail "%s:%d: %s: %S is not a string" path lineno ev name
  | None -> fail "%s:%d: %s: missing field %S" path lineno ev name

let lint_schema path lineno ev fields =
  let int = field_int path lineno ev fields in
  let str = field_str path lineno ev fields in
  match ev with
  | "checkpoint.write" ->
      (* one writer, Search.Checkpoint.safe_point: filled and evals
         from both engines, plus skipped/deduped/visited from the
         stochastic one *)
      int "filled";
      int "evals"
  | "journal.append" ->
      str "kind";
      str "key"
  | "journal.replay" ->
      str "kind";
      int "entries"
  (* The targeting/script events are the audit trail for schedule
     scripts: a replayed script is reconstructed from exactly these
     fields, so a writer dropping one would break script forensics. *)
  | "script.run" ->
      int "version";
      int "statements"
  | "target.resolve" ->
      str "selector";
      str "path"
  | "transfo.refused" ->
      str "transfo";
      str "anchor";
      str "reason"
  | _ -> ()

let lint_line path lineno line =
  match Util.Json.of_string line with
  | Error msg -> fail "%s:%d: unparseable JSON: %s" path lineno msg
  | Ok json ->
      let reprinted = Util.Json.to_string json in
      if reprinted <> line then
        fail "%s:%d: not canonical:\n  read:      %s\n  reprinted: %s" path
          lineno line reprinted;
      (match json with
      | Util.Json.Obj fields -> (
          match List.assoc_opt "ev" fields with
          | Some (Util.Json.Str ev) -> lint_schema path lineno ev fields
          | Some _ -> fail "%s:%d: \"ev\" is not a string" path lineno
          | None -> fail "%s:%d: event without an \"ev\" field" path lineno)
      | _ -> fail "%s:%d: event is not a JSON object" path lineno)

let lint path =
  let ic =
    try open_in path
    with Sys_error msg -> fail "cannot open trace: %s" msg
  in
  let n = ref 0 in
  (try
     while true do
       incr n;
       lint_line path !n (input_line ic)
     done
   with End_of_file -> close_in ic);
  Printf.printf "%s: %d events OK\n" path (!n - 1)

let lint_json path =
  let ic =
    try open_in_bin path
    with Sys_error msg -> fail "cannot open document: %s" msg
  in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  if n = 0 || s.[n - 1] <> '\n' then
    fail "%s: document is not newline-terminated" path;
  let body = String.sub s 0 (n - 1) in
  if String.contains body '\n' then
    fail "%s: document spans more than one line" path;
  match Util.Json.of_string body with
  | Error msg -> fail "%s: unparseable JSON: %s" path msg
  | Ok json ->
      let reprinted = Util.Json.to_string json in
      if reprinted <> body then
        fail "%s: not canonical:\n  read:      %s\n  reprinted: %s" path body
          reprinted;
      (match json with
      | Util.Json.Obj _ -> ()
      | _ -> fail "%s: document is not a JSON object" path);
      Printf.printf "%s: canonical JSON document OK\n" path

let () =
  let rec go json_mode = function
    | [] -> ()
    | "--json" :: rest -> go true rest
    | path :: rest ->
        (if json_mode then lint_json else lint) path;
        go json_mode rest
  in
  match Array.to_list Sys.argv with
  | _ :: (_ :: _ as args) -> go false args
  | _ ->
      prerr_endline
        "usage: trace_lint [--json] FILE.jsonl [FILE.jsonl ...]";
      exit 2
