open Transform

let version = 1

type stmt = {
  sel : Target.t option;
  name : string;
  args : (string * string) list;
}

type t = {
  kernel : string option;
  ktarget : string option;
  stmts : (int * stmt) list;
}

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let call_str name args =
  if args = [] then name
  else
    name ^ "("
    ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) args)
    ^ ")"

let stmt_to_string = function
  | { sel = Some sel; name; args } ->
      "at " ^ Target.to_string sel ^ " do " ^ call_str name args
  | { sel = None; name; args } -> "do " ^ call_str name args

(* The statement a recorded describe string becomes; [None] when it is
   not a move. *)
let stmt_of_move d =
  Option.map
    (fun m ->
      let anchor, name, args = Moveref.script_stmt m in
      { sel = Option.map (fun p -> Target.Path p) anchor; name; args })
    (Moveref.of_describe d)

let to_string s =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "pds %d\n" version);
  Option.iter (fun k -> Buffer.add_string buf ("kernel " ^ k ^ "\n")) s.kernel;
  Option.iter (fun t -> Buffer.add_string buf ("target " ^ t ^ "\n")) s.ktarget;
  List.iter
    (fun (_, st) ->
      Buffer.add_string buf (stmt_to_string st);
      Buffer.add_char buf '\n')
    s.stmts;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let strip_comment line =
  (* '#' starts a comment unless inside a quoted string *)
  let n = String.length line in
  let rec scan i in_quote =
    if i >= n then line
    else
      match line.[i] with
      | '"' -> scan (i + 1) (not in_quote)
      | '\\' when in_quote && i + 1 < n -> scan (i + 2) in_quote
      | '#' when not in_quote -> String.sub line 0 i
      | _ -> scan (i + 1) in_quote
  in
  scan 0 false

let parse_call s =
  let s = String.trim s in
  match String.index_opt s '(' with
  | None ->
      if s = "" then Error "missing transformation name"
      else Ok (s, [])
  | Some i ->
      let n = String.length s in
      if s.[n - 1] <> ')' then Error "unterminated argument list"
      else
        let name = String.trim (String.sub s 0 i) in
        let inner = String.sub s (i + 1) (n - i - 2) in
        if String.trim inner = "" then Ok (name, [])
        else
          let parts = String.split_on_char ',' inner in
          let rec build acc = function
            | [] -> Ok (name, List.rev acc)
            | kv :: rest -> (
                match String.index_opt kv '=' with
                | None -> Error ("argument without '=': " ^ String.trim kv)
                | Some e ->
                    let k = String.trim (String.sub kv 0 e) in
                    let v =
                      String.trim
                        (String.sub kv (e + 1) (String.length kv - e - 1))
                    in
                    if k = "" || v = "" then
                      Error ("empty argument in: " ^ String.trim kv)
                    else build ((k, v) :: acc) rest)
          in
          build [] parts

(* last " do " outside quotes separates selector from call *)
let split_at_do s =
  let n = String.length s in
  let rec scan i in_quote best =
    if i + 4 > n then best
    else
      match s.[i] with
      | '"' -> scan (i + 1) (not in_quote) best
      | '\\' when in_quote -> scan (i + 2) in_quote best
      | _ when (not in_quote) && String.sub s i 4 = " do " ->
          scan (i + 1) in_quote (Some i)
      | _ -> scan (i + 1) in_quote best
  in
  match scan 0 false None with
  | None -> None
  | Some i ->
      Some (String.sub s 0 i, String.sub s (i + 4) (n - i - 4))

let parse text =
  let lines = String.split_on_char '\n' text in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let rec header = function
    | [] -> Error "empty script: expected 'pds 1' header"
    | (lineno, l) :: rest -> (
        let l = String.trim (strip_comment l) in
        if l = "" then header rest
        else
          match String.split_on_char ' ' l with
          | [ "pds"; v ] -> (
              match int_of_string_opt v with
              | Some 1 -> Ok rest
              | Some v ->
                  err lineno
                    (Printf.sprintf "unsupported script version %d (this \
                                     build reads pds %d)" v version)
              | None -> err lineno "malformed version in 'pds' header")
          | _ -> err lineno "first statement must be the 'pds 1' header")
  in
  let numbered = List.mapi (fun i l -> (i + 1, l)) lines in
  match header numbered with
  | Error e -> Error e
  | Ok rest ->
      let rec go kernel ktarget acc = function
        | [] -> Ok { kernel; ktarget; stmts = List.rev acc }
        | (lineno, raw) :: tail -> (
            let l = String.trim (strip_comment raw) in
            if l = "" then go kernel ktarget acc tail
            else if String.length l > 7 && String.sub l 0 7 = "kernel " then
              go (Some (String.trim (String.sub l 7 (String.length l - 7))))
                ktarget acc tail
            else if String.length l > 7 && String.sub l 0 7 = "target " then
              go kernel
                (Some (String.trim (String.sub l 7 (String.length l - 7))))
                acc tail
            else if String.length l > 5 && String.sub l 0 5 = "move " then
              let hint =
                match
                  stmt_of_move (String.trim (String.sub l 5 (String.length l - 5)))
                with
                | Some st -> "write: " ^ stmt_to_string st
                | None -> "write an 'at SELECTOR do NAME(ARGS)' statement"
              in
              err lineno ("the 'move' statement was removed; " ^ hint)
            else if String.length l > 3 && String.sub l 0 3 = "at " then
              match split_at_do (String.sub l 3 (String.length l - 3)) with
              | None -> err lineno "'at' statement without ' do '"
              | Some (sel_s, call_s) -> (
                  match Target.parse sel_s with
                  | Error e -> err lineno e
                  | Ok sel -> (
                      match parse_call call_s with
                      | Error e -> err lineno e
                      | Ok (name, args) ->
                          go kernel ktarget
                            ((lineno, { sel = Some sel; name; args }) :: acc)
                            tail))
            else if String.length l > 3 && String.sub l 0 3 = "do " then
              match parse_call (String.sub l 3 (String.length l - 3)) with
              | Error e -> err lineno e
              | Ok (name, args) ->
                  go kernel ktarget
                    ((lineno, { sel = None; name; args }) :: acc)
                    tail
            else err lineno ("unrecognized statement: " ^ l))
      in
      go None None [] rest

(* ------------------------------------------------------------------ *)
(* Conversion from recorded describe strings                           *)
(* ------------------------------------------------------------------ *)

let of_moves ?kernel ?ktarget moves =
  let rec go line acc = function
    | [] -> Ok { kernel; ktarget; stmts = List.rev acc }
    | d :: rest -> (
        match stmt_of_move d with
        | Some st -> go (line + 1) ((line, st) :: acc) rest
        | None -> Error (Printf.sprintf "of_moves: %S is not a move" d))
  in
  go 1 [] moves

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type run_error = { line : int; stext : string; err : Target.error }

let run_error_to_string { line; stext; err } =
  Printf.sprintf "script line %d (%s): %s" line stext
    (Target.error_to_string err)

let run ?(obs = Obs.Trace.null) caps prog (s : t) =
  if Obs.Trace.enabled obs then
    Obs.Trace.emit obs "script.run" (fun () ->
        [
          Obs.Trace.int "version" version;
          Obs.Trace.int "statements" (List.length s.stmts);
        ]);
  let session = Engine.start ~obs caps prog in
  let fail line st err = Error { line; stext = stmt_to_string st; err } in
  let rec go = function
    | [] ->
        Ok (session.Engine.current,
            List.map Xforms.describe (Engine.moves session))
    | (line, ({ sel; name; args } as st)) :: rest -> (
        match Composites.resolve name args with
        | Error m ->
            fail line st
              (Target.Refused { transfo = name; anchor = []; reason = m })
        | Ok transfo -> (
            let outcome =
              match sel with
              | Some sel -> Engine.apply_at session sel transfo
              | None -> Engine.apply_anchored session ~anchor:[] transfo
            in
            match outcome with
            | Ok _ -> go rest
            | Error err -> fail line st err))
  in
  go s.stmts
