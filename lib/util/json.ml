(* Minimal JSON reader/writer shared by the tuning database and the
   observability trace sink.

   Hand-rolled on purpose: the package has no yojson dependency, and the
   JSONL stores need a *canonical* printer — compact, member order
   preserved, floats rendered by the shortest %g format that round-trips
   exactly — so that save -> load -> save is byte-identical.  It lives in
   [Util] so [Obs] (which the search and tuning layers both depend on)
   can reuse the canonical encoding without a dependency cycle. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* Shortest of %.15g / %.16g / %.17g that parses back to the same float:
   exact, and stable under parse-then-reprint.  An integral float below
   10^15 in magnitude, other than -0., has at most 15 digits, which
   %.15g prints in full with no exponent and which parse back exactly;
   [string_of_int] gives those same bytes without the Printf and the
   parse back.  Every other float takes the 15/16/17 ladder. *)
let num_string (f : float) : string =
  if
    Float.is_integer f && Float.abs f < 1e15
    && not (f = 0. && Float.sign_bit f)
  then string_of_int (int_of_float f)
  else
    let try_prec p =
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then Some s else None
    in
    match try_prec 15 with
    | Some s -> s
    | None -> ( match try_prec 16 with
        | Some s -> s
        | None -> Printf.sprintf "%.17g" f)

(* A run of bytes that needs no escape is copied whole; [start] is the
   first byte of the run not yet copied. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let rec go start i =
    if i = n then Buffer.add_substring buf s start (i - start)
    else
      let c = s.[i] in
      if c <> '"' && c <> '\\' && Char.code c >= 0x20 then go start (i + 1)
      else begin
        Buffer.add_substring buf s start (i - start);
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
        go (i + 1) (i + 1)
      end
  in
  go 0 0;
  Buffer.add_char buf '"'

let to_string (v : t) : string =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f ->
        if Float.is_finite f then Buffer.add_string buf (num_string f)
        else Buffer.add_string buf "null"
    | Str s -> escape_string buf s
    | Arr vs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            go v)
          vs;
        Buffer.add_char buf ']'
    | Obj members ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape_string buf k;
            Buffer.add_char buf ':';
            go v)
          members;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Fail of string

let rec digits_end s i stop =
  if i < stop && s.[i] >= '0' && s.[i] <= '9' then digits_end s (i + 1) stop
  else i

(* The index after a non-empty run of digits at s[i..stop), or -1. *)
let digit_run s i stop =
  let j = digits_end s i stop in
  if j > i then j else -1

(* whether [i] lies in s[0..stop) and s.[i] is [c] *)
let is_at s i stop c = i >= 0 && i < stop && s.[i] = c

(* Whether s[first..stop) is a JSON number without its optional '-':
   "0" or digits that do not start with '0', then an optional '.' with
   at least one digit after it, then an optional exponent: 'e' or 'E',
   an optional sign and at least one digit. *)
let unsigned_number s first stop =
  let i =
    if is_at s first stop '0' then first + 1 else digit_run s first stop
  in
  let i = if is_at s i stop '.' then digit_run s (i + 1) stop else i in
  let i =
    if is_at s i stop 'e' || is_at s i stop 'E' then
      let sign = is_at s (i + 1) stop '+' || is_at s (i + 1) stop '-' in
      digit_run s (if sign then i + 2 else i + 1) stop
    else i
  in
  i = stop

let of_string (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let len = String.length word in
    let rec matches i = i = len || (s.[!pos + i] = word.[i] && matches (i + 1)) in
    if !pos + len <= n && matches 0 then begin
      pos := !pos + len;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* UTF-8 encode a code point parsed from \uXXXX (surrogate pairs are
     passed through as-is: the database only ever holds ASCII). *)
  let add_code_point buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  (* the first '"' or '\\' at or after [i], or [n] *)
  let rec run_end i =
    if i < n && s.[i] <> '"' && s.[i] <> '\\' then run_end (i + 1) else i
  in
  (* A string whose closing quote comes before any backslash is one
     [String.sub]; otherwise the runs between escapes are copied whole. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = run_end start in
    if stop < n && s.[stop] = '"' then begin
      pos := stop + 1;
      String.sub s start (stop - start)
    end
    else begin
      let buf = Buffer.create (stop - start + 16) in
      (* [i] starts a run that needs no decoding *)
      let rec loop i =
        let stop = run_end i in
        Buffer.add_substring buf s i (stop - i);
        pos := stop;
        if stop >= n then fail "unterminated string";
        advance ();
        if s.[stop] = '"' then Buffer.contents buf
        else begin
          (if !pos >= n then fail "unterminated escape");
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              (match int_of_string_opt ("0x" ^ hex) with
              | Some cp -> add_code_point buf cp
              | None -> fail "bad \\u escape")
          | _ -> fail "unknown escape");
          loop !pos
        end
      in
      loop start
    end
  in
  (* A lexeme of an optional '-' and 1-15 decimal digits, whose first
     digit is not a '0' unless it is the only one, is below 2^53 in
     magnitude, so int arithmetic gives its float exactly; a negative
     zero ("-0") and every other lexeme go through [float_of_string_opt],
     which accepts more than JSON does, so they must also match JSON's
     number grammar. *)
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do
      advance ()
    done;
    let stop = !pos in
    let neg = stop > start && s.[start] = '-' in
    let first = if neg then start + 1 else start in
    (* [acc] followed by the digits of s[i..stop), or -1 at a non-digit *)
    let rec digits acc i =
      if i = stop then acc
      else
        match s.[i] with
        | '0' .. '9' as c ->
            digits ((10 * acc) + Char.code c - Char.code '0') (i + 1)
        | _ -> -1
    in
    let v =
      if stop - first >= 1 && stop - first <= 15 then digits 0 first else -1
    in
    if (v > 0 && s.[first] <> '0') || (v = 0 && stop = first + 1 && not neg)
    then Num (float_of_int (if neg then -v else v))
    else
      let text = String.sub s start (stop - start) in
      match float_of_string_opt text with
      | Some f when unsigned_number s first stop -> Num f
      | _ -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let members = ref [] in
          let rec members_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            members := (k, v) :: !members;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members_loop ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members_loop ();
          Obj (List.rev !members)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items_loop ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          items_loop ();
          Arr (List.rev !items)
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let to_float = function Num f -> Some f | _ -> None

(* [int_of_float] is unspecified outside [min_int, max_int]: an integral
   number out there is ill-typed, not wrapped. *)
let to_int = function
  | Num f
    when Float.is_integer f
         && f >= float_of_int min_int
         && f < -.float_of_int min_int ->
      Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr vs -> Some vs | _ -> None
