(* Reference printer for test_tuning's json oracle properties:
   lib/util/json.ml's [num_string] and [escape_string] as they were
   before integral floats printed through [string_of_int] and unescaped
   runs were copied whole, kept verbatim below this header. *)

(* Shortest of %.15g / %.16g / %.17g that parses back to the same float:
   exact, and stable under parse-then-reprint. *)
let num_string (f : float) : string =
  let try_prec p =
    let s = Printf.sprintf "%.*g" p f in
    if float_of_string s = f then Some s else None
  in
  match try_prec 15 with
  | Some s -> s
  | None -> ( match try_prec 16 with
      | Some s -> s
      | None -> Printf.sprintf "%.17g" f)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'
