(* Length-prefixed framing: "<decimal len>\n<payload>\n".

   The pure string functions and the channel functions share the same
   grammar; the QCheck properties in test_serve drive the string pair
   (encode → decode identity, torn/oversized classification) and the
   server drives the channel pair. *)

type error =
  | Eof
  | Torn of string
  | Oversized of { len : int; max : int }
  | Malformed of string

let error_message = function
  | Eof -> "end of stream"
  | Torn what -> "torn frame: stream ended " ^ what
  | Oversized { len; max } ->
      Printf.sprintf "oversized frame: %d bytes exceeds the %d-byte limit"
        len max
  | Malformed what -> "malformed frame: " ^ what

let max_payload_default = 4 * 1024 * 1024

(* The length header is bounded: max_payload_default has 7 digits, so
   anything past 19 digits is garbage, not a huge frame. *)
let max_header_digits = 19

let encode payload =
  String.concat "" [ string_of_int (String.length payload); "\n"; payload; "\n" ]

(* ------------------------------------------------------------------ *)
(* Pure string transport                                               *)
(* ------------------------------------------------------------------ *)

let parse_header (s : string) :
    (int * int, [ `Need_more | `Bad of string ]) result =
  match String.index_opt s '\n' with
  | None ->
      if String.length s > max_header_digits then
        Error (`Bad "length header is not a decimal integer")
      else Error `Need_more
  | Some nl -> (
      let header = String.sub s 0 nl in
      match int_of_string_opt header with
      | Some len when len >= 0 -> Ok (len, nl + 1)
      | _ ->
          Error (`Bad (Printf.sprintf "length header %S is not a decimal \
                                       integer" header)))

let decode ?(max = max_payload_default) (s : string) :
    (string * string, error) result =
  if s = "" then Error Eof
  else
    match parse_header s with
    | Error (`Bad msg) -> Error (Malformed msg)
    | Error `Need_more -> Error (Torn "inside the length header")
    | Ok (len, start) ->
        if len > max then Error (Oversized { len; max })
        else if String.length s < start + len + 1 then
          Error (Torn "inside the payload")
        else if s.[start + len] <> '\n' then
          Error (Malformed "payload is not terminated by a newline")
        else
          Ok
            ( String.sub s start len,
              String.sub s (start + len + 1)
                (String.length s - start - len - 1) )

let decode_skip ?(max = max_payload_default) (s : string) :
    (string * string, error) result * string =
  match decode ~max s with
  | Ok (_, rest) as ok -> (ok, rest)
  | Error (Oversized { len; _ }) as e -> (
      (* skip header + payload + trailer if the stream holds them all *)
      match parse_header s with
      | Ok (_, start) when String.length s >= start + len + 1 ->
          (e, String.sub s (start + len + 1) (String.length s - start - len - 1))
      | _ -> (e, ""))
  | Error _ as e -> (e, s)

(* ------------------------------------------------------------------ *)
(* Channel transport                                                   *)
(* ------------------------------------------------------------------ *)

let write oc payload =
  output_string oc (string_of_int (String.length payload));
  output_char oc '\n';
  output_string oc payload;
  output_char oc '\n';
  flush oc

let read ?(max = max_payload_default) ic : (string, error) result =
  (* header: digits up to '\n' *)
  let buf = Buffer.create 16 in
  let rec header first =
    match input_char ic with
    | exception End_of_file ->
        if first then Error Eof else Error (Torn "inside the length header")
    | '\n' -> (
        match int_of_string_opt (Buffer.contents buf) with
        | Some len when len >= 0 -> Ok len
        | _ ->
            Error
              (Malformed
                 (Printf.sprintf "length header %S is not a decimal integer"
                    (Buffer.contents buf))))
    | c ->
        if Buffer.length buf > max_header_digits then
          Error (Malformed "length header is not a decimal integer")
        else begin
          Buffer.add_char buf c;
          header false
        end
  in
  match header true with
  | Error _ as e -> e
  | Ok len ->
      if len > max then begin
        (* consume and discard payload + trailer so the stream stays
           framed and the connection survives the oversized message *)
        let chunk = Bytes.create 65536 in
        let rec skip remaining =
          if remaining <= 0 then ()
          else
            let n = input ic chunk 0 (min remaining (Bytes.length chunk)) in
            if n = 0 then raise End_of_file else skip (remaining - n)
        in
        match skip (len + 1) with
        | () -> Error (Oversized { len; max })
        | exception End_of_file -> Error (Torn "inside the payload")
      end
      else begin
        match really_input_string ic len with
        | exception End_of_file -> Error (Torn "inside the payload")
        | payload -> (
            match input_char ic with
            | exception End_of_file -> Error (Torn "at the frame trailer")
            | '\n' -> Ok payload
            | _ -> Error (Malformed "payload is not terminated by a newline"))
      end
