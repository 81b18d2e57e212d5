type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

type error =
  | Timeout of int
  | Transport of string
  | Decode of string

let error_message = function
  | Timeout ms -> Printf.sprintf "no response within %d ms" ms
  | Transport msg -> msg
  | Decode msg -> Printf.sprintf "unparseable response: %s" msg

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> ()
  | exception e ->
      Unix.close fd;
      raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* The deadline is select-based on the raw fd, which is sound here
   because the channel buffer is empty between exchanges: the server
   sends exactly one response per request and [Frame.read] consumes the
   whole frame. *)
let request ?deadline_ms t req =
  Frame.write t.oc (Protocol.encode_request req);
  let ready =
    match deadline_ms with
    | None -> true
    | Some ms ->
        let deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
        let rec wait () =
          let remaining = deadline -. Unix.gettimeofday () in
          if remaining <= 0. then false
          else
            match Unix.select [ t.fd ] [] [] remaining with
            | [], _, _ -> false
            | _ :: _, _, _ -> true
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        in
        wait ()
  in
  match deadline_ms with
  | Some ms when not ready -> Error (Timeout ms)
  | _ -> (
      match Frame.read ~max:Frame.max_payload_default t.ic with
      | Error e -> Error (Transport (Frame.error_message e))
      | Ok payload -> (
          match Protocol.decode_response payload with
          | Ok resp -> Ok resp
          | Error msg -> Error (Decode msg)))

let close t =
  (* the channels share [fd]; closing it once is enough, flushing first *)
  (try flush t.oc with Sys_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()

let with_connection path f =
  let t = connect path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* Bounded exponential-backoff retry over fresh connections: attempt k
   sleeps [base_delay_ms * 2^(k-1)] first, so a client rides out a
   server restart.  Only safe for idempotent requests — the caller
   (the CLI gates shutdown out) must guarantee that, because a timed-out
   request may still execute on the server. *)
let request_retry ?(attempts = 3) ?(base_delay_ms = 100) ?deadline_ms
    ~socket req =
  if attempts < 1 then invalid_arg "Client.request_retry: attempts < 1";
  if base_delay_ms < 0 then
    invalid_arg "Client.request_retry: negative base_delay_ms";
  let rec go k last =
    if k >= attempts then last
    else begin
      if k > 0 then
        Unix.sleepf (float_of_int (base_delay_ms * (1 lsl (k - 1))) /. 1000.);
      let result =
        match connect socket with
        | exception Unix.Unix_error (e, _, _) ->
            Error (Transport (Unix.error_message e))
        | t ->
            Fun.protect
              ~finally:(fun () -> close t)
              (fun () ->
                match request ?deadline_ms t req with
                | r -> r
                | exception Unix.Unix_error (e, _, _) ->
                    Error (Transport (Unix.error_message e))
                | exception Sys_error msg -> Error (Transport msg))
      in
      match result with
      | Ok _ as r -> r
      | Error (Decode _) as r -> r (* a reply arrived; don't re-issue *)
      | Error _ as r -> go (k + 1) r
    end
  in
  go 0 (Error (Transport "unreachable"))
