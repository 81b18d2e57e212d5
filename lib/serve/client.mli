(** Client side of the tuning service: connect to a server's
    Unix-domain socket, exchange framed {!Protocol} messages, close.

    One connection carries any number of request/response exchanges in
    order.  Connection failures propagate as [Unix.Unix_error] (the CLI
    renders them as its one-line error); request-level failures are the
    typed {!error}. *)

type t

type error =
  | Timeout of int
      (** no response arrived within the request's [deadline_ms] *)
  | Transport of string  (** connection or framing failure *)
  | Decode of string
      (** the server framed a response this library cannot parse *)

val error_message : error -> string

val connect : string -> t
(** Connect to the socket at the given path.  Responses are read with
    the {!Frame.max_payload_default} frame limit.  Raises
    [Unix.Unix_error] (e.g. [ENOENT], [ECONNREFUSED]) when no server is
    listening. *)

val request :
  ?deadline_ms:int -> t -> Protocol.request -> (Protocol.response, error) result
(** Send one request and block for its response.  With [deadline_ms]
    the wait for the response is bounded ([select]-based on the raw
    descriptor): expiry returns [Timeout] without reading, and the
    connection should then be considered desynchronized and closed —
    the late response, if any, is still in flight.  Note the server may
    have executed a timed-out request; only re-issue idempotent ones. *)

val close : t -> unit

val with_connection : string -> (t -> 'a) -> 'a
(** [connect], run, [close] (also on exceptions). *)

val request_retry :
  ?attempts:int ->
  ?base_delay_ms:int ->
  ?deadline_ms:int ->
  socket:string ->
  Protocol.request ->
  (Protocol.response, error) result
(** One request with bounded exponential-backoff retry over {e fresh}
    connections: attempt [k] (0-based) sleeps [base_delay_ms * 2^(k-1)]
    first, so a client rides out a server restart.  Defaults: 3
    attempts, 100 ms base delay, no per-attempt deadline.  Connection
    failures, transport failures and timeouts retry; a [Decode] error
    does not (a reply did arrive — re-issuing could double-execute).

    {b Only pass idempotent requests} (query / optimize / generate /
    stats): a timed-out attempt may still have executed server-side.
    Raises [Invalid_argument] on [attempts < 1] or a negative delay. *)
