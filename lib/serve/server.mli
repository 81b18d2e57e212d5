(** The tuning service: an always-on server over the batch optimizer.

    One server owns one tolerantly-loaded tuning {!Tuning.Db} plus one
    scoped {!Tuning.Cache}, shared by every request it ever answers:

    - a {e warm} request — a [query], or an [optimize]/[generate] whose
      kernel fingerprint already has a database record — is answered
      inline from the database in microseconds, without touching the
      search or the performance models (no [search.*] trace events);
    - a {e cold} request runs the full guarded search on a worker and
      deposits its winner, so every future caller of the same pair is
      warm.

    Admission control and backpressure: cold requests enter a bounded
    pending queue ([queue_depth]); when it is full the request is
    rejected immediately with a typed [overloaded] response instead of
    queuing unboundedly.  A dispatcher thread drains the queue in
    batches onto a {!Parallel.Pool} of [workers] domains.  Each request
    runs under the configured {!Robust.Guard} (fuel, retries) and fault
    injection, with an optional per-request deadline — an expired
    request is answered [deadline] without running.  A failed or
    faulted optimization degrades to a typed [faulted.<class>] error
    response; it never takes down the server, and its non-finite score
    never reaches the shared cache or database.

    Observability: [serve.accept] / [serve.dispatch] / [serve.reply] /
    [serve.reject] / [serve.shutdown] trace events (the sink is
    mutex-synchronized, safe for concurrent writers), request-latency
    histograms [serve.latency_warm_s] / [serve.latency_cold_s] with
    exact quantiles, the [serve.queue_depth] gauge and warm/cold/reject
    counters — all exported through the [stats] request. *)

type config = {
  queue_depth : int;  (** bounded pending queue for cold requests *)
  workers : int;  (** pool parallelism for cold requests (>= 1) *)
  default_budget : int;  (** for requests with [budget <= 0] *)
  deadline_ms : int;  (** default queueing deadline; [0] = none *)
  seed : int;
  db_file : string option;
      (** the shared {!Tuning.Db}: loaded at {!create}, which checkpoints
          a crashed predecessor's journal at once; each deposit is
          journaled {e before} the response is sent, so [kill -9] loses
          none and other processes see it; saved at {!stop} *)
  max_frame : int;  (** frame size limit for the transports *)
  kernels : Kernels.entry list;  (** the servable kernel registry *)
  guard : Robust.Guard.config;
      (** per-request retries and evaluation fuel *)
  faults : Robust.Faults.config;
  obs : Obs.Trace.sink;  (** synchronized internally *)
  metrics : Obs.Metrics.t option;
      (** registry to export into; the server creates a private one
          when absent (the [stats] request always has data) *)
  surrogate : bool;
      (** share one {!Perfdojo.Surrogate.Model} across all cold
          requests: every guarded evaluation trains it online, and
          [stats] exports the [surrogate.*] counters *)
  filter_ratio : float;
      (** when [surrogate] is on and this is [< 1.0], each candidate
          batch is pre-ranked by the model and only the top fraction
          reaches the simulator *)
  dedup : bool;  (** intra-batch candidate dedup for cold searches *)
  visited_dedup : bool;
      (** canonical visited-set dedup for cold searches: a state
          measured once is never re-measured across rounds *)
  exhaustive_depth : int;
      (** depth bound for the ["exhaustive"] strategy (default 3) *)
}

val default_config : config
(** [queue_depth 16], [workers 1], [default_budget 300], no deadline,
    seed 1, no database file, {!Frame.max_payload_default}, the full
    kernel suite, default guard (no fuel), no faults, untraced, no
    surrogate ([filter_ratio 1.0], no dedup, no visited-set,
    [exhaustive_depth 3]). *)

type t

exception Database_refused of string
(** {!create}'s refusal of [config.db_file]: the {!Tuning.Db.load} error,
    which names the file and, for a complete line that is not a record
    this build reads, its 1-based line and the reason.  The file is left
    as it is. *)

val create : ?start:bool -> config -> t
(** Build a server: load the database (tolerantly — skipped lines
    surface as a [db.skipped_lines] trace event), create the shared
    cache, and — unless [~start:false] — launch the dispatcher.
    Raises {!Database_refused} when {!Tuning.Db.load} refuses the
    database: an unreadable file, a line it cannot read, or a corrupt
    journal. *)

val start : t -> unit
(** Launch the dispatcher thread if not yet running ([create
    ~start:false] defers it — tests pause dispatch to pin down
    admission-control behaviour deterministically). *)

val db : t -> Tuning.Db.t
val metrics : t -> Obs.Metrics.t

val surrogate_model : t -> Perfdojo.Surrogate.Model.t option
(** The shared cost model, when [config.surrogate] was set — tests
    inspect its update counter to check that cold requests train it. *)

val stopping : t -> bool

(** {1 Submitting requests} *)

type ticket

val submit_async :
  t -> Protocol.request -> [ `Done of Protocol.response | `Queued of ticket ]
(** Admission: warm and administrative requests (and every rejection)
    complete inline as [`Done]; an admitted cold request returns a
    [`Queued] ticket to {!await}. *)

val await : ticket -> Protocol.response
(** Block until the dispatcher fulfils the ticket. *)

val submit : t -> Protocol.request -> Protocol.response
(** [submit_async] + [await]: the synchronous entry the transports and
    in-process callers use.  Safe to call from any thread or domain. *)

(** {1 Lifecycle} *)

val stop : t -> unit
(** Graceful shutdown: refuse new cold work, drain the in-flight
    batches and the pending queue, checkpoint the database to
    [db_file] via the atomic {!Tuning.Db.save}, and emit a final
    [serve.shutdown] trace event.  Idempotent; concurrent callers
    block until the first finishes. *)

(** {1 Transports} *)

val run_pipe : t -> in_channel -> out_channel -> unit
(** Serve framed requests from a channel pair (the [--pipe] mode tests
    and CI drive over stdin/stdout).  Requests are answered in order;
    EOF or a [shutdown] request stops the server gracefully.  An
    unparseable or oversized message is answered with a typed
    [protocol] error and the stream survives; a torn frame closes it. *)

val run_socket :
  ?should_stop:(unit -> bool) -> ?on_ready:(unit -> unit) -> t -> string ->
  unit
(** Bind a Unix-domain socket at the given path and serve connections,
    one thread per connection, until a [shutdown] request arrives or
    [should_stop] turns true (polled a few times per second — the CLI
    points it at a SIGINT flag).  [on_ready] runs once the socket is
    bound and listening (the CLI's banner; tests' ready signal).
    Binding errors (unwritable directory,
    already-bound path) propagate as [Unix.Unix_error] for the CLI's
    one-line error contract.  On exit the server stops gracefully and
    the socket file is removed. *)
