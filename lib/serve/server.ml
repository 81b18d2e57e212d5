(* The tuning service engine.

   Concurrency layout:
   - any number of submitter threads/domains call [submit] (transport
     connection threads, in-process tests, the bench harness);
   - warm and administrative requests are answered inline by the
     submitter itself — the fast path takes a couple of mutex hops and
     one database lookup, no search, no evaluation;
   - cold requests pass admission control into a bounded queue; one
     dispatcher thread drains the queue in batches onto a
     Parallel.Pool of [workers] domains and fulfils the tickets.

   Shared state and its locks:
   - tuning_db + db_mutex: lookups, deposits, checkpoints;
   - cache: internally sharded (Tuning.Cache is domain-safe);
   - metrics: internally mutex-guarded;
   - obs: wrapped in Obs.Trace.synchronized at [create];
   - queue/state/in_flight + qm (qcv wakes the dispatcher, drained
     signals stop progress and batch completion).

   A request's failure is always converted to a typed error response —
   the Robust.Guard failure classes for faulted optimizations — and
   never escapes to kill the dispatcher or a connection thread. *)

module P = Perfdojo

type config = {
  queue_depth : int;
  workers : int;
  default_budget : int;
  deadline_ms : int;
  seed : int;
  db_file : string option;
  max_frame : int;
  kernels : Kernels.entry list;
  guard : Robust.Guard.config;
  faults : Robust.Faults.config;
  obs : Obs.Trace.sink;
  metrics : Obs.Metrics.t option;
  surrogate : bool;
  filter_ratio : float;
  dedup : bool;
  visited_dedup : bool;
  exhaustive_depth : int;
}

let default_config =
  {
    queue_depth = 16;
    workers = 1;
    default_budget = 300;
    deadline_ms = 0;
    seed = 1;
    db_file = None;
    max_frame = Frame.max_payload_default;
    kernels = Kernels.table3 @ Kernels.snitch_micro;
    guard = Robust.Guard.default;
    faults = Robust.Faults.none;
    obs = Obs.Trace.null;
    metrics = None;
    surrogate = false;
    filter_ratio = 1.0;
    dedup = false;
    visited_dedup = false;
    exhaustive_depth = 3;
  }

type ticket = {
  rid : int;
  rkind : string;
  work : unit -> Protocol.response;
  enqueued_at : float;
  deadline_at : float option;  (* absolute, seconds *)
  tm : Mutex.t;
  tcv : Condition.t;
  mutable reply : Protocol.response option;
}

type stop_state = Running | Stopping | Stopped

type t = {
  cfg : config;
  obs : Obs.Trace.sink;
  traced : bool;
  ms : Obs.Metrics.t;
  tuning_db : Tuning.Db.t;
  db_mutex : Mutex.t;
  cache : Tuning.Cache.t;
  (* shared learned cost model: every cold optimization trains it
     online (Surrogate.Model is internally locked), and when
     cfg.filter_ratio < 1 it pre-ranks candidate batches *)
  model : P.Surrogate.Model.t option;
  (* kernel label -> (root program, its fingerprint), built once: the
     warm path must not pay a program construction per lookup *)
  roots : (string, Ir.Prog.t * string) Hashtbl.t;
  roots_mutex : Mutex.t;
  qm : Mutex.t;
  qcv : Condition.t;
  drained : Condition.t;
  queue : ticket Queue.t;
  mutable in_flight : int;
  mutable state : stop_state;
  mutable dispatcher : Thread.t option;
}

let db t = t.tuning_db
let metrics t = t.ms
let surrogate_model t = t.model
let stopping t = t.state <> Running

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let set_queue_gauge_locked t =
  Obs.Metrics.set t.ms "serve.queue_depth"
    (float_of_int (Queue.length t.queue))

let emit t name fields = if t.traced then Obs.Trace.emit t.obs name fields

let root_of t (e : Kernels.entry) : Ir.Prog.t * string =
  with_lock t.roots_mutex (fun () ->
      match Hashtbl.find_opt t.roots e.label with
      | Some pair -> pair
      | None ->
          let root = e.build () in
          let fingerprint = Tuning.Record.fingerprint root in
          Hashtbl.replace t.roots e.label (root, fingerprint);
          (root, fingerprint))

(* The pair's record ({!Tuning.Warmstart.lookup}) under the database
   lock: the only record the warm path may answer from. *)
let locked_lookup t ~kernel ~tname ~fingerprint =
  with_lock t.db_mutex (fun () ->
      Tuning.Warmstart.lookup t.tuning_db ~kernel ~target:tname ~fingerprint)

(* Tuning.Db.deposit journals the record (fsynced) before the reply is
   sent, so kill -9 loses no acknowledged deposit. *)
let deposit t (record : Tuning.Record.t option) =
  match record with
  | None -> ()
  | Some r ->
      with_lock t.db_mutex (fun () ->
          match Tuning.Db.deposit ?file:t.cfg.db_file t.tuning_db r with
          | `Duplicate -> ()
          | `Inserted | `Improved ->
              Obs.Metrics.incr t.ms "serve.deposits";
              if t.cfg.db_file <> None then begin
                Obs.Metrics.incr t.ms "journal.appends";
                emit t "journal.append" (fun () ->
                    Obs.Trace.
                      [
                        str "kind" "serve";
                        str "key"
                          (r.Tuning.Record.kernel ^ "|" ^ r.Tuning.Record.target);
                      ])
              end)

let err t ~id ~code ~msg : Protocol.response =
  Obs.Metrics.incr t.ms "serve.errors";
  Protocol.Error { id; code; msg }

(* ------------------------------------------------------------------ *)
(* Cold request bodies (run on dispatcher pool workers)                *)
(* ------------------------------------------------------------------ *)

let request_ctx t sink ~warm_start =
  let ctx =
    P.Ctx.(
      default |> with_seed t.cfg.seed |> with_cache t.cache |> with_obs sink
      |> with_metrics t.ms |> with_guard t.cfg.guard |> with_faults t.cfg.faults
      |> with_warm_start warm_start
      |> with_filter_ratio t.cfg.filter_ratio
      |> with_dedup t.cfg.dedup
      |> with_visited_dedup t.cfg.visited_dedup
      |> with_exhaustive_depth t.cfg.exhaustive_depth)
  in
  match t.model with
  | None -> ctx
  | Some m -> P.Ctx.with_surrogate m ctx

(* Optimize under the shared context into a private trace buffer, fold
   the buffer back, degrade any failure — a raising strategy, an
   all-evaluations-quarantined (+inf) outcome — to a typed error
   response with the guard's fault class. *)
let run_cold t ~id ~kernel ~tname ~target ~strat ~root ~fingerprint finish :
    Protocol.response =
  let sink = if t.traced then Obs.Trace.make_buffer () else Obs.Trace.null in
  let warm_start =
    match locked_lookup t ~kernel ~tname ~fingerprint with
    | Some r -> r.Tuning.Record.moves
    | None -> []
  in
  let ctx = request_ctx t sink ~warm_start in
  let result =
    match P.optimize_recorded ~ctx ~kernel ~target_name:tname strat target root
    with
    | pair -> Ok pair
    | exception e -> Error (Robust.Guard.rejected_of_exn e)
  in
  if t.traced then Obs.Trace.append ~into:t.obs sink;
  match result with
  | Error f ->
      err t ~id
        ~code:(Protocol.Faulted (Robust.Guard.failure_class f))
        ~msg:(Robust.Guard.failure_message f)
  | Ok (o, _) when not (Float.is_finite o.P.time_s) ->
      err t ~id
        ~code:(Protocol.Faulted "non_finite")
        ~msg:"every evaluation of the request was quarantined"
  | Ok (o, record) ->
      deposit t record;
      finish o record

let record_script (record : Tuning.Record.t option) =
  match record with
  | Some r -> Option.value r.Tuning.Record.script ~default:""
  | None -> ""

let cold_optimize t ~id ~kernel ~tname ~target ~strat ~root ~fingerprint () =
  run_cold t ~id ~kernel ~tname ~target ~strat ~root ~fingerprint
    (fun (o : P.outcome) record ->
      Protocol.Optimized
        {
          id;
          kernel;
          target = tname;
          warm = false;
          time_s = o.time_s;
          moves = o.moves;
          script = record_script record;
          evaluations = o.evaluations;
          failures = o.failures;
        })

let cold_generate t ~id ~kernel ~tname ~target ~strat ~root ~fingerprint () =
  run_cold t ~id ~kernel ~tname ~target ~strat ~root ~fingerprint
    (fun (o : P.outcome) (_ : Tuning.Record.t option) ->
      let c_entry = Codegen.entry_symbol ~kernel ~target:tname in
      Protocol.Generated
        {
          id;
          kernel;
          target = tname;
          warm = false;
          time_s = o.time_s;
          c_entry;
          c = Codegen.program ~entry:c_entry o.schedule;
        })

(* ------------------------------------------------------------------ *)
(* Tickets, dispatcher, admission                                      *)
(* ------------------------------------------------------------------ *)

let fulfil (tk : ticket) resp =
  with_lock tk.tm (fun () ->
      tk.reply <- Some resp;
      Condition.broadcast tk.tcv)

let await (tk : ticket) =
  Mutex.lock tk.tm;
  while tk.reply = None do
    Condition.wait tk.tcv tk.tm
  done;
  let r = Option.get tk.reply in
  Mutex.unlock tk.tm;
  r

let run_ticket t (tk : ticket) : Protocol.response =
  let now = Obs.Span.now () in
  match tk.deadline_at with
  | Some d when now > d ->
      err t ~id:tk.rid ~code:Protocol.Deadline
        ~msg:
          (Printf.sprintf "request expired after %.0f ms in the queue"
             ((now -. tk.enqueued_at) *. 1000.))
  | _ ->
      emit t "serve.dispatch" (fun () ->
          Obs.Trace.[ int "id" tk.rid; str "kind" tk.rkind ]);
      tk.work ()

(* Completion of a cold ticket: latency histogram (queue wait plus
   processing — what a client actually observes), reply event,
   fulfilment. *)
let finish_ticket t (tk : ticket) resp =
  Obs.Metrics.observe t.ms "serve.latency_cold_s"
    (Obs.Span.now () -. tk.enqueued_at);
  emit t "serve.reply" (fun () ->
      Obs.Trace.
        [
          int "id" tk.rid;
          str "kind" (Protocol.response_kind resp);
          bool "warm" false;
        ]);
  fulfil tk resp

let dispatcher_loop t =
  Parallel.Pool.with_pool ~instrument:true ~jobs:t.cfg.workers (fun pool ->
      let running = ref true in
      while !running do
        Mutex.lock t.qm;
        while Queue.is_empty t.queue && t.state = Running do
          Condition.wait t.qcv t.qm
        done;
        if Queue.is_empty t.queue then begin
          (* state left Running and nothing is pending: exit *)
          running := false;
          Condition.broadcast t.drained;
          Mutex.unlock t.qm
        end
        else begin
          let batch = ref [] in
          let n = ref 0 in
          while (not (Queue.is_empty t.queue)) && !n < t.cfg.workers do
            batch := Queue.pop t.queue :: !batch;
            incr n
          done;
          let batch = Array.of_list (List.rev !batch) in
          t.in_flight <- Array.length batch;
          set_queue_gauge_locked t;
          Mutex.unlock t.qm;
          let results = Parallel.Pool.map_result pool (run_ticket t) batch in
          Array.iteri
            (fun i r ->
              let tk = batch.(i) in
              let resp =
                match r with
                | Ok resp -> resp
                | Error e ->
                    (* run_ticket catches request failures itself; this
                       is the last line of defence for a bug in the
                       handler — the ticket still gets an answer *)
                    let f = Robust.Guard.rejected_of_exn e in
                    err t ~id:tk.rid
                      ~code:(Protocol.Faulted (Robust.Guard.failure_class f))
                      ~msg:(Robust.Guard.failure_message f)
              in
              finish_ticket t tk resp)
            results;
          Parallel.Pool.export pool t.ms;
          Mutex.lock t.qm;
          t.in_flight <- 0;
          Condition.broadcast t.drained;
          Mutex.unlock t.qm
        end
      done)

let start t =
  with_lock t.qm (fun () ->
      if t.dispatcher = None && t.state = Running then
        t.dispatcher <- Some (Thread.create dispatcher_loop t))

exception Database_refused of string

let create ?(start = true) (cfg : config) : t =
  let obs = Obs.Trace.synchronized cfg.obs in
  let ms =
    match cfg.metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  (* a crashed predecessor's acknowledged deposits are in the journal
     Db.load replays: checkpoint them at once, so the journal never
     grows unbounded *)
  let tuning_db =
    match cfg.db_file with
    | None -> Tuning.Db.create ()
    | Some f -> (
        match Tuning.Db.load ~obs f with
        | Error msg -> raise (Database_refused msg)
        | Ok db ->
            let replayed = Tuning.Db.journaled db in
            if replayed > 0 then begin
              Tuning.Db.save db f;
              Obs.Metrics.incr ms ~by:replayed "journal.replayed";
              if Obs.Trace.enabled obs then
                Obs.Trace.emit obs "journal.replay" (fun () ->
                    Obs.Trace.[ str "kind" "serve"; int "entries" replayed ])
            end;
            db)
  in
  let t =
    {
      cfg;
      obs;
      traced = Obs.Trace.enabled obs;
      ms;
      tuning_db;
      db_mutex = Mutex.create ();
      cache = Tuning.Cache.create ();
      model =
        (if cfg.surrogate then Some (P.Surrogate.Model.create ())
         else None);
      roots = Hashtbl.create 16;
      roots_mutex = Mutex.create ();
      qm = Mutex.create ();
      qcv = Condition.create ();
      drained = Condition.create ();
      queue = Queue.create ();
      in_flight = 0;
      state = Running;
      dispatcher = None;
    }
  in
  Obs.Metrics.set t.ms "serve.queue_depth" 0.;
  if start then
    t.dispatcher <- Some (Thread.create dispatcher_loop t);
  t

(* Graceful shutdown: refuse new cold admissions, drain what is queued
   and in flight, checkpoint, trace.  Idempotent; a concurrent caller
   blocks until the first finishes. *)
let stop t =
  Mutex.lock t.qm;
  match t.state with
  | Stopped -> Mutex.unlock t.qm
  | Stopping ->
      while t.state <> Stopped do
        Condition.wait t.drained t.qm
      done;
      Mutex.unlock t.qm
  | Running ->
      t.state <- Stopping;
      Condition.broadcast t.qcv;
      let disp = t.dispatcher in
      (match disp with
      | Some _ ->
          while not (Queue.is_empty t.queue && t.in_flight = 0) do
            Condition.wait t.drained t.qm
          done
      | None ->
          (* dispatch was never started: nothing can drain the queue,
             so fail the queued tickets instead of hanging awaiters *)
          Queue.iter
            (fun tk ->
              fulfil tk
                (err t ~id:tk.rid ~code:Protocol.Overloaded
                   ~msg:"server stopped before the request was dispatched"))
            t.queue;
          Queue.clear t.queue;
          set_queue_gauge_locked t);
      t.dispatcher <- None;
      Mutex.unlock t.qm;
      (match disp with Some th -> Thread.join th | None -> ());
      Option.iter
        (fun f -> with_lock t.db_mutex (fun () -> Tuning.Db.save t.tuning_db f))
        t.cfg.db_file;
      emit t "serve.shutdown" (fun () ->
          Obs.Trace.
            [
              int "records" (Tuning.Db.size t.tuning_db);
              bool "checkpointed" (t.cfg.db_file <> None);
            ]);
      with_lock t.qm (fun () ->
          t.state <- Stopped;
          Condition.broadcast t.drained)

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let overloaded t ~id ~kind ~msg =
  Obs.Metrics.incr t.ms "serve.rejected_overload";
  emit t "serve.reject" (fun () ->
      Obs.Trace.[ int "id" id; str "kind" kind; str "reason" msg ]);
  err t ~id ~code:Protocol.Overloaded ~msg

let admit t (tk : ticket) : [ `Queued of ticket | `Done of Protocol.response ]
    =
  Mutex.lock t.qm;
  let verdict =
    if t.state <> Running then `Reject "server is shutting down"
    else if Queue.length t.queue >= t.cfg.queue_depth then
      `Reject
        (Printf.sprintf "pending queue is full (depth %d)" t.cfg.queue_depth)
    else begin
      Queue.push tk t.queue;
      set_queue_gauge_locked t;
      Obs.Metrics.incr t.ms "serve.cold_misses";
      Condition.signal t.qcv;
      `Accept
    end
  in
  Mutex.unlock t.qm;
  match verdict with
  | `Accept -> `Queued tk
  | `Reject msg -> `Done (overloaded t ~id:tk.rid ~kind:tk.rkind ~msg)

(* ------------------------------------------------------------------ *)
(* The stats reply                                                     *)
(* ------------------------------------------------------------------ *)

let stats_reply t ~id : Protocol.response =
  with_lock t.qm (fun () -> set_queue_gauge_locked t);
  let snap = Obs.Metrics.snapshot t.ms in
  let counters =
    snap.Obs.Metrics.counters
    @ List.map
        (fun (n, (s : Obs.Metrics.summary)) -> (n ^ ".count", s.count))
        snap.Obs.Metrics.histograms
  in
  let gauges =
    snap.Obs.Metrics.gauges
    @ List.concat_map
        (fun (n, (s : Obs.Metrics.summary)) ->
          [
            (n ^ ".mean", s.mean);
            (n ^ ".p50", s.p50);
            (n ^ ".p90", s.p90);
            (n ^ ".p99", s.p99);
          ])
        snap.Obs.Metrics.histograms
  in
  Protocol.Stats_reply { id; counters; gauges }

(* ------------------------------------------------------------------ *)
(* Submission                                                          *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let resolve_kernel t name : (Kernels.entry, string) result =
  match Kernels.find_entry t.cfg.kernels name with
  | e -> Ok e
  | exception Invalid_argument msg -> Error msg

(* Resolve the (kernel, target, strategy) triple of a tuning request;
   any failure is the client's fault, answered [bad_request]. *)
let resolve_tuning t ~kernel ~target ~strategy ~budget =
  let* e = resolve_kernel t kernel in
  let* tname, tgt = Machine.Desc.target_of_string target in
  let budget = if budget <= 0 then t.cfg.default_budget else budget in
  let* strat = P.strategy_of_string ~budget strategy in
  Ok (e, tname, tgt, strat)

let deadline_of t ~enqueued_at ~deadline_ms =
  let ms = if deadline_ms > 0 then deadline_ms else t.cfg.deadline_ms in
  if ms > 0 then Some (enqueued_at +. (float_of_int ms /. 1000.)) else None

let warm_reply t ~t0 resp =
  Obs.Metrics.incr t.ms "serve.warm_hits";
  Obs.Metrics.observe t.ms "serve.latency_warm_s" (Obs.Span.now () -. t0);
  emit t "serve.reply" (fun () ->
      Obs.Trace.
        [
          int "id" (Protocol.response_id resp);
          str "kind" (Protocol.response_kind resp);
          bool "warm" true;
        ]);
  resp

let submit_async t (req : Protocol.request) :
    [ `Done of Protocol.response | `Queued of ticket ] =
  let id = Protocol.request_id req in
  let kind = Protocol.request_kind req in
  let t0 = Obs.Span.now () in
  Obs.Metrics.incr t.ms "serve.requests";
  emit t "serve.accept" (fun () ->
      Obs.Trace.[ int "id" id; str "kind" kind ]);
  let queued tk = admit t tk in
  let ticket work deadline_ms =
    {
      rid = id;
      rkind = kind;
      work;
      enqueued_at = t0;
      deadline_at = deadline_of t ~enqueued_at:t0 ~deadline_ms;
      tm = Mutex.create ();
      tcv = Condition.create ();
      reply = None;
    }
  in
  match req with
  | Protocol.Stats _ -> `Done (stats_reply t ~id)
  | Protocol.Shutdown _ ->
      stop t;
      `Done (Protocol.Shutdown_ack { id; records = Tuning.Db.size t.tuning_db })
  | Protocol.Query { kernel; target; _ } -> (
      match
        let* e = resolve_kernel t kernel in
        let* tname, _ = Machine.Desc.target_of_string target in
        Ok (e, tname)
      with
      | Error msg -> `Done (err t ~id ~code:Protocol.Bad_request ~msg)
      | Ok (e, tname) -> (
          let _, fingerprint = root_of t e in
          match locked_lookup t ~kernel:e.label ~tname ~fingerprint with
          | Some r ->
              `Done
                (warm_reply t ~t0
                   (Protocol.Queried
                      {
                        id;
                        kernel = e.label;
                        target = tname;
                        found = true;
                        time_s = r.Tuning.Record.best_time;
                        moves = r.Tuning.Record.moves;
                      }))
          | None ->
              (* a miss is still the fast path: no search ran *)
              Obs.Metrics.observe t.ms "serve.latency_warm_s"
                (Obs.Span.now () -. t0);
              `Done
                (Protocol.Queried
                   {
                     id;
                     kernel = e.label;
                     target = tname;
                     found = false;
                     time_s = 0.;
                     moves = [];
                   })))
  | Protocol.Optimize
      { kernel; target; strategy; budget; deadline_ms; force; _ } -> (
      match resolve_tuning t ~kernel ~target ~strategy ~budget with
      | Error msg -> `Done (err t ~id ~code:Protocol.Bad_request ~msg)
      | Ok (e, tname, tgt, strat) -> (
          let root, fingerprint = root_of t e in
          match
            if force then None
            else locked_lookup t ~kernel:e.label ~tname ~fingerprint
          with
          | Some r ->
              `Done
                (warm_reply t ~t0
                   (Protocol.Optimized
                      {
                        id;
                        kernel = e.label;
                        target = tname;
                        warm = true;
                        time_s = r.Tuning.Record.best_time;
                        moves = r.Tuning.Record.moves;
                        script =
                          Option.value r.Tuning.Record.script ~default:"";
                        evaluations = 0;
                        failures = 0;
                      }))
          | None ->
              queued
                (ticket
                   (cold_optimize t ~id ~kernel:e.label ~tname ~target:tgt
                      ~strat ~root ~fingerprint)
                   deadline_ms)))
  | Protocol.Generate { kernel; target; strategy; budget; deadline_ms; _ } -> (
      match resolve_tuning t ~kernel ~target ~strategy ~budget with
      | Error msg -> `Done (err t ~id ~code:Protocol.Bad_request ~msg)
      | Ok (e, tname, tgt, strat) -> (
          let root, fingerprint = root_of t e in
          let warm_c =
            match locked_lookup t ~kernel:e.label ~tname ~fingerprint with
            | None -> None
            | Some r -> (
                (* replay the recorded schedule; a stale record that no
                   longer replays falls through to the cold path *)
                match
                  Search.Stochastic.replay_exact (Machine.caps tgt) root
                    r.Tuning.Record.moves
                with
                | Ok sched -> Some (r, sched)
                | Error _ -> None)
          in
          match warm_c with
          | Some (r, sched) ->
              let c_entry = Codegen.entry_symbol ~kernel:e.label ~target:tname in
              `Done
                (warm_reply t ~t0
                   (Protocol.Generated
                      {
                        id;
                        kernel = e.label;
                        target = tname;
                        warm = true;
                        time_s = r.Tuning.Record.best_time;
                        c_entry;
                        c = Codegen.program ~entry:c_entry sched;
                      }))
          | None ->
              queued
                (ticket
                   (cold_generate t ~id ~kernel:e.label ~tname ~target:tgt
                      ~strat ~root ~fingerprint)
                   deadline_ms)))

let submit t req =
  match submit_async t req with `Done r -> r | `Queued tk -> await tk

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)
(* ------------------------------------------------------------------ *)

let protocol_error ~id msg =
  Protocol.Error { id; code = Protocol.Protocol_error; msg }

(* One framed request/response exchange loop over a channel pair.
   [on_eof] distinguishes the transports: the pipe server stops with
   its stdin, a socket connection just closes.  Returns when the
   stream ends or a shutdown request was answered. *)
let serve_channels t ic oc ~on_eof =
  let max = t.cfg.max_frame in
  let rec loop () =
    match Frame.read ~max ic with
    | Error Frame.Eof -> on_eof ()
    | Error (Frame.Oversized _ as e) ->
        (* the payload was consumed; the connection survives *)
        Obs.Metrics.incr t.ms "serve.errors";
        Frame.write oc
          (Protocol.encode_response
             (protocol_error ~id:0 (Frame.error_message e)));
        loop ()
    | Error (Frame.Torn _ as e) | Error (Frame.Malformed _ as e) ->
        (* the stream lost framing: answer if possible, then close *)
        Obs.Metrics.incr t.ms "serve.errors";
        (try
           Frame.write oc
             (Protocol.encode_response
                (protocol_error ~id:0 (Frame.error_message e)))
         with Sys_error _ -> ());
        on_eof ()
    | Ok payload -> (
        match Protocol.decode_request payload with
        | Error msg ->
            Obs.Metrics.incr t.ms "serve.errors";
            Frame.write oc
              (Protocol.encode_response (protocol_error ~id:0 msg));
            loop ()
        | Ok req ->
            let resp = submit t req in
            Frame.write oc (Protocol.encode_response resp);
            (match req with
            | Protocol.Shutdown _ -> () (* submit already stopped us *)
            | _ -> loop ()))
  in
  loop ()

let run_pipe t ic oc = serve_channels t ic oc ~on_eof:(fun () -> stop t)

let run_socket ?(should_stop = fun () -> false) ?(on_ready = fun () -> ()) t
    path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.bind fd (Unix.ADDR_UNIX path) with
  | () -> ()
  | exception e ->
      Unix.close fd;
      raise e);
  Unix.listen fd 64;
  on_ready ();
  let conn client =
    let ic = Unix.in_channel_of_descr client in
    let oc = Unix.out_channel_of_descr client in
    Fun.protect
      ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
      (fun () ->
        try serve_channels t ic oc ~on_eof:(fun () -> ())
        with Sys_error _ | End_of_file -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* poll between accepts so a shutdown request (which flips
         [stopping]) or the caller's flag (SIGINT) ends the loop *)
      let rec accept_loop () =
        if stopping t || should_stop () then ()
        else begin
          (match Unix.select [ fd ] [] [] 0.2 with
          | [], _, _ -> ()
          | _ :: _, _, _ -> (
              match Unix.accept fd with
              | client, _ -> ignore (Thread.create conn client)
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          accept_loop ()
        end
      in
      accept_loop ();
      stop t)
