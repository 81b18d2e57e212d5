(* serve_zipf: the tuning service under a skewed closed-loop stream.

   An in-process Serve.Server (one worker, a database file and its
   write-ahead journal in a fresh directory) behind its Unix-socket
   transport, driven by one Serve.Client connection that waits for each
   reply before sending the next request.

   Keys: softmax, layernorm, rmsnorm, relu, reducemean and matmul at 10
   row counts each, on x86 and snitch — 120 (kernel, target) pairs.
   Each request picks a key from a seeded Zipf(1) law and is an optimize
   (60%), query (30%) or generate (10%) request at annealing budget 32.
   A key's first request is cold (a search and a journaled deposit; a
   first query is sent as an optimize so that it is); every later one is
   a warm read.  One episode replays the stream against a fresh server.

   Each run serves its first episode over the socket, then replays the
   stream in process — the same decode, submit, encode and framing, with
   no kernel socket and no thread hand-offs in between — until its time
   is up.  On this shared two-vCPU machine the socket round trip swings
   up to 2x with neighbours' load while the in-process path holds within
   a few percent, so the latency metrics time the in-process episodes
   and the socket figures are printed beside them.

   Ops: a request.  Cold requests search; warm optimize and query
   requests are the fast path. *)

open Harness
module P = Serve.Protocol

let cols = 64
let row_counts = [ 8; 16; 24; 32; 40; 48; 64; 80; 96; 128 ]
let operators = [ "softmax"; "layernorm"; "rmsnorm"; "relu"; "reducemean"; "matmul" ]
let target_names = [ "x86"; "snitch" ]
let budget = 32
let requests = 20_000

let build op n =
  match op with
  | "softmax" -> Kernels.softmax ~n ~m:cols
  | "layernorm" -> Kernels.layernorm ~n ~m:cols
  | "rmsnorm" -> Kernels.rmsnorm ~n ~m:cols
  | "relu" -> Kernels.relu ~n ~m:cols
  | "reducemean" -> Kernels.reducemean ~n ~m:cols
  | _ -> Kernels.matmul ~m:n ~n:cols ~k:cols

let registry =
  List.concat_map
    (fun op ->
      List.map
        (fun n ->
          {
            Kernels.label = Printf.sprintf "%s_r%d" op n;
            shape_desc = Printf.sprintf "%dx%d" n cols;
            description = op;
            build = (fun () -> build op n);
            build_small = (fun () -> build op n);
          })
        row_counts)
    operators

let keys =
  Array.of_list
    (List.concat_map
       (fun (e : Kernels.entry) -> List.map (fun t -> (e, t)) target_names)
       registry)

type kind = Optimize | Query | Generate

(* The seeded request stream: (key index, kind) per request. *)
let stream ~seed =
  let rng = Util.Rng.create seed in
  let n = Array.length keys in
  (* popularity rank -> key: a fixed interleaving that spreads the hot
     ranks over operators, row counts and targets; the seed drives the
     draws, not which keys are hot *)
  let by_rank = Array.init n (fun r -> r * 53 mod n) in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  Array.iteri
    (fun r _ ->
      acc := !acc +. (1. /. float_of_int (r + 1));
      cdf.(r) <- !acc)
    cdf;
  let draw () =
    let u = Util.Rng.float rng *. !acc in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) > u then search lo mid else search (mid + 1) hi
    in
    by_rank.(min (n - 1) (search 0 (n - 1)))
  in
  let touched = Array.make n false in
  Array.init requests (fun _ ->
      let k = draw () in
      let u = Util.Rng.float rng in
      let kind = if u < 0.6 then Optimize else if u < 0.9 then Query else Generate in
      let kind = if (not touched.(k)) && kind = Query then Optimize else kind in
      touched.(k) <- true;
      (k, kind))

let request id (k, kind) =
  let (e : Kernels.entry), target = keys.(k) in
  let kernel = e.label in
  match kind with
  | Optimize ->
      P.Optimize
        { id; kernel; target; strategy = "annealing"; budget; deadline_ms = 0; force = false }
  | Query -> P.Query { id; kernel; target }
  | Generate ->
      P.Generate { id; kernel; target; strategy = "annealing"; budget; deadline_ms = 0 }

let config dir =
  {
    Serve.Server.default_config with
    workers = 1;
    seed = 1;
    db_file = Some (Filename.concat dir "db.jsonl");
    kernels = registry;
  }

(* ------------------------------------------------------------------ *)
(* Reply checks                                                        *)
(* ------------------------------------------------------------------ *)

(* Per key: the first reply is cold, every later one warm; warm replies
   carry the cold deposit's time and moves and generate identical C that
   declares its entry point.  [expect] is filled from the first reply
   carrying each field and finally compared with the database. *)
type expect = {
  mutable time_s : float option;
  mutable moves : string list option;
  mutable c : Digest.t option;
}

let fits slot v = match slot with None -> true | Some x -> x = v

let check_reply expects ~cold k (resp : P.response) =
  let ex = expects.(k) in
  let ok =
    match resp with
    | P.Optimized r ->
        r.warm = not cold && r.failures = 0 && fits ex.time_s r.time_s
        && fits ex.moves r.moves
        && begin
             ex.time_s <- Some r.time_s;
             ex.moves <- Some r.moves;
             true
           end
    | P.Queried r ->
        (not cold) && r.found && fits ex.time_s r.time_s && fits ex.moves r.moves
        && begin
             ex.time_s <- Some r.time_s;
             ex.moves <- Some r.moves;
             true
           end
    | P.Generated r ->
        let d = Digest.string r.c in
        r.warm = not cold && fits ex.time_s r.time_s && fits ex.c d
        && contains ~sub:("void " ^ r.c_entry ^ "(") r.c
        && begin
             ex.time_s <- Some r.time_s;
             ex.c <- Some d;
             true
           end
    | _ -> false
  in
  if ok then 0 else 1

(* The deposits: each touched key's database best must be what its
   replies said.  Returns (failing keys, speedups, evaluations). *)
let check_deposits server expects =
  let db = Serve.Server.db server in
  Array.fold_left
    (fun (bad, speedups, evals) (k, ((e : Kernels.entry), tname)) ->
      let ex = expects.(k) in
      match (ex.time_s, Tuning.Db.best db ~kernel:e.label ~target:tname) with
      | None, _ -> (bad, speedups, evals)
      | Some t, Some r when r.best_time = t && fits ex.moves r.moves ->
          (bad, (Machine.time (target tname) (e.build ()) /. t) :: speedups, evals + r.evals)
      | Some _, _ -> (bad + 1, speedups, evals))
    (0, [], 0)
    (Array.mapi (fun i key -> (i, key)) keys)

let new_expects () = Array.init (Array.length keys) (fun _ -> { time_s = None; moves = None; c = None })

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)
(* ------------------------------------------------------------------ *)

let span = Spans.span
let protocol f = span "serve.protocol" f
let frame f = span "serve.frame" f

(* One request through the in-process transport: the client's encode
   and framing, the server's unframing, decode, [submit], encode and
   framing, and the client's unframing and decode.  Returns the reply
   and its encoded form. *)
let exchange ~submit req =
  let unframe s =
    match Serve.Frame.decode s with
    | Ok (payload, "") -> payload
    | _ -> failwith "frame did not round-trip"
  in
  let sent = frame (fun () -> Serve.Frame.encode (protocol (fun () -> P.encode_request req))) in
  let req =
    match protocol (fun () -> P.decode_request (frame (fun () -> unframe sent))) with
    | Ok r -> r
    | Error msg -> failwith msg
  in
  let resp = submit req in
  let back = frame (fun () -> Serve.Frame.encode (protocol (fun () -> P.encode_response resp))) in
  let payload = frame (fun () -> unframe back) in
  match protocol (fun () -> P.decode_response payload) with
  | Ok r -> (r, payload)
  | Error msg -> failwith msg

type listener = { thread : Thread.t; stop : bool Atomic.t; client : Serve.Client.t }

(* Bind the server's socket on a thread of its own and connect. *)
let listen server dir =
  let sock = Filename.concat dir "s" in
  let ready = Atomic.make false and stop = Atomic.make false in
  let thread =
    Thread.create
      (fun () ->
        Serve.Server.run_socket
          ~should_stop:(fun () -> Atomic.get stop)
          ~on_ready:(fun () -> Atomic.set ready true)
          server sock)
      ()
  in
  while not (Atomic.get ready) do
    Thread.yield ()
  done;
  { thread; stop; client = Serve.Client.connect sock }

(* Closing stops the server too: run_socket stops it on exit. *)
let close_listener l =
  Serve.Client.close l.client;
  Atomic.set l.stop true;
  Thread.join l.thread

(* ------------------------------------------------------------------ *)
(* Episodes                                                            *)
(* ------------------------------------------------------------------ *)

type transport = Socket | In_process

type episode = {
  wall_s : float;
  warm_us : float array;  (** warm optimize and query requests *)
  gen_us : float array;  (** warm generate requests *)
  cold_ms : float array;  (** in first-touch order, the same in every episode *)
  failed : int;
  failures : int;  (** guard quarantines reported by cold replies *)
  digest : string;
  speedups : float list;
  cold_evals : int;
}

let episode ~stream ~transport name =
  let dir = fresh_dir name in
  let server = Serve.Server.create (config dir) in
  let send, close =
    match transport with
    | In_process ->
        ( (fun req ->
            match exchange ~submit:(Serve.Server.submit server) req with
            | resp, _ -> Ok resp
            | exception Failure msg -> Error (Serve.Client.Transport msg)),
          fun () -> Serve.Server.stop server )
    | Socket ->
        let l = listen server dir in
        ((fun req -> Serve.Client.request l.client req), fun () -> close_listener l)
  in
  let expects = new_expects () in
  let touched = Array.make (Array.length keys) false in
  let warm = ref [] and gen = ref [] and cold = ref [] in
  let failed = ref 0 and failures = ref 0 in
  let digests = Buffer.create (16 * requests) in
  let t0 = now () in
  Array.iteri
    (fun id ((k, kind) as op) ->
      let req = request id op in
      let resp, dt = time (fun () -> send req) in
      let is_cold = not touched.(k) in
      touched.(k) <- true;
      (match (is_cold, kind) with
      | true, _ -> cold := (dt *. 1e3) :: !cold
      | false, Generate -> gen := (dt *. 1e6) :: !gen
      | false, _ -> warm := (dt *. 1e6) :: !warm);
      match resp with
      | Ok resp ->
          (match resp with
          | P.Optimized r -> failures := !failures + r.failures
          | _ -> ());
          Buffer.add_string digests (Digest.string (P.encode_response resp));
          failed := !failed + check_reply expects ~cold:is_cold k resp
      | Error _ -> incr failed)
    stream;
  let wall_s = now () -. t0 in
  close ();
  let bad, speedups, cold_evals = check_deposits server expects in
  rm_rf dir;
  {
    wall_s;
    warm_us = Array.of_list !warm;
    gen_us = Array.of_list !gen;
    cold_ms = Array.of_list (List.rev !cold);
    failed = !failed + bad;
    failures = !failures;
    digest = Digest.to_hex (Digest.string (Buffer.contents digests));
    speedups;
    cold_evals;
  }

(* Set-up: create the server — load the database file, replay its
   journal, open the journal writer, start the dispatcher. *)
let setup_once () =
  let dir = fresh_dir "setup" in
  let server, dt = time (fun () -> Serve.Server.create (config dir)) in
  Serve.Server.stop server;
  rm_rf dir;
  dt

let pctl what q xs = Printf.sprintf "p%g %.1f" (q *. 100.) (percentile ~what q xs)

let measure ~seed ~seconds =
  let stream = stream ~seed in
  let setups = ref [] in
  let start = now () in
  (* each episode starts from a compacted heap, as a fresh server
     process would: the peak RSS then no longer depends on where the
     previous episodes' garbage stood *)
  let run transport name =
    sample_setups setups setup_once;
    let ep = episode ~stream ~transport name in
    Gc.compact ();
    ep
  in
  let socket = run Socket "socket" in
  let rec loop i acc =
    let ep = run In_process (Printf.sprintf "ep%d" i) in
    if now () -. start < seconds then loop (i + 1) (ep :: acc) else List.rev (ep :: acc)
  in
  let eps = loop 0 [] in
  List.iter
    (fun ep ->
      if ep.digest <> socket.digest then
        raise (Nondeterministic "serve_zipf: an episode replied differently"))
    eps;
  let speedup = geomean socket.speedups in
  check_determinism ~workload:"serve_zipf" ~seed ~what:"replies" socket.digest;
  check_determinism ~workload:"serve_zipf" ~seed ~what:"speedup" (float_bits speedup);
  let warm = Array.concat (List.map (fun e -> e.warm_us) eps) in
  let sum = List.fold_left ( +. ) 0. in
  let n_eps = List.length eps in
  let attempted = (n_eps + 1) * requests in
  let failed = List.fold_left (fun a e -> a + e.failed) socket.failed eps in
  (* A key's cold latency is its median over the episodes (keys are
     first touched in the same order in every episode), so one slow
     dispatcher hand-off does not move the total. *)
  let n_cold = Array.length socket.cold_ms in
  let cold_s =
    sum
      (List.init n_cold (fun k ->
           median (List.map (fun e -> e.cold_ms.(k)) eps) /. 1e3))
  in
  {
    attempted;
    failed;
    metrics =
      [
        metric ~samples:(List.length !setups) "setup_s" "s" (median !setups);
        metric "peak_rss_mb" "MB" (peak_rss_mb ());
        ok_ratio ~attempted ~failed;
        metric ~samples:(List.length socket.speedups) "speedup_geomean" "x" speedup;
        metric ~samples:(n_eps * n_cold) "states_per_s" "1/s"
          (float_of_int socket.cold_evals /. cold_s);
        metric ~samples:(n_eps * n_cold) "pairs_per_s" "1/s"
          (float_of_int n_cold /. cold_s);
        metric ~samples:(Array.length warm) "warm_p50_us" "us"
          (percentile ~what:"warm" 0.5 warm);
      ];
    notes =
      [
        ("in-process episodes", string_of_int n_eps);
        ( "in-process warm us",
          Printf.sprintf "%s (n=%d)" (pctl "warm" 0.9 warm) (Array.length warm) );
        ( "in-process req_per_s (median episode)",
          Printf.sprintf "%.1f"
            (median (List.map (fun e -> float_of_int requests /. e.wall_s) eps)) );
        ( "in-process warm generate us",
          let gen = Array.concat (List.map (fun e -> e.gen_us) eps) in
          Printf.sprintf "%s, %s (n=%d)" (pctl "gen" 0.5 gen) (pctl "gen" 0.9 gen)
            (Array.length gen) );
        ( "in-process cold ms",
          let cold = Array.concat (List.map (fun e -> e.cold_ms) eps) in
          Printf.sprintf "%s, %s (n=%d)" (pctl "cold" 0.5 cold) (pctl "cold" 0.9 cold)
            (Array.length cold) );
        ( "socket warm us",
          Printf.sprintf "%s, %s (n=%d)" (pctl "warm" 0.5 socket.warm_us)
            (pctl "warm" 0.9 socket.warm_us) (Array.length socket.warm_us) );
        ( "socket warm generate us",
          Printf.sprintf "%s, %s (n=%d)" (pctl "gen" 0.5 socket.gen_us)
            (pctl "gen" 0.9 socket.gen_us) (Array.length socket.gen_us) );
        ( "socket req_per_s",
          Printf.sprintf "%.1f" (float_of_int requests /. socket.wall_s) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* The server's cold path re-driven through the layers: warm-start
   lookup, the annealing twin behind the run's own cache, the record,
   the journaled deposit (with the server's checkpoint cadence) and, for
   a generate request, the C. *)
type twin_state = {
  tdb : Tuning.Db.t;
  tdb_file : string;
  wal : Recover.Journal.writer;
  mutable appends : int;
  tcache : Tuning.Cache.t;
}

let twin_cold st (e : Kernels.entry) tname kind =
  let target = target tname in
  let caps = Machine.caps target in
  let root = e.build () in
  let warm =
    span "tuning.db_query" (fun () ->
        Tuning.Warmstart.moves_for st.tdb ~kernel:e.label ~target:tname ~root)
  in
  if warm <> [] then failwith "twin: a cold key had a record";
  let o = Twins.anneal ~seed:1 ~budget caps (Twins.cached_model st.tcache ~tname target) root in
  (match
     span "tuning.record_of" (fun () ->
         Tuning.Warmstart.record_of ~objective:(Machine.time target) ~caps
           ~kernel:e.label ~target:tname ~root ~moves:o.best.moves ~evals:o.evaluations)
   with
  | Ok r when r.best_time <= o.best.runtime *. (1. +. 1e-9) -> (
      match Tuning.Db.add st.tdb r with
      | `Duplicate -> ()
      | `Inserted | `Improved -> (
          match Util.Json.of_string (Tuning.Record.to_json r) with
          | Error msg -> failwith msg
          | Ok data ->
              span "recover.journal" (fun () -> Recover.Journal.append st.wal data);
              st.appends <- st.appends + 1;
              if st.appends >= 64 then begin
                span "tuning.db_save" (fun () -> Tuning.Db.save st.tdb st.tdb_file);
                Recover.Journal.reset st.wal;
                st.appends <- 0
              end))
  | _ -> failwith ("twin: no record for " ^ e.label));
  let c =
    match kind with
    | Generate ->
        let entry = "perfdojo_" ^ e.label ^ "_" ^ tname in
        Some (span "codegen.program" (fun () -> Codegen.program ~entry o.best.prog))
    | _ -> None
  in
  (o, c)

let kind_name = function Optimize -> "optimize" | Query -> "query" | Generate -> "generate"

(* The in-process episode, traced: warm requests span [submit] by kind;
   a cold request runs its twin, and the real cold [submit] (which must
   reply what the twin computed) is left out of the traced wall.
   Returns the reply digest, the mismatched cold replies, the twin
   cache's hits and misses, the traced wall time and the part of it
   spent in warm requests. *)
let traced_episode ~stream =
  let dir = fresh_dir "traced" in
  let server = Serve.Server.create (config dir) in
  let tdir = fresh_dir "twin" in
  let st =
    {
      tdb = Tuning.Db.create ();
      tdb_file = Filename.concat tdir "db.jsonl";
      wal = Recover.Journal.open_writer (Filename.concat tdir "db.jsonl.wal");
      appends = 0;
      tcache = Tuning.Cache.create ();
    }
  in
  let touched = Array.make (Array.length keys) false in
  let digests = Buffer.create (16 * requests) in
  let mismatched = ref 0 and warm_s = ref 0. in
  let (), wall =
    Spans.traced (fun () ->
        Array.iteri
          (fun id ((k, kind) as op) ->
            let is_cold = not touched.(k) in
            touched.(k) <- true;
            let submit req =
              if is_cold then begin
                let e, tname = keys.(k) in
                let o, c = twin_cold st e tname kind in
                let resp = Spans.untimed (fun () -> Serve.Server.submit server req) in
                let same =
                  match (resp, c) with
                  | P.Optimized r, None ->
                      r.time_s = o.best.runtime && r.moves = o.best.moves
                      && r.evaluations = o.evaluations
                  | P.Generated r, Some c -> r.time_s = o.best.runtime && r.c = c
                  | _ -> false
                in
                if not same then incr mismatched;
                resp
              end
              else span ("serve.submit." ^ kind_name kind) (fun () -> Serve.Server.submit server req)
            in
            let (_, payload), dt = time (fun () -> exchange ~submit (request id op)) in
            if not is_cold then warm_s := !warm_s +. dt;
            Buffer.add_string digests (Digest.string payload))
          stream)
  in
  Serve.Server.stop server;
  Recover.Journal.close st.wal;
  ( Digest.to_hex (Digest.string (Buffer.contents digests)),
    !mismatched,
    Tuning.Cache.hits st.tcache,
    Tuning.Cache.misses st.tcache,
    wall,
    !warm_s )

let trace ~seed =
  let stream = stream ~seed in
  let untraced = episode ~stream ~transport:In_process "untraced" in
  check_determinism ~workload:"serve_zipf" ~seed ~what:"replies" untraced.digest;
  let digest, mismatched, hits, misses, wall, warm_s = traced_episode ~stream in
  {
    ops = requests;
    mismatched = mismatched + untraced.failed + (if digest = untraced.digest then 0 else 1);
    traced_s = wall;
    (* warm requests do the same work in both episodes; a cold one runs
       the server's dispatcher path untraced but its twin traced *)
    same_work_s =
      ( Array.fold_left ( +. ) 0. (Array.append untraced.warm_us untraced.gen_us) /. 1e6,
        warm_s );
    failures = untraced.failures;
    extra =
      [
        metric ~samples:(hits + misses) "tuning.cache.hit_ratio" "ratio"
          (float_of_int hits /. float_of_int (max 1 (hits + misses)));
      ];
  }
