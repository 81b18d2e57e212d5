(* Batch library generation: optimize the whole operator suite in one
   run and emit a C library.

   The driver turns a kernel selection × target list into (kernel,
   target) pairs, optimizes every pair through the existing
   search/portfolio machinery, and emits one C translation unit per
   pair, an umbrella header and a canonical-JSON manifest.

   Three properties shape the implementation:

   - incremental: a pair whose tuning-database record matches the
     current program fingerprint is reproduced by exact replay instead
     of re-searched (a [libgen.skip] trace event; [Skipped] in the
     manifest);
   - fault-tolerant: pairs run under [Parallel.Pool.map_result], so a
     crashing optimization degrades that pair to the naive schedule —
     classified through [Robust.Guard]'s failure taxonomy and flagged
     [Degraded] — instead of aborting the suite;
   - deterministic: pairs are planned and folded in a fixed order,
     per-pair traces buffer like portfolio members, and the manifest
     carries no wall-clock fields, so output is byte-identical for any
     [ctx.jobs]. *)

module P = Perfdojo

type status = Fresh | Skipped | Degraded

type entry = {
  kernel : string;
  shape : string;
  target : string;
  fingerprint : string;
  status : status;
  strategy : string;
  moves : string list;
  naive_s : float;
  time_s : float;
  evaluations : int;
  failures : int;
  recorded : bool;
  c_file : string;
  c_entry : string;
  error : string option;
}

type library = {
  out_dir : string;
  header : string;
  entries : entry list;
  fresh : int;
  skipped : int;
  degraded : int;
}

let status_name = function
  | Fresh -> "fresh"
  | Skipped -> "skipped"
  | Degraded -> "degraded"

let space_label = function
  | Search.Stochastic.Heuristic -> "heuristic"
  | Search.Stochastic.Edges -> "edges"

let strategy_label : P.strategy -> string = function
  | P.Naive -> "naive"
  | P.Greedy -> "greedy"
  | P.Heuristic -> "heuristic"
  | P.Sampling { space; _ } -> "sampling/" ^ space_label space
  | P.Annealing { space; _ } -> "annealing/" ^ space_label space
  | P.Rl_search _ -> "rl"
  | P.Portfolio _ -> "portfolio"
  | P.Exhaustive -> "exhaustive"

let default_kernels () = Kernels.table3 @ Kernels.snitch_micro

let dedupe_by key xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    xs

let resolve_targets names =
  dedupe_by fst
    (List.map
       (fun name ->
         match Machine.Desc.target_of_string name with
         | Ok pair -> pair
         | Error msg -> invalid_arg msg)
       names)

let ensure_dir dir =
  try Unix.mkdir dir 0o755
  with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Manifest                                                            *)
(* ------------------------------------------------------------------ *)

let entry_json (e : entry) : Util.Json.t =
  let open Util.Json in
  let base =
    [
      ("kernel", Str e.kernel);
      ("target", Str e.target);
      ("shape", Str e.shape);
      ("fingerprint", Str e.fingerprint);
      ("status", Str (status_name e.status));
      ("strategy", Str e.strategy);
      ("moves", Arr (List.map (fun m -> Str m) e.moves));
      (* derived from the moves, not stored in the ledger, so fresh and
         crash-resumed runs emit byte-identical manifests *)
      ( "script",
        Str
          (match
             Transfo.Script.of_moves ~kernel:e.kernel ~ktarget:e.target e.moves
           with
          | Ok script -> Transfo.Script.to_string script
          | Error msg -> invalid_arg msg) );
      ("naive_s", Num e.naive_s);
      ("time_s", Num e.time_s);
      ("speedup", Num (if e.time_s > 0. then e.naive_s /. e.time_s else 0.));
      ("evaluations", Num (float_of_int e.evaluations));
      ("failures", Num (float_of_int e.failures));
      ("recorded", Bool e.recorded);
      ("c_file", Str e.c_file);
      ("entry", Str e.c_entry);
    ]
  in
  Obj
    (match e.error with
    | None -> base
    | Some msg -> base @ [ ("error", Str msg) ])

let manifest_json (lib : library) : Util.Json.t =
  let open Util.Json in
  let targets = dedupe_by Fun.id (List.map (fun e -> e.target) lib.entries) in
  Obj
    [
      ("schema", Num 1.);
      ("header", Str lib.header);
      ("targets", Arr (List.map (fun t -> Str t) targets));
      ("entries", Arr (List.map entry_json lib.entries));
      ("fresh", Num (float_of_int lib.fresh));
      ("skipped", Num (float_of_int lib.skipped));
      ("degraded", Num (float_of_int lib.degraded));
    ]

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

(* One (kernel, target) pair of the suite.  A kernel's root is built
   and fingerprinted once: IR programs are immutable, so its pairs
   share it across targets. *)
type pair = {
  kernel : Kernels.entry;
  tname : string;
  target : Machine.Desc.target;
  root : Ir.Prog.t;
  fp : string;
  naive_s : float;  (* the root's modelled time on [target] *)
}

(* What a pair came to: the manifest fields that are not the pair's own.
   A fresh pair's result is also its crash-ledger line. *)
type pair_result = {
  status : status;
  strategy : string;
  moves : string list;
  time_s : float;
  evaluations : int;
  failures : int;
  recorded : bool;
  error : string option;
}

(* What the plan phase decided for a pair: reproduce a recorded
   schedule, optimize (with a warm-start sequence when the database
   offers a matching record), or replay the result a crashed run
   ledgered. *)
type plan_item =
  | Reproduce of Tuning.Record.t * Ir.Prog.t
  | Optimize of string list
  | Ledgered of pair_result

(* A fresh pair once its task settled: its result, the schedule it
   emits, its trace buffer (a crashed task's is lost with it, so null)
   and, when it degraded, the classified cause. *)
type settled = {
  result : pair_result;
  sched : Ir.Prog.t;
  sink : Obs.Trace.sink;
  cause : Robust.Guard.failure option;
}

(* The naive fallback of a pair whose optimization failed. *)
let degraded (p : pair) ~evaluations ~failures sink cause =
  let result =
    { status = Degraded; strategy = "naive"; moves = []; time_s = p.naive_s;
      evaluations; failures; recorded = false;
      error = Some (Robust.Guard.failure_message cause) }
  in
  { result; sched = p.root; sink; cause = Some cause }

(* Write the pair's C file under [out] and build its manifest entry. *)
let entry_of ~out (p : pair) (r : pair_result) sched : entry =
  let e = p.kernel in
  let c_entry = Codegen.entry_symbol ~kernel:e.label ~target:p.tname in
  (* the file is named after the symbol, less its "perfdojo_" *)
  let c_file = String.sub c_entry 9 (String.length c_entry - 9) ^ ".c" in
  let banner =
    Printf.sprintf
      "/* %s (%s) on %s: %s\n\
      \   status %s via %s; modelled %.3e s (%.2fx over naive)\n\
      \   fingerprint %s */\n"
      e.label e.shape_desc p.tname e.description (status_name r.status)
      r.strategy r.time_s
      (if r.time_s > 0. then p.naive_s /. r.time_s else 0.)
      p.fp
  in
  write_file
    (Filename.concat out c_file)
    (banner ^ Codegen.program ~entry:c_entry sched);
  { kernel = e.label; shape = e.shape_desc; target = p.tname;
    fingerprint = p.fp; status = r.status; strategy = r.strategy;
    moves = r.moves; naive_s = p.naive_s; time_s = r.time_s;
    evaluations = r.evaluations; failures = r.failures;
    recorded = r.recorded; c_file; c_entry; error = r.error }

(* ------------------------------------------------------------------ *)
(* The crash ledger                                                    *)
(* ------------------------------------------------------------------ *)

(* With [ctx.checkpoint] set, every completed fresh pair appends its
   result to a {!Recover.Journal} *before* its database deposit, so the
   ledger always covers the deposits (ledgered ⊇ deposited).  A killed
   suite resumed with [ctx.resume] replays the ledger: ledgered pairs
   bypass both the plan phase's database decision and the optimizer —
   their manifest entry is rebuilt from the ledgered result (schedules
   regenerate by replaying the recorded moves) and their deposit is
   re-applied idempotently — so the resumed run starts at the first
   unfinished pair and still emits a byte-identical manifest. *)

let pair_id (p : pair) = p.kernel.label ^ "|" ^ p.tname

let result_json (p : pair) (r : pair_result) : Util.Json.t =
  let open Util.Json in
  Obj
    [
      ("pair", Str (pair_id p));
      ("status", Str (status_name r.status));
      ("strategy", Str r.strategy);
      ("moves", Arr (List.map (fun m -> Str m) r.moves));
      ("time_s", Recover.Bits.of_float r.time_s);
      ("evaluations", Num (float_of_int r.evaluations));
      ("failures", Num (float_of_int r.failures));
      ("recorded", Bool r.recorded);
      ("error", match r.error with None -> Null | Some m -> Str m);
    ]

let result_of_json j : pair_result =
  let open Recover.Field in
  let status =
    match str "status" j with
    | "fresh" -> Fresh
    | "degraded" -> Degraded
    | s -> corrupt "unknown ledger status %S" s
  in
  let moves = str_list "moves" j in
  let time_s = float_bits "time_s" j in
  let strategy = str "strategy" j in
  let evaluations = int "evaluations" j in
  let failures = int "failures" j in
  let recorded = bool "recorded" j in
  let error = Option.bind (Util.Json.member "error" j) Util.Json.to_str in
  { status; strategy; moves; time_s; evaluations; failures; recorded; error }

let generate ?kernels ?strategy ?db ?db_file ?(force = false)
    ~(ctx : P.Ctx.t) ~targets ~out () : library =
  let kernels =
    dedupe_by
      (fun (e : Kernels.entry) -> e.label)
      (match kernels with None -> default_kernels () | Some ks -> ks)
  in
  let strategy =
    match strategy with
    | Some s -> s
    | None -> P.Annealing { budget = 300; space = Search.Stochastic.Heuristic }
  in
  let strat_label = strategy_label strategy in
  let targets = resolve_targets targets in
  ensure_dir out;
  let obs = ctx.P.Ctx.obs in
  let metrics = ctx.P.Ctx.metrics in
  let traced = Obs.Trace.enabled obs in
  (* the crash ledger: replay completed pairs first (resume), then open
     the journal for appending this run's completions.  Every line is
     decoded here, so a line that does not decode is refused before any
     pair runs, deposits or is ledgered. *)
  let ledgered : (string, pair_result) Hashtbl.t = Hashtbl.create 16 in
  (match ctx.P.Ctx.checkpoint with
  | Some path when ctx.P.Ctx.resume -> (
      match Recover.Journal.replay path with
      | Ok (entries, _torn) ->
          List.iter
            (fun j ->
              Hashtbl.replace ledgered (Recover.Field.str "pair" j)
                (result_of_json j))
            entries;
          (match metrics with
          | Some m ->
              Obs.Metrics.incr m ~by:(List.length entries) "journal.replayed"
          | None -> ());
          if traced && entries <> [] then
            Obs.Trace.emit obs "journal.replay" (fun () ->
                Obs.Trace.
                  [ str "kind" "libgen"; int "entries" (List.length entries) ])
      | Error e -> raise (Recover.Error e))
  | _ -> ());
  let ledger = Option.map Recover.Journal.open_writer ctx.P.Ctx.checkpoint in
  let pairs =
    let roots =
      List.map
        (fun (e : Kernels.entry) ->
          let root = e.build () in
          (e, root, Tuning.Record.fingerprint root))
        kernels
    in
    List.concat_map
      (fun (tname, target) ->
        List.map
          (fun (kernel, root, fp) ->
            let naive_s = Machine.time target root in
            { kernel; tname; target; root; fp; naive_s })
          roots)
      targets
  in
  if traced then
    Obs.Trace.emit obs "libgen.start" (fun () ->
        Obs.Trace.
          [
            int "targets" (List.length targets);
            int "kernels" (List.length kernels);
            int "pairs" (List.length pairs);
            str "strategy" strat_label;
          ]);
  (* Plan phase (sequential, cheap): decide skip vs optimize against the
     database.  All database reads happen here, so the parallel phase
     touches no shared mutable state beyond the ctx cache (which is
     domain-safe). *)
  let plan =
    List.map
      (fun p ->
        let record =
          Option.bind db (fun d ->
              Tuning.Warmstart.lookup d ~kernel:p.kernel.label ~target:p.tname
                ~fingerprint:p.fp)
        in
        let item =
          (* a ledgered pair completed before the crash: its entry wins
             over any database decision — deposits the killed run made
             must not flip later pairs to Skipped in the resumed
             manifest *)
          match Hashtbl.find_opt ledgered (pair_id p) with
          | Some r -> Ledgered r
          | None -> (
              match record with
              | Some r when force -> Optimize r.moves
              | Some r -> (
                  (* a record that no longer replays exactly is stale:
                     re-optimize, still seeded by what replays *)
                  match
                    Search.Stochastic.replay_exact (P.caps_of ~ctx p.target)
                      p.root r.moves
                  with
                  | Ok sched -> Reproduce (r, sched)
                  | Error _ -> Optimize r.moves)
              | None -> Optimize [])
        in
        (p, item))
      pairs
  in
  (* Parallel phase: optimize the fresh pairs across ctx.jobs domains.
     Each pair runs its own sequential search (jobs = 0 inside the
     workers, like portfolio members) into a private trace buffer;
     map_result keeps one crashing pair from cancelling the suite. *)
  let fresh_tasks =
    Array.of_list
      (List.filter_map
         (function
           | p, Optimize warm -> Some (p, warm)
           | _, (Reproduce _ | Ledgered _) -> None)
         plan)
  in
  let task ((p : pair), warm) =
    let sink = if traced then Obs.Trace.make_buffer () else Obs.Trace.null in
    (* per-pair searches never checkpoint themselves: the ledger is the
       suite's unit of recovery, and a pair is cheap to rerun *)
    let pctx =
      {
        ctx with
        P.Ctx.jobs = 0;
        obs = sink;
        warm_start = warm;
        checkpoint = None;
        resume = false;
      }
    in
    let o, record =
      P.optimize_recorded ~ctx:pctx ~kernel:p.kernel.label
        ~target_name:p.tname strategy p.target p.root
    in
    (* without a database there is nothing to deposit into *)
    (o, (if db = None then None else record), sink)
  in
  let deposit r =
    (* idempotent: re-applying a ledgered deposit after a crash hits
       [Duplicate] and changes nothing *)
    Option.iter (fun d -> ignore (Tuning.Db.deposit ?file:db_file d r)) db
  in
  let settled = Queue.create () in
  (* Settle one completed fresh task, in pair order.  This is the one
     place a fresh pair is classified Fresh or Degraded.  Its result is
     ledgered (fsynced) before its record is deposited, so once the
     append returns, a kill anywhere leaves a resumable suite. *)
  let settle (p, _) outcome =
    let s, record =
      match outcome with
      | Ok ((o : P.outcome), record, sink) when Float.is_finite o.time_s ->
          let result =
            { status = Fresh; strategy = strat_label; moves = o.moves;
              time_s = o.time_s; evaluations = o.evaluations;
              failures = o.failures; recorded = record <> None; error = None }
          in
          ({ result; sched = o.schedule; sink; cause = None }, record)
      | Ok (o, _, sink) ->
          (* the search survived but found nothing finite — the same
             taxonomy a guarded evaluation would use *)
          ( degraded p ~evaluations:o.evaluations ~failures:o.failures sink
              (Robust.Guard.Non_finite o.time_s),
            None )
      | Error exn ->
          ( degraded p ~evaluations:0 ~failures:0 Obs.Trace.null
              (Robust.Guard.rejected_of_exn exn),
            None )
    in
    (match ledger with
    | None -> ()
    | Some w ->
        Recover.Journal.append w (result_json p s.result);
        (match metrics with
        | Some m -> Obs.Metrics.incr m "journal.appends"
        | None -> ());
        if traced then
          Obs.Trace.emit obs "journal.append" (fun () ->
              Obs.Trace.[ str "kind" "libgen"; str "key" (pair_id p) ]));
    Option.iter deposit record;
    Queue.add s settled
  in
  let n = Array.length fresh_tasks in
  if n > 0 then begin
    let jobs = max 1 (min ctx.P.Ctx.jobs n) in
    (* with a ledger, chunks of [jobs] tasks, so the ledger fills as
       pairs complete and an interrupt has a boundary to stop at *)
    let chunk = if ledger = None then n else jobs in
    Parallel.Pool.with_pool ~instrument:(metrics <> None) ~jobs (fun pool ->
        let pos = ref 0 in
        while !pos < n do
          let tasks = Array.sub fresh_tasks !pos (min chunk (n - !pos)) in
          Array.iter2 settle tasks (Parallel.Pool.map_result pool task tasks);
          pos := !pos + Array.length tasks;
          if ledger <> None && Recover.Interrupt.requested () && !pos < n then
            raise (Recover.Interrupt.Interrupted ctx.P.Ctx.checkpoint)
        done;
        match metrics with
        | Some m -> Parallel.Pool.export pool m
        | None -> ())
  end;
  (* Fold phase (sequential, pair order): emit trace events and C
     sources; the deposits already happened as the tasks settled. *)
  let entries =
    List.map
      (fun ((p : pair), item) ->
        (* every libgen.* event of a pair names the pair first *)
        let announce ev fields =
          if traced then
            Obs.Trace.emit obs ev (fun () ->
                Obs.Trace.str "kernel" p.kernel.label
                :: Obs.Trace.str "target" p.tname :: fields)
        in
        match item with
        | Reproduce (rc, sched) ->
            let time_s = Machine.time p.target sched in
            announce "libgen.skip" [ Obs.Trace.num "time_s" time_s ];
            entry_of ~out p
              { status = Skipped; strategy = "db"; moves = rc.moves; time_s;
                evaluations = 0; failures = 0; recorded = true; error = None }
              sched
        | Ledgered r ->
            (* a pair the crashed run completed: its entry is its
               ledgered result (the schedule regenerates by replaying
               the recorded moves), and a recorded deposit is re-applied
               idempotently in case the kill landed between the ledger
               append and the database deposit *)
            let caps = P.caps_of ~ctx p.target in
            let sched = fst (Tuning.Warmstart.replay caps p.root r.moves) in
            if r.recorded then
              Result.iter deposit
                (Tuning.Warmstart.record_of ~objective:(Machine.time p.target)
                   ~caps ~kernel:p.kernel.label ~target:p.tname ~root:p.root
                   ~moves:r.moves ~evals:r.evaluations);
            entry_of ~out p r sched
        | Optimize _ ->
            let s = Queue.pop settled in
            let r = s.result in
            (match s.cause with
            | None ->
                announce "libgen.entry"
                  Obs.Trace.
                    [ num "time_s" r.time_s; int "evals" r.evaluations;
                      int "failures" r.failures; bool "recorded" r.recorded ]
            | Some f ->
                announce "libgen.degraded"
                  Obs.Trace.
                    [ str "class" (Robust.Guard.failure_class f);
                      str "msg" (Robust.Guard.failure_message f) ]);
            (* a degraded pair's buffer is folded in like a fresh one's *)
            Obs.Trace.append ~into:obs s.sink;
            entry_of ~out p r s.sched)
      plan
  in
  let count st =
    List.length (List.filter (fun (e : entry) -> e.status = st) entries)
  in
  let fresh = count Fresh
  and skipped = count Skipped
  and degraded = count Degraded in
  (* umbrella header: one entry-point declaration per pair *)
  let header = "perfdojo.h" in
  let hbuf = Buffer.create 1024 in
  Buffer.add_string hbuf
    (Printf.sprintf
       "/* PerfDojo generated library: %d entries (%s).  Do not edit. */\n\
        #ifndef PERFDOJO_LIB_H\n\
        #define PERFDOJO_LIB_H\n\n"
       (List.length entries)
       (String.concat ", " (List.map fst targets)));
  List.iter
    (fun (en : entry) ->
      Buffer.add_string hbuf
        (Printf.sprintf "/* %s (%s) on %s: %.3e s modelled, %s */\nvoid %s(void);\n"
           en.kernel en.shape en.target en.time_s (status_name en.status)
           en.c_entry))
    entries;
  Buffer.add_string hbuf "\n#endif /* PERFDOJO_LIB_H */\n";
  write_file (Filename.concat out header) (Buffer.contents hbuf);
  let lib = { out_dir = out; header; entries; fresh; skipped; degraded } in
  write_file
    (Filename.concat out "manifest.json")
    (Util.Json.to_string (manifest_json lib) ^ "\n");
  (* the final checkpoint folds the journaled deposits into db_file;
     even without deposits it keeps db_file in sync with db *)
  (match (db, db_file) with
  | Some d, Some f -> Tuning.Db.save d f
  | _ -> ());
  (* the suite completed and the manifest is on disk: the ledger has
     served its purpose — truncate it so the next run starts cold *)
  (match ledger with
  | Some w ->
      Recover.Journal.reset w;
      Recover.Journal.close w
  | None -> ());
  (match metrics with
  | Some m ->
      Obs.Metrics.incr m ~by:(List.length entries) "libgen.pairs";
      Obs.Metrics.incr m ~by:fresh "libgen.fresh";
      Obs.Metrics.incr m ~by:skipped "libgen.skipped";
      Obs.Metrics.incr m ~by:degraded "libgen.degraded"
  | None -> ());
  if traced then
    Obs.Trace.emit obs "libgen.done" (fun () ->
        Obs.Trace.
          [
            int "fresh" fresh;
            int "skipped" skipped;
            int "degraded" degraded;
          ]);
  lib
