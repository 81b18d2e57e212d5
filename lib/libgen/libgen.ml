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

(* What the plan phase decided for a pair: reproduce a recorded
   schedule, optimize (with a warm-start sequence when the database
   offers a matching record), or replay a ledger entry left by a
   crashed run. *)
type plan_item =
  | Reproduce of Tuning.Record.t * Ir.Prog.t
  | Optimize of string list
  | Ledgered of Util.Json.t

(* ------------------------------------------------------------------ *)
(* The crash ledger                                                    *)
(* ------------------------------------------------------------------ *)

(* With [ctx.checkpoint] set, every completed fresh pair appends one
   entry to a {!Recover.Journal} *before* its database deposit, so the
   ledger always covers the deposits (ledgered ⊇ deposited).  A killed
   suite resumed with [ctx.resume] replays the ledger: ledgered pairs
   bypass both the plan phase's database decision and the optimizer —
   their manifest entry is rebuilt verbatim from the ledger (schedules
   regenerate by replaying the recorded moves) and their deposit is
   re-applied idempotently — so the resumed run starts at the first
   unfinished pair and still emits a byte-identical manifest. *)

let pair_id kernel target = kernel ^ "|" ^ target

let ledger_entry_json ~pid ~status ~strategy ~moves ~time_s ~evaluations
    ~failures ~recorded ~error : Util.Json.t =
  let open Util.Json in
  Obj
    [
      ("pair", Str pid);
      ("status", Str (status_name status));
      ("strategy", Str strategy);
      ("moves", Arr (List.map (fun m -> Str m) moves));
      ("time_s", Recover.Bits.of_float time_s);
      ("evaluations", Num (float_of_int evaluations));
      ("failures", Num (float_of_int failures));
      ("recorded", Bool recorded);
      ("error", match error with None -> Null | Some m -> Str m);
    ]

let status_of_ledger j =
  match Recover.Field.str "status" j with
  | "fresh" -> Fresh
  | "degraded" -> Degraded
  | s -> Recover.Field.corrupt "unknown ledger status %S" s

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
     the journal for appending this run's completions *)
  let ledgered : (string, Util.Json.t) Hashtbl.t = Hashtbl.create 16 in
  (match ctx.P.Ctx.checkpoint with
  | Some path when ctx.P.Ctx.resume -> (
      match Recover.Journal.replay path with
      | Ok (entries, _torn) ->
          List.iter
            (fun j -> Hashtbl.replace ledgered (Recover.Field.str "pair" j) j)
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
  (* each kernel's root is built and fingerprinted once: IR programs
     are immutable, so its pairs share it across targets *)
  let roots =
    List.map
      (fun (e : Kernels.entry) ->
        let root = e.build () in
        (e, root, Tuning.Record.fingerprint root))
      kernels
  in
  let pairs =
    List.concat_map
      (fun (tname, t) ->
        List.map (fun (e, root, fp) -> (tname, t, e, root, fp)) roots)
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
  (* Plan phase (sequential, cheap): time each pair's root and decide
     skip vs optimize against the database.  All database reads happen
     here, so the parallel phase touches no shared mutable state beyond
     the ctx cache (which is domain-safe). *)
  let plan =
    List.map
      (fun (tname, t, (e : Kernels.entry), root, fp) ->
        let naive_s = Machine.time t root in
        let record =
          Option.bind db (fun d ->
              Tuning.Warmstart.lookup d ~kernel:e.label ~target:tname
                ~fingerprint:fp)
        in
        let item =
          (* a ledgered pair completed before the crash: its entry wins
             over any database decision — deposits the killed run made
             must not flip later pairs to Skipped in the resumed
             manifest *)
          match Hashtbl.find_opt ledgered (pair_id e.label tname) with
          | Some j -> Ledgered j
          | None -> (
              match record with
              | Some r when force -> Optimize r.moves
              | Some r -> (
                  (* a record that no longer replays exactly is stale:
                     re-optimize, still seeded by what replays *)
                  match
                    Search.Stochastic.replay_exact (P.caps_of ~ctx t) root
                      r.moves
                  with
                  | Ok sched -> Reproduce (r, sched)
                  | Error _ -> Optimize r.moves)
              | None -> Optimize [])
        in
        (tname, t, e, root, fp, naive_s, item))
      pairs
  in
  (* Parallel phase: optimize the fresh pairs across ctx.jobs domains.
     Each pair runs its own sequential search (jobs = 0 inside the
     workers, like portfolio members) into a private trace buffer;
     map_result keeps one crashing pair from cancelling the suite. *)
  let fresh_tasks =
    Array.of_list
      (List.filter_map
         (fun (tname, t, e, root, _, naive_s, item) ->
           match item with
           | Optimize warm -> Some (tname, t, e, root, naive_s, warm)
           | Reproduce _ | Ledgered _ -> None)
         plan)
  in
  let task (tname, t, (e : Kernels.entry), root, _, warm) =
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
      P.optimize_recorded ~ctx:pctx ~kernel:e.label ~target_name:tname
        strategy t root
    in
    (* without a database there is nothing to deposit into *)
    (o, (if db = None then None else record), sink)
  in
  let deposit r =
    (* idempotent: re-applying a ledgered deposit after a crash hits
       [Duplicate] and changes nothing *)
    Option.iter (fun d -> ignore (Tuning.Db.deposit ?file:db_file d r)) db
  in
  let fresh_results :
      (P.outcome * Tuning.Record.t option * Obs.Trace.sink, exn) result array
      =
    Array.make (Array.length fresh_tasks) (Stdlib.Error Exit)
  in
  (* Settle one completed fresh task, in pair order: ledger its final
     manifest fields (mirroring the fold below) — fsynced, *before* the
     deposit, so once the append returns a kill anywhere leaves a
     resumable suite — then deposit its record. *)
  let settle i =
    let tname, _, (e : Kernels.entry), _, naive_s, _ = fresh_tasks.(i) in
    let pid = pair_id e.label tname in
    let append ~status ~strategy ~moves ~time_s ~evaluations ~failures
        ~recorded ~error =
      match ledger with
      | None -> ()
      | Some w ->
          Recover.Journal.append w
            (ledger_entry_json ~pid ~status ~strategy ~moves ~time_s
               ~evaluations ~failures ~recorded ~error);
          (match metrics with
          | Some m -> Obs.Metrics.incr m "journal.appends"
          | None -> ());
          if traced then
            Obs.Trace.emit obs "journal.append" (fun () ->
                Obs.Trace.[ str "kind" "libgen"; str "key" pid ])
    in
    match fresh_results.(i) with
    | Ok ((o : P.outcome), _, _) when not (Float.is_finite o.time_s) ->
        append ~status:Degraded ~strategy:"naive" ~moves:[] ~time_s:naive_s
          ~evaluations:o.evaluations ~failures:o.failures ~recorded:false
          ~error:
            (Some
               (Robust.Guard.failure_message
                  (Robust.Guard.Non_finite o.time_s)))
    | Ok (o, record, _) ->
        append ~status:Fresh ~strategy:strat_label ~moves:o.moves
          ~time_s:o.time_s ~evaluations:o.evaluations ~failures:o.failures
          ~recorded:(record <> None) ~error:None;
        Option.iter deposit record
    | Error exn ->
        append ~status:Degraded ~strategy:"naive" ~moves:[] ~time_s:naive_s
          ~evaluations:0 ~failures:0 ~recorded:false
          ~error:
            (Some
               (Robust.Guard.failure_message
                  (Robust.Guard.rejected_of_exn exn)))
  in
  if Array.length fresh_tasks > 0 then begin
    let n = Array.length fresh_tasks in
    let jobs = max 1 (min ctx.P.Ctx.jobs n) in
    (* with a ledger, chunks of [jobs] tasks, so the ledger fills as
       pairs complete and an interrupt has a boundary to stop at *)
    let chunk = if ledger = None then n else jobs in
    Parallel.Pool.with_pool ~instrument:(metrics <> None) ~jobs (fun pool ->
        let pos = ref 0 in
        while !pos < n do
          let len = min chunk (n - !pos) in
          let r =
            Parallel.Pool.map_result pool task (Array.sub fresh_tasks !pos len)
          in
          Array.blit r 0 fresh_results !pos len;
          for k = !pos to !pos + len - 1 do
            settle k
          done;
          pos := !pos + len;
          if ledger <> None && Recover.Interrupt.requested () && !pos < n then
            raise (Recover.Interrupt.Interrupted ctx.P.Ctx.checkpoint)
        done;
        match metrics with
        | Some m -> Parallel.Pool.export pool m
        | None -> ())
  end;
  let results = fresh_results in
  (* Fold phase (sequential, pair order): emit trace events and C
     sources; the deposits already happened as the tasks settled. *)
  let next_fresh = ref 0 in
  let entries =
    List.map
      (fun (tname, t, (e : Kernels.entry), root, fp, naive_s, item) ->
        let c_entry = Codegen.entry_symbol ~kernel:e.label ~target:tname in
        (* the file is named after the symbol, less its "perfdojo_" *)
        let c_file = String.sub c_entry 9 (String.length c_entry - 9) ^ ".c" in
        let finish ~status ~strategy ~moves ~time_s ~evaluations ~failures
            ~recorded ~error sched =
          let banner =
            Printf.sprintf
              "/* %s (%s) on %s: %s\n\
              \   status %s via %s; modelled %.3e s (%.2fx over naive)\n\
              \   fingerprint %s */\n"
              e.label e.shape_desc tname e.description (status_name status)
              strategy time_s
              (if time_s > 0. then naive_s /. time_s else 0.)
              fp
          in
          write_file
            (Filename.concat out c_file)
            (banner ^ Codegen.program ~entry:c_entry sched);
          {
            kernel = e.label;
            shape = e.shape_desc;
            target = tname;
            fingerprint = fp;
            status;
            strategy;
            moves;
            naive_s;
            time_s;
            evaluations;
            failures;
            recorded;
            c_file;
            c_entry;
            error;
          }
        in
        let degrade ~failure ~evaluations ~failures sink =
          let msg = Robust.Guard.failure_message failure in
          if traced then begin
            Obs.Trace.emit obs "libgen.degraded" (fun () ->
                Obs.Trace.
                  [
                    str "kernel" e.label;
                    str "target" tname;
                    str "class" (Robust.Guard.failure_class failure);
                    str "msg" msg;
                  ]);
            match sink with
            | Some s -> Obs.Trace.append ~into:obs s
            | None -> ()
          end;
          finish ~status:Degraded ~strategy:"naive" ~moves:[]
            ~time_s:naive_s ~evaluations ~failures ~recorded:false
            ~error:(Some msg) root
        in
        match item with
        | Reproduce (r, sched) ->
            let time_s = Machine.time t sched in
            if traced then
              Obs.Trace.emit obs "libgen.skip" (fun () ->
                  Obs.Trace.
                    [
                      str "kernel" e.label;
                      str "target" tname;
                      num "time_s" time_s;
                    ]);
            finish ~status:Skipped ~strategy:"db" ~moves:r.moves ~time_s
              ~evaluations:0 ~failures:0 ~recorded:true ~error:None sched
        | Ledgered j ->
            (* a pair the crashed run completed: rebuild its manifest
               entry verbatim from the ledger (the schedule regenerates
               by replaying the recorded moves), and re-apply a recorded
               deposit idempotently in case the kill landed between the
               ledger append and the database deposit *)
            let status = status_of_ledger j in
            let moves = Recover.Field.str_list "moves" j in
            let time_s = Recover.Field.float_bits "time_s" j in
            let strategy = Recover.Field.str "strategy" j in
            let evaluations = Recover.Field.int "evaluations" j in
            let failures = Recover.Field.int "failures" j in
            let recorded = Recover.Field.bool "recorded" j in
            let error =
              match Util.Json.member "error" j with
              | Some (Util.Json.Str m) -> Some m
              | _ -> None
            in
            let caps = P.caps_of ~ctx t in
            let sched = fst (Tuning.Warmstart.replay caps root moves) in
            if recorded then
              Result.iter deposit
                (Tuning.Warmstart.record_of ~objective:(Machine.time t) ~caps
                   ~kernel:e.label ~target:tname ~root ~moves
                   ~evals:evaluations);
            finish ~status ~strategy ~moves ~time_s ~evaluations ~failures
              ~recorded ~error sched
        | Optimize _ -> (
            let i = !next_fresh in
            incr next_fresh;
            match results.(i) with
            | Ok ((o : P.outcome), _, _) when not (Float.is_finite o.time_s)
              ->
                (* the search survived but found nothing finite — the
                   same taxonomy a guarded evaluation would use *)
                degrade
                  ~failure:(Robust.Guard.Non_finite o.time_s)
                  ~evaluations:o.evaluations ~failures:o.failures None
            | Ok (o, record, sink) ->
                let recorded = record <> None in
                if traced then begin
                  Obs.Trace.emit obs "libgen.entry" (fun () ->
                      Obs.Trace.
                        [
                          str "kernel" e.label;
                          str "target" tname;
                          num "time_s" o.time_s;
                          int "evals" o.evaluations;
                          int "failures" o.failures;
                          bool "recorded" recorded;
                        ]);
                  Obs.Trace.append ~into:obs sink
                end;
                finish ~status:Fresh ~strategy:strat_label ~moves:o.moves
                  ~time_s:o.time_s ~evaluations:o.evaluations
                  ~failures:o.failures ~recorded ~error:None o.schedule
            | Error exn ->
                (* the pair's whole optimization crashed; its partial
                   trace buffer is lost with the task *)
                degrade
                  ~failure:(Robust.Guard.rejected_of_exn exn)
                  ~evaluations:0 ~failures:0 None))
      plan
  in
  let count st = List.length (List.filter (fun e -> e.status = st) entries) in
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
    (fun en ->
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
