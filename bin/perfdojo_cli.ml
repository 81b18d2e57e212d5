(* perfdojo: command-line driver.

   Noun-verb command groups:

     perfdojo kernel list | show | moves
     perfdojo lib generate
     perfdojo db list | best | export
     perfdojo model train | show
     perfdojo script run | export | list
     perfdojo serve | client

   plus the top-level verbs targets, optimize, verify, game, replay and
   analyze.

   The cross-cutting run options — --db --jobs --trace --stats
   --max-retries --fault-rate --seed — are one shared Cmdliner term,
   [common_opts]; [with_common] validates them once, loads the tuning
   database, opens the trace sink and hands the body a single
   [Perfdojo.Ctx.t] run context.

   Errors follow Cmdliner conventions: unknown kernels, targets and
   strategies are usage errors (printed with usage, non-zero exit), so
   scripted tuning pipelines can distinguish them from tuning output. *)

open Cmdliner
open Perfdojo

let all_kernels = Kernels.table3 @ Kernels.snitch_micro

(* Command bodies return [(unit, bool * string) result]; the bool
   requests usage printing, per [Term.ret]'s error conventions. *)
let ( let* ) = Result.bind

let to_ret = function
  | Ok () -> `Ok ()
  | Error (usage, msg) -> `Error (usage, msg)

let find_kernel name : (Kernels.entry, bool * string) result =
  match Kernels.find_entry all_kernels name with
  | e -> Ok e
  | exception Invalid_argument msg -> Error (true, msg)

let known_target_names = List.map fst Machine.Desc.known_targets

(* Returns the canonical short name alongside the descriptor: the short
   name is what tuning-database records are keyed on. *)
let target_of_string s :
    (string * Machine.Desc.target, bool * string) result =
  Result.map_error (fun msg -> (true, msg)) (Machine.Desc.target_of_string s)

(* an unknown strategy name is a usage error *)
let parse_strategy budget s =
  Result.map_error (fun msg -> (true, msg)) (strategy_of_string ~budget s)

(* Tolerant load: malformed lines (a writer killed mid-append) are
   skipped by Tuning.Db.load — surface them as a warning, not a
   failure, so a torn database never blocks tuning.  With a trace sink
   open they also land as a [db.skipped_lines] event. *)
let load_db ?obs path : (Tuning.Db.t, bool * string) result =
  match Tuning.Db.load ?obs path with
  | Ok db ->
      let skipped = Tuning.Db.skipped_lines db in
      if skipped > 0 then
        Printf.eprintf "warning: %s: skipped %d malformed line(s)\n%!" path
          skipped;
      Ok db
  | Error msg -> Error (false, msg)

(* shared options *)
let target_arg =
  let doc =
    "Target machine: " ^ String.concat ", " known_target_names ^ "."
  in
  Arg.(value & opt string "x86" & info [ "target"; "t" ] ~docv:"TARGET" ~doc)

let kernel_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL")

(* A negative budget is a usage error here, before any search starts. *)
let budget_arg =
  let doc = "Search evaluation budget (non-negative)." in
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 0 -> Error (`Msg "must be non-negative")
    | r -> r
  in
  let budget = Arg.conv (parse, Arg.conv_printer Arg.int) in
  Arg.(value & opt budget 300 & info [ "budget"; "b" ] ~docv:"N" ~doc)

let strategy_arg =
  let doc =
    "Strategy: naive, greedy, heuristic, sampling[-edges], \
     annealing[-edges], rl, portfolio, exhaustive (enumerate the full \
     transformation graph to $(b,--depth) moves and certify the optimum)."
  in
  Arg.(
    value & opt string "heuristic" & info [ "strategy"; "s" ] ~docv:"S" ~doc)

let db_file_arg =
  let doc = "Tuning database file (JSONL, one schedule record per line)." in
  Arg.(value & opt string "tune.jsonl" & info [ "db" ] ~docv:"FILE" ~doc)

(* ------------------------------------------------------------------ *)
(* The shared run options: one term, one validation path, one Ctx      *)
(* ------------------------------------------------------------------ *)

type common = {
  co_db : string option;
  co_jobs : int;
  co_trace : string option;
  co_stats : bool;
  co_max_retries : int;
  co_fault_rate : float;
  co_seed : int;
  co_surrogate : string option;
      (* None = off; Some "" = fresh model; Some path = load *)
  co_filter_ratio : float;
  co_dedup : bool;
  co_visited_dedup : bool;
  co_depth : int;
  co_checkpoint : string option;
  co_checkpoint_every : int;
  co_resume : bool;
  co_composites : string list;
}

let common_opts : common Term.t =
  let db_arg =
    let doc =
      "Tuning database (JSONL).  The run is memoized against it and its \
       winning schedules are recorded into it."
    in
    Arg.(value & opt (some string) None & info [ "db" ] ~docv:"FILE" ~doc)
  in
  let jobs_arg =
    let doc =
      "Worker domains for the stochastic searches (and the portfolio \
       race / library pairs).  0 (default) is the sequential path; N >= \
       1 evaluates in parallel — the result is the same for every N >= \
       1, so --jobs only changes wall-clock time."
    in
    Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let trace_arg =
    let doc =
      "Write a structured JSONL trace of the run to $(docv): search \
       steps, engine moves, phase spans.  The stream is deterministic \
       for a given seed — identical for --jobs 1 and --jobs N up to the \
       wall-clock dur_s fields."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print an end-of-run metrics table: search counters, cache \
             hit rate, pool utilization and per-phase span times.")
  in
  let retries_arg =
    let doc =
      "Retry budget for transient evaluation failures: each failing \
       evaluation is retried up to N times (with deterministic backoff) \
       before being quarantined at +inf."
    in
    Arg.(
      value
      & opt int Robust.Guard.default.max_retries
      & info [ "max-retries" ] ~docv:"N" ~doc)
  in
  let fault_rate_arg =
    let doc =
      "Inject deterministic faults (exceptions, NaNs, delays) into this \
       fraction of evaluations — a testing knob for the degradation \
       path, never useful in production.  0 disables injection exactly."
    in
    Arg.(value & opt float 0. & info [ "fault-rate" ] ~docv:"R" ~doc)
  in
  let seed_arg =
    let doc = "Random seed." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let surrogate_arg =
    let doc =
      "Learn a surrogate cost model online during the search (every \
       real evaluation becomes a training pair).  With $(docv), start \
       from a model file saved by $(b,perfdojo model train) instead of \
       from scratch.  Pair with $(b,--filter-ratio) to spend the model: \
       pre-rank each candidate batch and only send the top fraction to \
       the simulator."
    in
    Arg.(
      value
      & opt ~vopt:(Some "") (some string) None
      & info [ "surrogate" ] ~docv:"FILE" ~doc)
  in
  let filter_ratio_arg =
    let doc =
      "Fraction of each candidate batch that reaches the simulator \
       after surrogate pre-ranking, in (0, 1].  1.0 (default) scores \
       and trains but never filters; requires $(b,--surrogate) when \
       below 1."
    in
    Arg.(value & opt float 1.0 & info [ "filter-ratio" ] ~docv:"R" ~doc)
  in
  let dedup_arg =
    Arg.(
      value & flag
      & info [ "dedup" ]
          ~doc:
            "Deduplicate identical candidates within each search batch: \
             structurally equal programs are simulated once and share \
             the measurement (traced as search.batch_dedup).")
  in
  let visited_dedup_arg =
    Arg.(
      value & flag
      & info [ "visited-dedup" ]
          ~doc:
            "Remember the canonical fingerprint of every state measured \
             so far and never re-simulate an equivalent one — \
             alpha-renamed or commutatively-reordered spellings of a \
             visited schedule fold as search.visited_skip events instead \
             of paying a simulator call.  Implies per-batch $(b,--dedup).")
  in
  let depth_arg =
    let doc =
      "Move-sequence depth bound for $(b,--strategy exhaustive): the \
       full transformation graph is enumerated (with canonical dedup) \
       up to N moves from the root, certifying the optimum within that \
       bound.  Ignored by the other strategies."
    in
    Arg.(value & opt int 3 & info [ "depth" ] ~docv:"N" ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Periodically snapshot the run's full search state to $(docv) \
       (versioned, checksummed, written atomically with fsync).  A \
       killed run restarted with $(b,--resume) reproduces the \
       uninterrupted run exactly: same result, same accounting, same \
       stripped trace.  SIGINT/SIGTERM write a final checkpoint and \
       exit with code 4."
    in
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let checkpoint_every_arg =
    let doc =
      "Checkpoint cadence for the stochastic engines: snapshot after \
       every N filled evaluation slots (exhaustive checkpoints per BFS \
       level regardless).  Requires $(b,--checkpoint)."
    in
    Arg.(value & opt int 64 & info [ "checkpoint-every" ] ~docv:"N" ~doc)
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the $(b,--checkpoint) file if it exists (a \
             missing file starts cold, so the flag is safe in retry \
             loops).  The checkpoint must match the run's \
             configuration; a torn or truncated file is rejected with \
             a typed error, never deserialized as garbage.")
  in
  let composites_arg =
    let doc =
      "Enable named composite transformations as macro-moves in the \
       search: each composite (e.g. tile_and_unroll, fuse_chain) is \
       offered alongside the atomic moves, so one search step can take \
       a whole selector-guarded sequence.  $(docv) is a comma-separated \
       list of composite names, or $(b,all) for every registered \
       composite (`perfdojo script list` names them)."
    in
    Arg.(
      value
      & opt (list string) []
      & info [ "composites" ] ~docv:"NAMES" ~doc)
  in
  let make co_db co_jobs co_trace co_stats co_max_retries co_fault_rate
      co_seed co_surrogate co_filter_ratio co_dedup co_visited_dedup
      co_depth co_checkpoint co_checkpoint_every co_resume co_composites =
    { co_db; co_jobs; co_trace; co_stats; co_max_retries; co_fault_rate;
      co_seed; co_surrogate; co_filter_ratio; co_dedup; co_visited_dedup;
      co_depth; co_checkpoint; co_checkpoint_every; co_resume;
      co_composites }
  in
  Term.(
    const make $ db_arg $ jobs_arg $ trace_arg $ stats_arg $ retries_arg
    $ fault_rate_arg $ seed_arg $ surrogate_arg $ filter_ratio_arg
    $ dedup_arg $ visited_dedup_arg $ depth_arg $ checkpoint_arg
    $ checkpoint_every_arg $ resume_arg $ composites_arg)

(* The checks of the shared options that [with_common] and [serve] both
   make — retries, depth, checkpoint cadence, composite names, fault
   rate, filter ratio; returns the fault harness. *)
let check_search_opts (c : common) =
  let* () =
    if c.co_max_retries < 0 then
      Error (true, "--max-retries must be non-negative")
    else if c.co_depth < 0 then Error (true, "--depth must be non-negative")
    else if c.co_checkpoint_every < 1 then
      Error (true, "--checkpoint-every must be >= 1")
    else if c.co_resume && c.co_checkpoint = None then
      Error (true, "--resume requires --checkpoint FILE")
    else Ok ()
  in
  let* () =
    let known = Transfo.Composites.names in
    match
      List.filter
        (fun n -> n <> "all" && not (List.mem n known))
        c.co_composites
    with
    | [] -> Ok ()
    | bad ->
        Error
          ( true,
            Printf.sprintf "--composites: unknown composite(s) %s (known: %s)"
              (String.concat ", " bad)
              (String.concat ", " known) )
  in
  let* faults =
    if c.co_fault_rate = 0. then Ok Robust.Faults.none
    else if c.co_fault_rate >= 0. && c.co_fault_rate <= 1. then
      Ok (Robust.Faults.spread ~seed:c.co_seed c.co_fault_rate)
    else Error (true, "--fault-rate must lie in [0, 1]")
  in
  if c.co_filter_ratio <= 0. || c.co_filter_ratio > 1. then
    Error (true, "--filter-ratio must lie in (0, 1]")
  else if c.co_filter_ratio < 1. && c.co_surrogate = None then
    Error (true, "--filter-ratio below 1 requires --surrogate")
  else Ok faults

(* Validate the shared options once, load the database, open the trace
   channel, build the run context and hand everything to [body]; close
   the trace and print the metrics table afterwards.  A cache rides
   along whenever a database does, so tuned runs memoize for free. *)
let with_common (c : common) body =
  let* faults = check_search_opts c in
  let* surrogate =
    match c.co_surrogate with
    | None -> Ok None
    | Some "" -> Ok (Some (Surrogate.Model.create ()))
    | Some file -> (
        match Surrogate.Model.load file with
        | Ok m -> Ok (Some m)
        | Error e ->
            Error (false, Printf.sprintf "--surrogate %s: %s" file e))
  in
  (* the trace sink opens before the database loads so skipped lines
     surface as db.skipped_lines events in the run's trace *)
  let trace_oc = Option.map open_out c.co_trace in
  let obs =
    match trace_oc with
    | None -> Obs.Trace.null
    | Some oc -> Obs.Trace.to_channel oc
  in
  let* db =
    match c.co_db with
    | None -> Ok None
    | Some f -> Result.map Option.some (load_db ~obs f)
  in
  let metrics = if c.co_stats then Some (Obs.Metrics.create ()) else None in
  let cache = Option.map (fun _ -> Tuning.Cache.create ()) db in
  let ctx =
    Ctx.default |> Ctx.with_seed c.co_seed |> Ctx.with_jobs c.co_jobs
    |> Ctx.with_obs obs |> Ctx.with_faults faults
    |> Ctx.with_guard
         { Robust.Guard.default with max_retries = c.co_max_retries }
    |> Ctx.with_filter_ratio c.co_filter_ratio
    |> Ctx.with_dedup c.co_dedup
    |> Ctx.with_visited_dedup c.co_visited_dedup
    |> Ctx.with_exhaustive_depth c.co_depth
    |> Ctx.with_composites c.co_composites
  in
  let ctx =
    match surrogate with
    | Some m -> Ctx.with_surrogate m ctx
    | None -> ctx
  in
  let ctx =
    match cache with Some cch -> Ctx.with_cache cch ctx | None -> ctx
  in
  let ctx =
    match metrics with Some m -> Ctx.with_metrics m ctx | None -> ctx
  in
  (* checkpoint-then-exit on SIGINT/SIGTERM: the flag handler lets the
     engine reach its next safe boundary (round / BFS level / pair),
     write a final checkpoint and raise Interrupted — installed only
     when there is a checkpoint to write, so Ctrl-C on a plain run
     keeps its immediate default behaviour *)
  let ctx =
    match c.co_checkpoint with
    | None -> ctx
    | Some path ->
        Recover.Interrupt.install ();
        ctx
        |> Ctx.with_checkpoint ~every:c.co_checkpoint_every path
        |> Ctx.with_resume c.co_resume
  in
  let close () =
    match trace_oc with Some oc -> close_out oc | None -> ()
  in
  match body ~ctx ~db with
  | Ok () ->
      close ();
      Option.iter (Printf.printf "trace:      %s\n") c.co_trace;
      (match metrics with
      | Some m -> Format.printf "%a" Obs.Metrics.pp_summary m
      | None -> ());
      Ok ()
  | Error _ as e ->
      close ();
      e
  | exception exn ->
      close ();
      raise exn

(* ------------------------------------------------------------------ *)
(* kernel list                                                         *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Printf.printf "%-14s %-18s %s\n" "kernel" "shape" "description";
    List.iter
      (fun (e : Kernels.entry) ->
        Printf.printf "%-14s %-18s %s\n" e.label e.shape_desc e.description)
      all_kernels
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in kernels (Table 3 + Snitch).")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* targets                                                             *)
(* ------------------------------------------------------------------ *)

let targets_cmd =
  let run () =
    List.iter
      (fun (short, t) ->
        Printf.printf "%-8s %s\n" short (Machine.Desc.target_name t))
      Machine.Desc.known_targets
  in
  Cmd.v (Cmd.info "targets" ~doc:"List the modelled machines.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* kernel show                                                         *)
(* ------------------------------------------------------------------ *)

let show_cmd =
  let run kernel emit_c =
    to_ret
    @@ let* e = find_kernel kernel in
       let p = e.build () in
       print_string (Ir.Printer.program p);
       if emit_c then begin
         print_endline "\n/* generated C */";
         print_string (Codegen.program p)
       end;
       Ok ()
  in
  let c_arg =
    Arg.(value & flag & info [ "c" ] ~doc:"Also print the generated C.")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a kernel's textual IR (and optionally C).")
    Term.(ret (const run $ kernel_arg $ c_arg))

(* ------------------------------------------------------------------ *)
(* kernel moves                                                        *)
(* ------------------------------------------------------------------ *)

let moves_cmd =
  let run kernel target script =
    to_ret
    @@ let* e = find_kernel kernel in
       let* _, t = target_of_string target in
       let game = Game.start t (e.build ()) in
       let render d =
         if not script then d
         else
           (* each describe string round-trips to one script statement;
              anything unparseable falls back to the raw spelling *)
           match (Transfo.Script.of_moves [ d ]).Transfo.Script.stmts with
           | [ (_, st) ] -> Transfo.Script.stmt_to_string st
           | _ -> d
       in
       List.iter
         (fun (i, d) -> Printf.printf "%3d  %s\n" i (render d))
         (Game.moves game);
       Ok ()
  in
  let script_arg =
    Arg.(
      value & flag
      & info [ "script" ]
          ~doc:
            "Print each move as a schedule-script statement (the .pds \
             spelling accepted by $(b,perfdojo script run)) instead of \
             the raw describe string.")
  in
  Cmd.v
    (Cmd.info "moves"
       ~doc:"List the applicable transformations at the kernel's root state.")
    Term.(ret (const run $ kernel_arg $ target_arg $ script_arg))

(* The kernel noun groups the per-kernel inspection verbs. *)
let kernel_cmd =
  Cmd.group
    (Cmd.info "kernel" ~doc:"Inspect the built-in kernels.")
    [ list_cmd; show_cmd; moves_cmd ]

(* ------------------------------------------------------------------ *)
(* optimize                                                            *)
(* ------------------------------------------------------------------ *)

let optimize_cmd =
  let run kernel target strategy budget common emit_c check warm =
    to_ret
    @@ let* e = find_kernel kernel in
       let* tname, t = target_of_string target in
       let* strat = parse_strategy budget strategy in
       let* () =
         if warm && common.co_db = None then
           Error (true, "--warm-start needs a tuning database (--db)")
         else Ok ()
       in
       with_common common @@ fun ~ctx ~db ->
       let p = e.build () in
       let t_naive = Machine.time t p in
       let warm_start =
         if not warm then []
         else
           match db with
           | None -> []
           | Some d -> (
               match
                 Tuning.Warmstart.lookup d ~kernel:e.label ~target:tname
                   ~keys:(Tuning.Record.root_keys p)
               with
               | None ->
                   Printf.eprintf
                     "note: no matching record for %s on %s; starting cold\n"
                     e.label tname;
                   []
               | Some r ->
                   (* pre-script records (schema <= 2) replay through the
                      deprecated describe-string path; nudge toward the
                      script format without blocking the run *)
                   if r.Tuning.Record.script = None then
                     Printf.eprintf
                       "warning: record for %s on %s has no script \
                        provenance (schema %d); replaying raw move \
                        strings, which is deprecated — re-tune with \
                        --db to upgrade the record\n"
                       e.label tname r.Tuning.Record.schema;
                   r.Tuning.Record.moves)
       in
       let ctx = Ctx.with_warm_start warm_start ctx in
       let outcome, record =
         Perfdojo.optimize_recorded ~ctx ~kernel:e.label ~target_name:tname
           strat t p
       in
       Printf.printf "kernel:     %s (%s)\n" e.label e.shape_desc;
       Printf.printf "target:     %s\n" (Machine.Desc.target_name t);
       Printf.printf "strategy:   %s%s\n" strategy
         (if warm_start <> [] then
            Printf.sprintf " (warm-started from %d recorded moves)"
              (List.length warm_start)
          else "");
       Printf.printf "naive:      %.3e s\n" t_naive;
       Printf.printf "optimized:  %.3e s (%.2fx, %d evaluations)\n"
         outcome.time_s (t_naive /. outcome.time_s) outcome.evaluations;
       if outcome.failures > 0 then
         Printf.printf
           "failures:   %d evaluation(s) quarantined (search degraded \
            gracefully)\n"
           outcome.failures;
       (match ctx.Ctx.cache with
       | Some c ->
           Printf.printf
             "memoization: %d hits / %d misses (%.1f%% hit rate, %d model \
              evaluations saved)\n"
             (Tuning.Cache.hits c) (Tuning.Cache.misses c)
             (100. *. Tuning.Cache.hit_rate c)
             (Tuning.Cache.hits c)
       | None -> ());
       if outcome.moves <> [] then begin
         print_endline "moves:";
         List.iter (Printf.printf "  %s\n") outcome.moves
       end;
       print_endline "schedule:";
       print_endline (Ir.Printer.body outcome.schedule);
       (* deposit the winner into the database *)
       (match (db, common.co_db, record) with
       | Some _, Some _, None ->
           Printf.eprintf
             "note: the %s schedule does not replay to its modelled time; not \
              recorded\n"
             strategy
       | Some d, Some f, Some r ->
           Obs.Span.run ?metrics:ctx.Ctx.metrics ~trace:ctx.Ctx.obs "db-write"
             (fun () ->
               let verdict =
                 match Tuning.Db.add d r with
                 | `Inserted -> "new record"
                 | `Improved -> "improved record"
                 | `Duplicate -> "no improvement over recorded best"
               in
               Tuning.Db.save d f;
               Printf.printf "db:         %s (%s, %d records)\n" f verdict
                 (Tuning.Db.size d))
       | _ -> ());
       if check then begin
         let small = e.build_small () in
         let small_ctx =
           Ctx.(
             default |> with_seed common.co_seed |> with_jobs common.co_jobs)
         in
         let small_outcome =
           Perfdojo.optimize_ctx ~ctx:small_ctx strat t small
         in
         match Interp.equivalent small small_outcome.schedule with
         | Ok () -> print_endline "numerical check (small variant): OK"
         | Error msg -> Printf.printf "numerical check FAILED: %s\n" msg
       end;
       if emit_c then begin
         print_endline "/* generated C */";
         print_string (Codegen.program outcome.schedule)
       end;
       Ok ()
  in
  let c_arg =
    Arg.(value & flag & info [ "c" ] ~doc:"Print C for the winning schedule.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Re-run the strategy on a small variant of the kernel and \
             verify numerically against the reference interpreter.")
  in
  let warm_arg =
    Arg.(
      value & flag
      & info [ "warm-start" ]
          ~doc:
            "Seed the search from the database's fastest record for this \
             kernel/target and program fingerprint (requires --db).")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Optimize a kernel for a target machine.")
    Term.(
      ret
        (const run $ kernel_arg $ target_arg $ strategy_arg $ budget_arg
       $ common_opts $ c_arg $ check_arg $ warm_arg))

(* ------------------------------------------------------------------ *)
(* db: inspect the tuning database                                     *)
(* ------------------------------------------------------------------ *)

let db_list_cmd =
  let run db_file =
    to_ret
    @@ let* db = load_db db_file in
       let records = Tuning.Db.records db in
       if records = [] then Printf.printf "%s: empty\n" db_file
       else begin
         Printf.printf "%-14s %-8s %-12s %6s %6s  %s\n" "kernel" "target"
           "best_time" "evals" "moves" "fingerprint";
         List.iter
           (fun (r : Tuning.Record.t) ->
             Printf.printf "%-14s %-8s %-12s %6d %6d  %s\n" r.kernel r.target
               (Printf.sprintf "%.3e" r.best_time)
               r.evals (List.length r.moves)
               (String.sub r.fingerprint 0 12))
           records
       end;
       Ok ()
  in
  Cmd.v
    (Cmd.info "list" ~doc:"Summarize every record in the tuning database.")
    Term.(ret (const run $ db_file_arg))

let db_best_cmd =
  let run db_file kernel target =
    to_ret
    @@ let* db = load_db db_file in
       let* tname, _ = target_of_string target in
       match Tuning.Db.best db ~kernel ~target:tname with
       | None ->
           Error
             ( false,
               Printf.sprintf "no record for %s on %s in %s" kernel tname
                 db_file )
       | Some r ->
           (* metadata on stderr so stdout is a pure move trace, directly
              consumable by `perfdojo replay` *)
           Printf.eprintf "# %s on %s: %.3e s (%d evals, fingerprint %s)\n"
             r.kernel r.target r.best_time r.evals r.fingerprint;
           List.iter print_endline r.moves;
           Ok ()
  in
  Cmd.v
    (Cmd.info "best"
       ~doc:
         "Print the best recorded move sequence for a kernel/target (one \
          move per line on stdout; replayable with `perfdojo replay`).")
    Term.(ret (const run $ db_file_arg $ kernel_arg $ target_arg))

(* Resolve a database record's (kernel, target) pair back to a root
   program and capability set — the replay context for feature
   extraction and offline surrogate training.  Every composite is
   enabled, so records deposited by a --composites search replay too.
   Records naming kernels or targets this build doesn't know are
   skipped, not errors: tuning databases outlive binaries. *)
let record_root ~kernel ~target =
  match (find_kernel kernel, target_of_string target) with
  | Ok e, Ok (_, t) ->
      Some (e.build (), Transfo.Composites.enable ~names:[ "all" ] (Machine.caps t))
  | _ -> None

let db_export_cmd =
  let run db_file kernel target k features =
    to_ret
    @@ let* db = load_db db_file in
       let* target =
         match target with
         | None -> Ok None
         | Some t ->
             let* tname, _ = target_of_string t in
             Ok (Some tname)
       in
       let records =
         match (kernel, target) with
         | None, None -> Tuning.Db.records db
         | _ -> Tuning.Db.query ?kernel ?target db
       in
       let records =
         match k with
         | None -> records
         | Some k -> List.filteri (fun i _ -> i < k) records
       in
       if not features then
         List.iter
           (fun r -> print_endline (Tuning.Record.to_json r))
           records
       else begin
         (* one (feature-vector, measured-time) training row per
            replayable record, as canonical JSONL *)
         let skipped = ref 0 in
         List.iter
           (fun (r : Tuning.Record.t) ->
             match Surrogate.Model.record_features ~root_of:record_root r with
             | Some vec ->
                 print_endline
                   (Util.Json.to_string
                      (Util.Json.Obj
                         [
                           ("kernel", Util.Json.Str r.kernel);
                           ("target", Util.Json.Str r.target);
                           ("time_s", Util.Json.Num r.best_time);
                           ("features", Surrogate.Features.to_json vec);
                         ]))
             | None -> incr skipped)
           records;
         if !skipped > 0 then
           Printf.eprintf "# skipped %d unreplayable record(s)\n" !skipped
       end;
       Ok ()
  in
  let kernel_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "kernel"; "k" ] ~docv:"KERNEL" ~doc:"Only this kernel.")
  in
  let target_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "target"; "t" ] ~docv:"TARGET" ~doc:"Only this target.")
  in
  let top_opt =
    Arg.(
      value
      & opt (some int) None
      & info [ "top" ] ~docv:"N"
          ~doc:"Keep only the N fastest matching records.")
  in
  let features_opt =
    Arg.(
      value & flag
      & info [ "features" ]
          ~doc:
            "Instead of raw records, emit surrogate training rows: one \
             canonical-JSON object per replayable record with the \
             schedule's feature vector and its measured time.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Re-emit records as canonical JSONL on stdout, optionally \
          filtered by kernel/target and truncated to the top N.  With \
          $(b,--features), emit (feature-vector, time) training rows \
          instead.")
    Term.(
      ret
        (const run $ db_file_arg $ kernel_opt $ target_opt $ top_opt
       $ features_opt))

let db_cmd =
  Cmd.group
    (Cmd.info "db"
       ~doc:
         "Inspect the persistent tuning database (schedule records, one \
          JSON object per line).")
    [ db_list_cmd; db_best_cmd; db_export_cmd ]

(* ------------------------------------------------------------------ *)
(* model: the learned surrogate cost model                             *)
(* ------------------------------------------------------------------ *)

let model_train_cmd =
  let run db_file out lr margin =
    to_ret
    @@ let* db = load_db db_file in
       let cfg = { Surrogate.Model.default_config with lr; margin } in
       let m = Surrogate.Model.create ~cfg () in
       (* SIGINT/SIGTERM during training finish the pass and still save
          the model (the save is atomic) — the model file is the
          checkpoint; a second signal exits immediately *)
       Recover.Interrupt.install ();
       let stats =
         Surrogate.Model.train_offline m
           ~root_of:(fun ~kernel ~target -> record_root ~kernel ~target)
           (Tuning.Db.records db)
       in
       Surrogate.Model.save m out;
       if Recover.Interrupt.requested () then
         raise (Recover.Interrupt.Interrupted (Some out));
       Printf.printf "model:      %s\n" out;
       Printf.printf "records:    %d (%d replayable)\n"
         stats.Surrogate.Model.records stats.used;
       Printf.printf "groups:     %d with comparable pairs\n" stats.groups;
       Printf.printf "pairs:      %d\n" stats.pairs;
       Printf.printf "updates:    %d\n" (Surrogate.Model.updates m);
       Ok ()
  in
  let out_arg =
    let doc = "Where to write the trained model (canonical JSON)." in
    Arg.(
      value & opt string "surrogate.json" & info [ "out"; "o" ] ~docv:"FILE"
      ~doc)
  in
  let lr_arg =
    let doc = "Learning rate for the pairwise hinge updates." in
    Arg.(
      value
      & opt float Surrogate.Model.default_config.lr
      & info [ "lr" ] ~docv:"R" ~doc)
  in
  let margin_arg =
    let doc = "Required score margin between a faster and slower pair." in
    Arg.(
      value
      & opt float Surrogate.Model.default_config.margin
      & info [ "margin" ] ~docv:"M" ~doc)
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:
         "Train a surrogate cost model offline from a tuning database: \
          every replayable record becomes a (features, time) point, \
          every same-kernel/target pair a ranking constraint.  The \
          output is byte-stable: same database, same flags, same file.")
    Term.(ret (const run $ db_file_arg $ out_arg $ lr_arg $ margin_arg))

let model_show_cmd =
  let run file =
    to_ret
    @@
    match Surrogate.Model.load file with
    | Error e -> Error (false, Printf.sprintf "%s: %s" file e)
    | Ok m ->
        let cfg = Surrogate.Model.config m in
        Printf.printf "dim:        %d\n" Surrogate.Features.dim;
        Printf.printf "lr:         %g\n" cfg.Surrogate.Model.lr;
        Printf.printf "margin:     %g\n" cfg.margin;
        Printf.printf "history:    %d\n" cfg.history;
        Printf.printf "updates:    %d\n" (Surrogate.Model.updates m);
        Ok ()
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Summarize a saved surrogate model file.")
    Term.(ret (const run $ file_arg))

let model_cmd =
  Cmd.group
    (Cmd.info "model"
       ~doc:
         "Train and inspect the learned surrogate cost model that \
          pre-ranks search candidates (see --surrogate / \
          --filter-ratio).")
    [ model_train_cmd; model_show_cmd ]

(* ------------------------------------------------------------------ *)
(* verify                                                              *)
(* ------------------------------------------------------------------ *)

let verify_cmd =
  let run kernel target =
    to_ret
    @@ let* e = find_kernel kernel in
       let* _, t = target_of_string target in
       let caps = Machine.caps t in
       let p = e.build_small () in
       (* apply every applicable instance once and verify each result:
          the paper's empirical validation of the applicability rules *)
       let insts = Transform.Xforms.all caps p in
       let failures = ref 0 in
       List.iter
         (fun (i : Transform.Xforms.instance) ->
           let p' = i.apply p in
           match Interp.equivalent ~tol:1e-4 p p' with
           | Ok () -> ()
           | Error msg ->
               incr failures;
               Printf.printf "FAIL %s: %s\n" (Transform.Xforms.describe i) msg)
         insts;
       Printf.printf "%d transformations verified on %s, %d failures\n"
         (List.length insts) e.label !failures;
       if !failures > 0 then
         Error (false, Printf.sprintf "%d transformations failed" !failures)
       else Ok ()
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Numerically verify every applicable transformation of a kernel \
          (small shape) against the reference interpreter.")
    Term.(ret (const run $ kernel_arg $ target_arg))

(* ------------------------------------------------------------------ *)
(* game: the interactive Dojo                                          *)
(* ------------------------------------------------------------------ *)

let game_cmd =
  let run kernel target trace_file =
    to_ret
    @@ let* e = find_kernel kernel in
       let* _, t = target_of_string target in
       let game = Game.start t (e.build ()) in
       let t0 = Machine.time t (Game.state game) in
       let print_state () =
         Printf.printf "\n%s\n" (Ir.Printer.body (Game.state game));
         let now = Machine.time t (Game.state game) in
         Printf.printf "runtime %.3e s  (%.2fx vs start)\n" now (t0 /. now)
       in
       let print_moves () =
         List.iter
           (fun (i, d) -> Printf.printf "%3d  %s\n" i d)
           (Game.moves game)
       in
       let save_trace () =
         match trace_file with
         | None -> ()
         | Some path ->
             let oc = open_out path in
             List.iter (fun m -> output_string oc (m ^ "\n"))
               (Game.moves_played game);
             close_out oc;
             Printf.printf "trace saved to %s\n" path
       in
       Printf.printf
         "PerfDojo game: %s on %s\n\
          commands: <n> play move n | m list moves | s show state | u undo |\n\
         \          u <k> undo k-th move back | v verify | c emit C | q quit\n"
         e.label
         (Machine.Desc.target_name t);
       print_state ();
       (try
          while true do
            print_string "> ";
            let line = String.trim (read_line ()) in
            match String.split_on_char ' ' line with
            | [ "q" ] | [ "quit" ] -> raise Exit
            | [ "m" ] -> print_moves ()
            | [ "s" ] -> print_state ()
            | [ "v" ] -> (
                match Game.verify game with
                | Ok () -> print_endline "numerically equivalent to start: OK"
                | Error msg -> Printf.printf "FAILED: %s\n" msg)
            | [ "c" ] -> print_string (Codegen.program (Game.state game))
            | [ "u" ] -> (
                match Game.undo game with
                | Some _ -> print_state ()
                | None -> print_endline "nothing to undo")
            | [ "u"; k ] -> (
                match int_of_string_opt k with
                | Some k -> (
                    match Game.undo_at game k with
                    | Some _ -> print_state ()
                    | None ->
                        print_endline
                          "cannot remove: later moves depend on it")
                | None -> print_endline "usage: u <k>")
            | [ n ] when int_of_string_opt n <> None -> (
                match int_of_string_opt n with
                | Some i -> (
                    try
                      let time = Game.play game i in
                      Printf.printf "-> %.3e s\n" time
                    with Invalid_argument m -> print_endline m)
                | None -> ())
            | [ "" ] -> ()
            | _ ->
                print_endline "unknown command (q m s u v c or a move number)"
          done
        with Exit | End_of_file -> ());
       save_trace ();
       Ok ()
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Save the played move sequence to FILE on exit.")
  in
  Cmd.v
    (Cmd.info "game"
       ~doc:
         "Play the performance game interactively: list moves, apply \
          them, watch the modelled runtime, undo, verify.")
    Term.(ret (const run $ kernel_arg $ target_arg $ trace_arg))

(* ------------------------------------------------------------------ *)
(* replay: apply a saved trace                                         *)
(* ------------------------------------------------------------------ *)

let replay_cmd =
  let run kernel target file emit_c =
    to_ret
    @@ let* e = find_kernel kernel in
       let* _, t = target_of_string target in
       let caps = Machine.caps t in
       (* "-" reads the trace from stdin, so `db best ... | replay K -`
          works as a pipeline *)
       let* ic =
         if file = "-" then Ok stdin
         else
           try Ok (open_in file)
           with Sys_error msg -> Error (false, msg)
       in
       let rec read acc =
         match input_line ic with
         | line -> read (String.trim line :: acc)
         | exception End_of_file ->
             if ic != stdin then close_in ic;
             List.rev acc
       in
       let moves =
         List.filter
           (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
           (read [])
       in
       let p = e.build () in
       match Search.Stochastic.replay_exact caps p moves with
       | Error msg -> Error (false, "replay failed: " ^ msg)
       | Ok result ->
           Printf.printf "replayed %d moves\n" (List.length moves);
           Printf.printf "runtime: %.3e s -> %.3e s\n" (Machine.time t p)
             (Machine.time t result);
           print_endline (Ir.Printer.body result);
           if emit_c then print_string (Codegen.program result);
           Ok ()
  in
  let file_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TRACE")
  in
  let c_arg = Arg.(value & flag & info [ "c" ] ~doc:"Also print C.") in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a move trace saved by the game command or printed by \
          `perfdojo db best` (# comment lines are ignored; TRACE may be \
          '-' for stdin).")
    Term.(ret (const run $ kernel_arg $ target_arg $ file_arg $ c_arg))

(* ------------------------------------------------------------------ *)
(* analyze: performance-model breakdown                                *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let run kernel target strategy budget common =
    to_ret
    @@ let* e = find_kernel kernel in
       let* _, t = target_of_string target in
       let* strat =
         if strategy = "none" then Ok None
         else Result.map Option.some (parse_strategy budget strategy)
       in
       with_common common @@ fun ~ctx ~db:_ ->
       let sched =
         match strat with
         | None -> e.build ()
         | Some strat -> (Perfdojo.optimize_ctx ~ctx strat t (e.build ())).schedule
       in
       Printf.printf "kernel:   %s (%s), schedule: %s\n" e.label e.shape_desc
         strategy;
       Printf.printf "target:   %s\n" (Machine.Desc.target_name t);
       Printf.printf "runtime:  %.3e s   (%.2f GFLOP/s)\n"
         (Machine.time t sched) (Machine.gflops t sched);
       (match t with
       | Machine.Desc.Cpu c ->
           let b = Machine.Cpu_model.breakdown c sched in
           let cycles = Float.max b.comp b.mem +. b.ovh in
           Printf.printf
             "cycles:   %.3e   compute %.3e (%.0f%%)  memory %.3e (%.0f%%)  \
              overhead %.3e (%.0f%%)\n"
             cycles b.comp
             (100. *. b.comp /. cycles)
             b.mem
             (100. *. b.mem /. cycles)
             b.ovh
             (100. *. b.ovh /. cycles);
           Printf.printf "bound:    %s\n"
             (if b.mem > b.comp then "memory" else "compute")
       | Machine.Desc.Snitch sn ->
           let cycles = Machine.Snitch_sim.cycles sn sched in
           Printf.printf "cycles:   %.3e   fraction of peak: %.3f\n" cycles
             (Machine.Snitch_sim.peak_fraction sn sched)
       | Machine.Desc.Gpu g ->
           (* report per grid-mapped kernel *)
           let idx = ref 0 in
           Ir.Prog.iter_nodes
             (fun path node ->
               match node with
               | Ir.Types.Scope sc when sc.annot = Ir.Types.GpuGrid ->
                   let depth = Ir.Prog.depth_of_path sched path in
                   let st =
                     Machine.Gpu_model.analyze_kernel g sched depth sc
                   in
                   Printf.printf
                     "kernel %d: %.3e flops, %.3e B traffic, %.0f threads, \
                      wavefront eff %.2f, vectorized %b\n"
                     !idx st.flops st.traffic_bytes st.total_threads
                     st.wave_eff st.vectorized;
                   incr idx
               | _ -> ())
             sched;
           if !idx = 0 then
             print_endline "no GPU-mapped kernels: everything runs on the host");
       print_endline "\nschedule:";
       print_endline (Ir.Printer.body sched);
       Ok ()
  in
  let strategy_arg =
    let doc = "Schedule to analyze: none (naive) or any optimize strategy." in
    Arg.(value & opt string "none" & info [ "strategy"; "s" ] ~docv:"S" ~doc)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Explain where the modelled time goes (compute / memory / \
          overhead; per-GPU-kernel stats) for a kernel's naive or \
          optimized schedule.")
    Term.(
      ret
        (const run $ kernel_arg $ target_arg $ strategy_arg $ budget_arg
       $ common_opts))

(* ------------------------------------------------------------------ *)
(* lib generate: the automated library generation pipeline             *)
(* ------------------------------------------------------------------ *)

(* The paper's end product: optimize every (kernel, target) pair of the
   suite and emit a C library — one translation unit per pair, an
   umbrella header and a canonical manifest.json.  The heavy lifting
   (incremental skips, parallel pairs, degradation) is Libgen.generate;
   this command only parses the selection and prints the summary. *)
let lib_generate_cmd =
  let run targets kernel_labels strategy budget out force common =
    to_ret
    @@ let resolve_all f names =
         List.fold_left
           (fun acc name ->
             let* acc = acc in
             let* x = f name in
             Ok (x :: acc))
           (Ok []) names
         |> Result.map List.rev
       in
       let* _ = resolve_all target_of_string targets in
       let* strat =
         match strategy with
         | None -> Ok None (* Libgen's default: annealing, budget 300 *)
         | Some s -> Result.map Option.some (parse_strategy budget s)
       in
       let* kernels =
         match kernel_labels with
         | None -> Ok None
         | Some labels -> Result.map Option.some (resolve_all find_kernel labels)
       in
       with_common common @@ fun ~ctx ~db ->
       let lib =
         Libgen.generate ?kernels ?strategy:strat ?db
           ?db_file:common.co_db ~force ~ctx ~targets ~out ()
       in
       List.iter
         (fun (en : Libgen.entry) ->
           Printf.printf "%-9s %-14s %-8s %.3e s (%6.2fx)%s\n"
             (Libgen.status_name en.status)
             en.kernel en.target en.time_s
             (if en.time_s > 0. then en.naive_s /. en.time_s else 0.)
             (match en.error with None -> "" | Some msg -> "  [" ^ msg ^ "]"))
         lib.entries;
       Printf.printf
         "\nlibrary written to %s/ (%d entries: %d fresh, %d skipped, %d \
          degraded)\n"
         lib.out_dir
         (List.length lib.entries)
         lib.fresh lib.skipped lib.degraded;
       Printf.printf "header:     %s\nmanifest:   manifest.json\n" lib.header;
       (match common.co_db with
       | Some f ->
           Option.iter
             (fun d ->
               Printf.printf "db:         %s (%d records)\n" f
                 (Tuning.Db.size d))
             db
       | None -> ());
       if lib.degraded > 0 then
         Error
           ( false,
             Printf.sprintf "%d pair(s) degraded to the naive schedule"
               lib.degraded )
       else Ok ()
  in
  let targets_arg =
    let doc =
      "Target machine(s); repeatable.  "
      ^ String.concat ", " known_target_names ^ "."
    in
    Arg.(
      value
      & opt_all string [ "x86" ]
      & info [ "target"; "t" ] ~docv:"TARGET" ~doc)
  in
  let kernels_arg =
    let doc =
      "Comma-separated kernel labels to generate (default: the whole \
       suite)."
    in
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "kernels"; "k" ] ~docv:"K1,K2,..." ~doc)
  in
  let strategy_arg =
    let doc =
      "Strategy for fresh pairs (default: annealing — its winners are \
       move-replayable, so the next run skips them)."
    in
    Arg.(
      value & opt (some string) None & info [ "strategy"; "s" ] ~docv:"S" ~doc)
  in
  let out_arg =
    Arg.(
      value & opt string "perfdojo_lib"
      & info [ "out"; "o" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let force_arg =
    Arg.(
      value & flag
      & info [ "force" ]
          ~doc:
            "Re-optimize pairs whose database record is up to date \
             (records still warm-start the searches).")
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Generate an optimized C library: optimize every (kernel, \
          target) pair — incrementally against the tuning database, in \
          parallel under --jobs, degrading failed pairs to their naive \
          schedules — and emit C sources, an umbrella header and a \
          canonical manifest.json.")
    Term.(
      ret
        (const run $ targets_arg $ kernels_arg $ strategy_arg $ budget_arg
       $ out_arg $ force_arg $ common_opts))

let lib_cmd =
  Cmd.group
    (Cmd.info "lib" ~doc:"Generate optimized kernel libraries.")
    [ lib_generate_cmd ]

(* ------------------------------------------------------------------ *)
(* serve: the tuning service                                           *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc = "Unix-domain socket path of the tuning service." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let deadline_arg =
  let doc =
    "Per-request queueing deadline in milliseconds; a request still \
     pending past it is answered with a typed deadline error.  0 \
     disables the deadline."
  in
  Arg.(value & opt int 0 & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let serve_cmd =
  let run socket pipe queue_depth deadline_ms fuel budget (c : common) =
    to_ret
    @@ let* faults = check_search_opts c in
       let* () =
         if queue_depth < 1 then Error (true, "--queue-depth must be >= 1")
         else Ok ()
       in
       let* () =
         match c.co_surrogate with
         | Some f when f <> "" ->
             Error
               ( true,
                 "serve shares one fresh model across requests; \
                  --surrogate takes no FILE here" )
         | _ when c.co_checkpoint <> None || c.co_resume || c.co_composites <> []
           ->
             (* recovery is the database journal, and warm generates
                replay records under each target's plain caps *)
             Error
               (true, "serve takes no --checkpoint, --resume or --composites")
         | _ -> Ok ()
       in
       let* transport =
         match (socket, pipe) with
         | Some path, false -> Ok (`Socket path)
         | None, true -> Ok `Pipe
         | Some _, true ->
             Error (true, "--socket and --pipe are mutually exclusive")
         | None, false -> Error (true, "serve needs --socket PATH or --pipe")
       in
       let trace_oc = Option.map open_out c.co_trace in
       let obs =
         match trace_oc with
         | None -> Obs.Trace.null
         | Some oc -> Obs.Trace.to_channel oc
       in
       let metrics =
         if c.co_stats then Some (Obs.Metrics.create ()) else None
       in
       let cfg =
         {
           Serve.Server.default_config with
           queue_depth;
           workers = max 1 c.co_jobs;
           default_budget = budget;
           deadline_ms;
           seed = c.co_seed;
           db_file = c.co_db;
           guard =
             { Robust.Guard.default with max_retries = c.co_max_retries; fuel };
           faults;
           obs;
           metrics;
           surrogate = c.co_surrogate <> None;
           filter_ratio = c.co_filter_ratio;
           dedup = c.co_dedup;
           visited_dedup = c.co_visited_dedup;
           exhaustive_depth = c.co_depth;
         }
       in
       (* create raises Failure on an unreadable database and run_socket
          raises Unix_error on an unbindable path — both reach the
          top-level one-line error handler (exit 3) *)
       let server = Serve.Server.create cfg in
       (* SIGINT and SIGTERM both stop the service gracefully on either
          transport: drain in-flight work, checkpoint the database
          and its journal, then exit through the Interrupted path
          (code 4).  The socket loop polls the flag between accepts;
          the pipe loop blocks in a read, so its handler raises to
          unwind the syscall and [stop] runs here. *)
       let interrupted = ref false in
       (match transport with
       | `Pipe ->
           Recover.Interrupt.install_raising ();
           (try Serve.Server.run_pipe server stdin stdout
            with Recover.Interrupt.Interrupted _ ->
              interrupted := true;
              Serve.Server.stop server)
       | `Socket path ->
           Recover.Interrupt.install ();
           Serve.Server.run_socket
             ~should_stop:(fun () -> Recover.Interrupt.requested ())
             ~on_ready:(fun () ->
               Printf.eprintf "perfdojo: serving on %s\n%!" path)
             server path;
           interrupted := Recover.Interrupt.requested ());
       (match trace_oc with Some oc -> close_out oc | None -> ());
       Option.iter (Printf.eprintf "trace:      %s\n") c.co_trace;
       (match metrics with
       | Some m -> Format.printf "%a" Obs.Metrics.pp_summary m
       | None -> ());
       if !interrupted then raise (Recover.Interrupt.Interrupted c.co_db);
       Ok ()
  in
  let pipe_arg =
    Arg.(
      value & flag
      & info [ "pipe" ]
          ~doc:
            "Serve framed requests on stdin/stdout instead of a socket \
             (one request per frame, answered in order) — the transport \
             tests and CI drive.")
  in
  let queue_arg =
    let doc =
      "Admission-control bound on the pending cold-request queue; \
       requests arriving beyond it are rejected immediately with a \
       typed overloaded response."
    in
    Arg.(value & opt int 16 & info [ "queue-depth" ] ~docv:"N" ~doc)
  in
  let fuel_arg =
    let doc =
      "Per-request evaluation fuel; a request that exhausts it degrades \
       to a typed faulted.exhausted error."
    in
    Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the tuning service: warm queries answered from the \
          database in microseconds, cold requests searched on a worker \
          pool under admission control.")
    Term.(
      ret
        (const run $ socket_arg $ pipe_arg $ queue_arg $ deadline_arg
       $ fuel_arg $ budget_arg $ common_opts))

(* ------------------------------------------------------------------ *)
(* client: one request against a running service                       *)
(* ------------------------------------------------------------------ *)

let client_cmd =
  let run socket req kernel target strategy budget deadline_ms force
      timeout_ms retries =
    to_ret
    @@ let* socket =
         match socket with
         | Some s -> Ok s
         | None -> Error (true, "client needs --socket PATH")
       in
       let* () =
         match timeout_ms with
         | Some t when t < 1 -> Error (true, "--timeout-ms must be >= 1")
         | _ -> Ok ()
       in
       let* () =
         if retries < 1 then Error (true, "--retries must be >= 1")
         else Ok ()
       in
       let module P = Serve.Protocol in
       let* request =
         let need_kernel of_kernel =
           match kernel with
           | Some k -> Ok (of_kernel k)
           | None ->
               Error
                 (true, Printf.sprintf "request %S needs a KERNEL argument" req)
         in
         match req with
         | "stats" -> Ok (P.Stats { id = 1 })
         | "shutdown" -> Ok (P.Shutdown { id = 1 })
         | "query" ->
             need_kernel (fun kernel -> P.Query { id = 1; kernel; target })
         | "optimize" ->
             need_kernel (fun kernel ->
                 P.Optimize
                   { id = 1; kernel; target; strategy; budget; deadline_ms;
                     force })
         | "generate" ->
             need_kernel (fun kernel ->
                 P.Generate
                   { id = 1; kernel; target; strategy; budget; deadline_ms })
         | r ->
             Error
               ( true,
                 Printf.sprintf
                   "unknown request %S (optimize, query, generate, stats, \
                    shutdown)"
                   r )
       in
       (* Idempotent requests (all but shutdown) ride the bounded
          exponential-backoff retry over fresh connections, so the
          client survives a server restart mid-session; a still-dead
          server surfaces as the typed transport error after the last
          attempt.  Shutdown is sent exactly once — retrying it could
          stop a freshly restarted server — and its connect errors
          raise Unix_error into the one-line error handler (exit 3). *)
       let response =
         match request with
         | P.Shutdown _ ->
             Serve.Client.with_connection socket (fun conn ->
                 Serve.Client.request ?deadline_ms:timeout_ms conn request)
         | _ ->
             Serve.Client.request_retry ~attempts:retries
               ?deadline_ms:timeout_ms ~socket request
       in
       let* resp =
         match response with
         | Error e -> Error (false, Serve.Client.error_message e)
         | Ok r -> Ok r
       in
       match resp with
       | P.Optimized { kernel; target; warm; time_s; moves; evaluations;
                       failures; _ } ->
           Printf.printf "optimized:  %s @ %s (%s)\n" kernel target
             (if warm then "warm hit" else "cold search");
           Printf.printf "time:       %.3e s (%d evaluations, %d failures)\n"
             time_s evaluations failures;
           if moves <> [] then begin
             print_endline "moves:";
             List.iter (Printf.printf "  %s\n") moves
           end;
           Ok ()
       | P.Queried { kernel; target; found; time_s; moves; _ } ->
           if not found then begin
             Printf.printf "no record for %s @ %s\n" kernel target;
             Ok ()
           end
           else begin
             Printf.printf "recorded:   %s @ %s at %.3e s\n" kernel target
               time_s;
             List.iter (Printf.printf "  %s\n") moves;
             Ok ()
           end
       | P.Generated { kernel; target; warm; time_s; c_entry; c; _ } ->
           (* C on stdout, metadata on stderr, so the output pipes
              straight into a file or a compiler *)
           Printf.eprintf "generated:  %s @ %s -> %s at %.3e s (%s)\n" kernel
             target c_entry time_s
             (if warm then "warm hit" else "cold search");
           print_string c;
           Ok ()
       | P.Stats_reply { counters; gauges; _ } ->
           List.iter (fun (k, v) -> Printf.printf "%-32s %d\n" k v) counters;
           List.iter (fun (k, v) -> Printf.printf "%-32s %g\n" k v) gauges;
           Ok ()
       | P.Shutdown_ack { records; _ } ->
           Printf.printf "server stopped; %d records checkpointed\n" records;
           Ok ()
       | P.Error { code; msg; _ } ->
           Error
             ( false,
               Printf.sprintf "server: %s: %s" (P.error_code_name code) msg )
  in
  let req_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQUEST"
          ~doc:"One of optimize, query, generate, stats, shutdown.")
  in
  let client_kernel_arg =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"KERNEL")
  in
  let force_arg =
    Arg.(
      value & flag
      & info [ "force" ]
          ~doc:"Search even when a warm database record exists.")
  in
  let timeout_arg =
    let doc =
      "Client-side response deadline in milliseconds: a request whose \
       reply does not arrive in time fails with a typed timeout \
       instead of blocking forever on a hung server.  The server may \
       still have executed it."
    in
    Arg.(
      value & opt (some int) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let retries_arg =
    let doc =
      "Total connection attempts for idempotent requests (everything \
       but shutdown), with exponential backoff between them — rides \
       out a server restart.  1 (default) never retries."
    in
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running tuning service and print the \
             response.")
    Term.(
      ret
        (const run $ socket_arg $ req_arg $ client_kernel_arg $ target_arg
       $ strategy_arg $ budget_arg $ deadline_arg $ force_arg
       $ timeout_arg $ retries_arg))

(* ------------------------------------------------------------------ *)
(* script: the versioned schedule-script format (.pds)                  *)
(* ------------------------------------------------------------------ *)

let read_all ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  Buffer.contents buf

let script_run_cmd =
  let run file kernel target db_file emit_c =
    to_ret
    @@ let* text =
         if file = "-" then Ok (read_all stdin)
         else
           try
             let ic = open_in file in
             let t = read_all ic in
             close_in ic;
             Ok t
           with Sys_error msg -> Error (false, msg)
       in
       let* script =
         match Transfo.Script.parse text with
         | Ok s -> Ok s
         | Error msg -> Error (false, Printf.sprintf "%s: %s" file msg)
       in
       (* explicit flags override the script's own kernel/target headers *)
       let* kernel_name =
         match (kernel, script.Transfo.Script.kernel) with
         | Some k, _ | None, Some k -> Ok k
         | None, None ->
             Error
               ( true,
                 "script names no kernel; pass --kernel (or add a \
                  'kernel NAME' line)" )
       in
       let target_name =
         match (target, script.Transfo.Script.ktarget) with
         | Some t, _ | None, Some t -> t
         | None, None -> "x86"
       in
       let* e = find_kernel kernel_name in
       let* tname, t = target_of_string target_name in
       (* every registered composite is in scope: a script names its
          transformations explicitly, so there is nothing to opt into *)
       let caps = Transfo.Composites.enable ~names:[ "all" ] (Machine.caps t) in
       let p = e.build () in
       match Transfo.Script.run caps p script with
       | Error err ->
           Error (false, Transfo.Script.run_error_to_string err)
       | Ok (result, provenance) ->
           Printf.printf "script:     %s (%d statements, %d atomic moves)\n"
             file
             (List.length script.Transfo.Script.stmts)
             (List.length provenance);
           Printf.printf "kernel:     %s (%s)\n" e.label e.shape_desc;
           Printf.printf "target:     %s\n" (Machine.Desc.target_name t);
           Printf.printf "runtime:    %.3e s -> %.3e s (%.2fx)\n"
             (Machine.time t p) (Machine.time t result)
             (Machine.time t p /. Machine.time t result);
           Printf.printf "fingerprint: %s\n"
             (Tuning.Record.fingerprint result);
           (* --db: check the script lands exactly on the recorded best *)
           let* () =
             match db_file with
             | None -> Ok ()
             | Some f -> (
                 let* db = load_db f in
                 match
                   Tuning.Warmstart.lookup db ~kernel:e.label ~target:tname
                     ~keys:(Tuning.Record.root_keys p)
                 with
                 | None ->
                     Printf.printf
                       "db:         no record for %s on %s in %s\n" e.label
                       tname f;
                     Ok ()
                 | Some r ->
                     let* replayed =
                       Result.map_error
                         (fun msg ->
                           (false, "recorded best does not replay: " ^ msg))
                         (Search.Stochastic.replay_exact caps p r.moves)
                     in
                     if
                       String.equal
                         (Ir.Printer.program replayed)
                         (Ir.Printer.program result)
                       && String.equal
                            (Tuning.Record.fingerprint replayed)
                            (Tuning.Record.fingerprint result)
                     then begin
                       Printf.printf
                         "db:         matches recorded best byte-for-byte \
                          (%.3e s)\n"
                         r.best_time;
                       Ok ()
                     end
                     else
                       Error
                         ( false,
                           Printf.sprintf
                             "script result differs from the recorded best \
                              (%s vs %s)"
                             (Tuning.Record.fingerprint result)
                             (Tuning.Record.fingerprint replayed) ))
           in
           print_endline "schedule:";
           print_endline (Ir.Printer.body result);
           if emit_c then begin
             print_endline "/* generated C */";
             print_string (Codegen.program result)
           end;
           Ok ()
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let kernel_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "kernel"; "k" ] ~docv:"KERNEL"
          ~doc:"Kernel to apply the script to (overrides the script header).")
  in
  let target_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "target"; "t" ] ~docv:"TARGET"
          ~doc:"Target machine (overrides the script header).")
  in
  let db_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "db" ] ~docv:"FILE"
          ~doc:
            "Compare the script's result against the database's recorded \
             best for this kernel/target; fails unless they match \
             byte-for-byte.")
  in
  let c_arg =
    Arg.(value & flag & info [ "c" ] ~doc:"Also print the generated C.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute a schedule script (.pds): resolve each selector, apply \
          each named transformation all-or-nothing, print the resulting \
          schedule.  FILE may be '-' for stdin.")
    Term.(
      ret (const run $ file_arg $ kernel_opt $ target_opt $ db_opt $ c_arg))

let script_export_cmd =
  let run db_file kernel target =
    to_ret
    @@ let* db = load_db db_file in
       let* tname, _ = target_of_string target in
       match Tuning.Db.best db ~kernel ~target:tname with
       | None ->
           Error
             ( false,
               Printf.sprintf "no record for %s on %s in %s" kernel tname
                 db_file )
       | Some r ->
           (match r.Tuning.Record.script with
           | Some s -> print_string s
           | None ->
               (* pre-script record: derive the script from the recorded
                  moves — same conversion the database write path uses *)
               Printf.eprintf
                 "note: record predates script provenance (schema %d); \
                  deriving the script from its recorded moves\n"
                 r.Tuning.Record.schema;
               print_string
                 (Transfo.Script.to_string
                    (Transfo.Script.of_moves ~kernel:r.Tuning.Record.kernel
                       ~ktarget:r.Tuning.Record.target r.Tuning.Record.moves)));
           Ok ()
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Print the recorded best schedule for a kernel/target as a \
          schedule script (.pds) on stdout, replayable with `perfdojo \
          script run`.")
    Term.(ret (const run $ db_file_arg $ kernel_arg $ target_arg))

let script_list_cmd =
  let run () =
    print_endline "composite transformations (usable in scripts and with \
                   --composites):";
    List.iter
      (fun (c : Transfo.Composites.composite) ->
        let params =
          if c.params = [] then ""
          else
            "("
            ^ String.concat ", " (List.map (fun (k, _) -> k ^ "=N") c.params)
            ^ ")"
        in
        Printf.printf "  %-24s %s\n" (c.cname ^ params) c.doc;
        List.iter
          (fun (k, d) -> Printf.printf "      %-8s %s\n" k d)
          c.params)
      Transfo.Composites.all
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:
         "List the registered composite transformations with their \
          parameters.")
    Term.(const run $ const ())

let script_cmd =
  Cmd.group
    (Cmd.info "script"
       ~doc:
         "Work with schedule scripts (.pds): versioned, human-readable \
          selector-targeted schedules that replace raw move indices.")
    [ script_run_cmd; script_export_cmd; script_list_cmd ]

(* Uncaught exceptions must not dump a raw backtrace at the user: every
   predictable failure becomes a one-line `perfdojo: error: ...` on
   stderr and a non-zero exit.  PERFDOJO_DEBUG=1 re-raises instead (with
   backtrace recording on), for actual debugging. *)
let describe_exn = function
  | Sys_error msg -> Some msg
  | Unix.Unix_error (err, fn, arg) ->
      Some
        (Printf.sprintf "%s%s: %s" fn
           (if arg = "" then "" else " " ^ arg)
           (Unix.error_message err))
  | Ir.Validate.Invalid errs ->
      Some
        ("invalid program: "
        ^ String.concat "; " (List.map Ir.Validate.error_to_string errs))
  | Ir.Parser.Parse_error msg -> Some ("parse error: " ^ msg)
  | Perfdojo.Portfolio_failed members ->
      Some
        ("every portfolio member failed: "
        ^ String.concat "; "
            (List.map (fun (label, e) -> label ^ ": " ^ e) members))
  | Failure msg | Invalid_argument msg -> Some msg
  | _ -> None

let () =
  let doc = "PerfDojo: transformation-centric kernel optimization." in
  let info = Cmd.info "perfdojo" ~version:"1.0.0" ~doc in
  let debug = Sys.getenv_opt "PERFDOJO_DEBUG" = Some "1" in
  if debug then Printexc.record_backtrace true;
  (* catch:false: Cmdliner would otherwise swallow body exceptions into
     its own backtrace box; we want the one-line rendering below (or a
     real backtrace under PERFDOJO_DEBUG=1). *)
  let eval () =
    Cmd.eval ~catch:false
      (Cmd.group info
         [
           kernel_cmd; lib_cmd; db_cmd; model_cmd; script_cmd; serve_cmd;
           client_cmd; targets_cmd; optimize_cmd; verify_cmd; game_cmd;
           replay_cmd; analyze_cmd;
         ])
  in
  (* SIGINT/SIGTERM land here after the engine's final checkpoint:
     one line naming the file, exit 4 — distinct from error (3) and
     from the second-signal immediate exit (130) — so wrappers can
     tell "resume me" from "I failed". *)
  let interrupted path =
    (match path with
    | Some p ->
        Printf.eprintf "perfdojo: interrupted, checkpoint written to %s\n" p
    | None -> Printf.eprintf "perfdojo: interrupted\n");
    4
  in
  let code =
    if debug then
      match eval () with
      | code -> code
      | exception Recover.Interrupt.Interrupted path -> interrupted path
    else
      match eval () with
      | code -> code
      | exception Recover.Interrupt.Interrupted path -> interrupted path
      | exception Recover.Error e ->
          Printf.eprintf "perfdojo: error: %s\n" (Recover.error_message e);
          3
      | exception e ->
          let msg =
            match describe_exn e with
            | Some msg -> msg
            | None -> Printexc.to_string e
          in
          Printf.eprintf "perfdojo: error: %s\n" msg;
          3
  in
  exit code
