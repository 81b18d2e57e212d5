(* libgen_suite: the whole operator library, as
   `perfdojo lib generate --db FILE -t x86 -t snitch -t gh200` builds it.

   The default 24 kernels on three targets (72 pairs), the default
   strategy (heuristic annealing, budget 300), one worker, a shared
   Tuning.Cache and a database file in a fresh directory.  Each of two
   rounds makes one cold generation into an empty database, then warm
   regenerations from the saved file until its half of the run's time is
   up — each loads the file afresh and skips every pair, as a rerun of
   the command does.

   Ops: a pair generated cold (search), and a warm regeneration of the
   whole library. *)

open Harness

let target_names = [ "x86"; "snitch"; "gh200" ]

let targets = List.map (fun n -> (n, target n)) target_names

(* The library is fixed; the seed draws the interpreter's inputs for the
   equivalence checks.  (Reordering the kernels changes the allocation
   pattern and so the peak RSS, not the work.) *)
let kernels = Libgen.default_kernels ()

let micro_labels = List.map (fun (k : Kernels.entry) -> k.label) Kernels.snitch_micro

type env = {
  db : Tuning.Db.t;
  db_file : string;
  cache : Tuning.Cache.t;
  out : string;
}

(* Set-up, as the command performs it before generating: load the
   database file (missing on the first run) and create the cache. *)
let open_env dir =
  let db_file = Filename.concat dir "db.jsonl" in
  match Tuning.Db.load db_file with
  | Error msg -> failwith msg
  | Ok db ->
      { db; db_file; cache = Tuning.Cache.create (); out = Filename.concat dir "lib" }

let generate env ~kernels =
  Libgen.generate ~kernels ~db:env.db ~db_file:env.db_file
    ~ctx:Perfdojo.Ctx.(default |> with_cache env.cache)
    ~targets:target_names ~out:env.out ()

let manifest env = read_file (Filename.concat env.out "manifest.json")

(* Output checks on a cold library: every pair fresh and recorded; on a
   regeneration: every pair skipped with the cold schedule.  Either way
   each entry's moves replay to its time, the interpreter-sized
   Snitch-micro entries compute what their naive kernel does, and each
   C file declares its entry point.  Returns the failing entry count. *)
let check ~seed env ~(cold : Libgen.library option)
    (lib : Libgen.library) =
  let roots = Hashtbl.create 32 in
  List.iter
    (fun (k : Kernels.entry) -> Hashtbl.replace roots k.label (k.build ()))
    kernels;
  List.fold_left
    (fun bad (e : Libgen.entry) ->
      let ok =
        let target = List.assoc e.target targets in
        let root = Hashtbl.find roots e.kernel in
        let sched, applied =
          Tuning.Warmstart.replay (Machine.caps target) root e.moves
        in
        let status_ok =
          match cold with
          | None -> e.status = Libgen.Fresh && e.recorded
          | Some c ->
              e.status = Libgen.Skipped
              && List.exists
                   (fun (f : Libgen.entry) ->
                     f.kernel = e.kernel && f.target = e.target
                     && f.moves = e.moves && f.time_s = e.time_s)
                   c.entries
        in
        status_ok && e.error = None && applied = e.moves
        && Machine.time target sched = e.time_s
        && ((not (List.mem e.kernel micro_labels))
           || Interp.equivalent ~seed root sched = Ok ())
        && contains
             ~sub:("void " ^ e.c_entry ^ "(")
             (read_file (Filename.concat env.out e.c_file))
      in
      if ok then bad else bad + 1)
    0 lib.entries

let speedup (lib : Libgen.library) =
  geomean (List.map (fun (e : Libgen.entry) -> e.naive_s /. e.time_s) lib.entries)

(* Rounds of one cold generation into a fresh directory followed by
   regenerations from it.  Two rounds spread the warm samples over the
   run: one block of them follows whatever the host was doing then. *)
let n_rounds = 2

(* per round; ten samples beyond the printed p90 in all *)
let min_regens = 50

let measure ~seed ~seconds =
  let setups = ref [] in
  let setup () =
    let dir = fresh_dir "setup" in
    snd (time (fun () -> open_env dir))
  in
  let start = now () in
  (* the first regeneration's library and manifest; every later one must
     emit the same manifest *)
  let first_warm = ref None in
  let round i =
    sample_setups setups setup;
    let dir = fresh_dir (Printf.sprintf "round%d" i) in
    let env = open_env dir in
    let lib, dt = time (fun () -> generate env ~kernels) in
    let text = manifest env in
    (* before the regenerations overwrite its C files *)
    let bad = if i = 0 then check ~seed env ~cold:None lib else 0 in
    (* a rerun of the command starts from a fresh heap *)
    Gc.compact ();
    let deadline = start +. (seconds *. float_of_int (i + 1) /. float_of_int n_rounds) in
    let rec regen n acc =
      if n >= min_regens && now () >= deadline then List.rev acc
      else begin
        if n mod 20 = 19 then sample_setups setups setup;
        let (lib : Libgen.library), dt = time (fun () -> generate (open_env dir) ~kernels) in
        let json = Libgen.manifest_json lib in
        let same =
          match !first_warm with
          | None ->
              first_warm := Some (lib, json);
              true
          | Some (_, first) -> json = first
        in
        regen (n + 1) ((dt, same) :: acc)
      end
    in
    (dir, lib, dt, text, bad, regen 0 [])
  in
  let rounds = List.init n_rounds round in
  let dir, cold, _, cold_manifest, bad_cold, _ = List.hd rounds in
  if List.exists (fun (_, _, _, m, _, _) -> m <> cold_manifest) rounds then
    raise (Nondeterministic "libgen_suite: a cold generation differed");
  let pairs = List.length cold.entries in
  let regens = List.concat_map (fun (_, _, _, _, _, r) -> r) rounds in
  let bad_later = List.length (List.filter (fun (_, same) -> not same) regens) in
  let first_warm = fst (Option.get !first_warm) in
  let warm_env = open_env dir in
  let warm_manifest = manifest warm_env in
  let speedup = speedup cold in
  check_determinism ~workload:"libgen_suite" ~seed ~what:"manifests"
    (Digest.to_hex (Digest.string (cold_manifest ^ warm_manifest))
    ^ "|" ^ float_bits speedup);
  let bad_warm = check ~seed warm_env ~cold:(Some cold) first_warm in
  let warm_us = Array.of_list (List.map (fun (dt, _) -> dt *. 1e6) regens) in
  let n_regen = List.length regens in
  let attempted = pairs * (List.length rounds + n_regen) in
  let failed = bad_cold + bad_warm + (pairs * bad_later) in
  let evaluations =
    List.fold_left (fun a (e : Libgen.entry) -> a + e.evaluations) 0 cold.entries
  in
  {
    attempted;
    failed;
    metrics =
      [
        metric ~samples:(List.length !setups) "setup_s" "s" (median !setups);
        metric "peak_rss_mb" "MB" (peak_rss_mb ());
        ok_ratio ~attempted ~failed;
        metric ~samples:pairs "speedup_geomean" "x" speedup;
        metric ~samples:(List.length rounds * evaluations) "states_per_s" "1/s"
          (median (List.map (fun (_, _, dt, _, _, _) -> float_of_int evaluations /. dt) rounds));
        metric ~samples:(List.length rounds * cold.fresh) "pairs_per_s" "1/s"
          (median (List.map (fun (_, _, dt, _, _, _) -> float_of_int cold.fresh /. dt) rounds));
        metric ~samples:n_regen "warm_p50_us" "us"
          (percentile ~what:"regeneration" 0.5 warm_us);
      ];
    notes =
      [
        ( "cold generations",
          String.concat ", "
            (List.map
               (fun (_, (lib : Libgen.library), dt, _, _, _) ->
                 Printf.sprintf "%d fresh pairs in %.3f s" lib.fresh dt)
               rounds) );
        ("regenerations", string_of_int n_regen);
        ( "regeneration ms",
          Printf.sprintf "p50 %.3f, p90 %.3f (n=%d)"
            (percentile ~what:"regeneration" 0.5 warm_us /. 1e3)
            (percentile ~what:"regeneration" 0.9 warm_us /. 1e3)
            n_regen );
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced twin                                                         *)
(* ------------------------------------------------------------------ *)

let span = Spans.span

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let sanitize =
  String.map (function
    | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c
    | _ -> '_')

let save db file = span "tuning.db_save" (fun () -> Tuning.Db.save db file)

(* Libgen.generate's sequential path (one worker, no ledger), re-driven
   through the layers: plan (roots, keys, naive times, database
   decisions), annealing of the fresh pairs, then deposits and emission
   in pair order, header, manifest and the final save. *)
let twin_generate env ~kernels : Libgen.library =
  Harness.mkdir_p env.out;
  let plan =
    List.concat_map
      (fun (tname, t) ->
        List.map
          (fun (e : Kernels.entry) ->
            let root = e.build () in
            let keys = span "tuning.root_keys" (fun () -> Tuning.Record.root_keys root) in
            let naive_s = Twins.model tname t root in
            let best =
              span "tuning.db_query" (fun () ->
                  Tuning.Db.best env.db ~kernel:e.label ~target:tname)
            in
            let item =
              match best with
              | Some r when Tuning.Record.matches_root ~keys r ->
                  let sched, applied = Twins.replay (Machine.caps t) root r.moves in
                  if applied = r.moves then Some (r, sched) else None
              | _ -> None
            in
            (tname, t, e, root, fst keys, naive_s, item))
          kernels)
      targets
  in
  let fresh =
    List.filter_map
      (fun (tname, t, _, root, _, _, item) ->
        match item with
        | Some _ -> None
        | None ->
            Some
              (Twins.anneal ~seed:1 ~budget:300 (Machine.caps t)
                 (Twins.cached_model env.cache ~tname t)
                 root))
      plan
  in
  let fresh = ref fresh in
  let strategy = "annealing/heuristic" in
  let entries =
    List.map
      (fun (tname, t, (e : Kernels.entry), root, fp, naive_s, item) ->
        let base = sanitize e.label ^ "_" ^ tname in
        let c_file = base ^ ".c" and c_entry = "perfdojo_" ^ base in
        let status, strategy, moves, time_s, evaluations, failures, sched =
          match item with
          | Some (r, sched) ->
              (Libgen.Skipped, "db", r.Tuning.Record.moves, Twins.model tname t sched, 0, 0, sched)
          | None ->
              let o = List.hd !fresh in
              fresh := List.tl !fresh;
              (match
                 span "tuning.record_of" (fun () ->
                     Tuning.Warmstart.record_of ~objective:(Machine.time t)
                       ~caps:(Machine.caps t) ~kernel:e.label ~target:tname ~root
                       ~moves:o.best.moves ~evals:o.evaluations)
               with
              | Ok r when r.best_time <= o.best.runtime *. (1. +. 1e-9) ->
                  ignore (Tuning.Db.add env.db r);
                  save env.db env.db_file
              | _ -> failwith ("twin: no record for " ^ e.label));
              ( Libgen.Fresh, strategy, o.best.moves, o.best.runtime, o.evaluations,
                o.anneal_failures, o.best.prog )
        in
        let banner =
          Printf.sprintf
            "/* %s (%s) on %s: %s\n\
            \   status %s via %s; modelled %.3e s (%.2fx over naive)\n\
            \   fingerprint %s */\n"
            e.label e.shape_desc tname e.description (Libgen.status_name status)
            strategy time_s
            (if time_s > 0. then naive_s /. time_s else 0.)
            fp
        in
        let c = span "codegen.program" (fun () -> Codegen.program ~entry:c_entry sched) in
        write_file (Filename.concat env.out c_file) (banner ^ c);
        {
          Libgen.kernel = e.label;
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
          recorded = true;
          c_file;
          c_entry;
          error = None;
        })
      plan
  in
  let count st = List.length (List.filter (fun (e : Libgen.entry) -> e.status = st) entries) in
  let header = "perfdojo.h" in
  let hbuf = Buffer.create 1024 in
  Buffer.add_string hbuf
    (Printf.sprintf
       "/* PerfDojo generated library: %d entries (%s).  Do not edit. */\n\
        #ifndef PERFDOJO_LIB_H\n\
        #define PERFDOJO_LIB_H\n\n"
       (List.length entries) (String.concat ", " target_names));
  List.iter
    (fun (en : Libgen.entry) ->
      Buffer.add_string hbuf
        (Printf.sprintf "/* %s (%s) on %s: %.3e s modelled, %s */\nvoid %s(void);\n"
           en.kernel en.shape en.target en.time_s (Libgen.status_name en.status)
           en.c_entry))
    entries;
  Buffer.add_string hbuf "\n#endif /* PERFDOJO_LIB_H */\n";
  write_file (Filename.concat env.out header) (Buffer.contents hbuf);
  let lib =
    {
      Libgen.out_dir = env.out;
      header;
      entries;
      fresh = count Libgen.Fresh;
      skipped = count Libgen.Skipped;
      degraded = 0;
    }
  in
  write_file (Filename.concat env.out "manifest.json")
    (Util.Json.to_string (Libgen.manifest_json lib) ^ "\n");
  save env.db env.db_file;
  lib

let trace_regens = 20

(* Every file a generation left in its output directory. *)
let emitted dir =
  let out = Filename.concat dir "lib" in
  let files = Sys.readdir out in
  Array.sort compare files;
  Array.to_list (Array.map (fun f -> (f, read_file (Filename.concat out f))) files)

let trace ~seed =
  let real_dir = fresh_dir "real" and twin_dir = fresh_dir "twin" in
  (* untraced reference: one cold generation and its regenerations *)
  let (real_manifests, real_db, cold), wall_u =
    time (fun () ->
        let env = open_env real_dir in
        let cold = generate env ~kernels in
        let cold_manifest = manifest env in
        let db = read_file env.db_file in
        let warm =
          List.init trace_regens (fun _ ->
              let env = open_env (Filename.dirname env.db_file) in
              ignore (generate env ~kernels);
              manifest env)
        in
        (cold_manifest :: warm, db, cold))
  in
  check_determinism ~workload:"libgen_suite" ~seed ~what:"manifests"
    (Digest.to_hex (Digest.string (List.nth real_manifests 0 ^ List.nth real_manifests 1))
    ^ "|" ^ float_bits (speedup cold));
  let (twin_manifests, twin_db, hits, misses), wall_t =
    Spans.traced (fun () ->
        let env = open_env twin_dir in
        ignore (twin_generate env ~kernels);
        let cold_manifest = manifest env in
        let db = read_file env.db_file in
        let hits = Tuning.Cache.hits env.cache and misses = Tuning.Cache.misses env.cache in
        let warm =
          List.init trace_regens (fun _ ->
              let env =
                span "tuning.db_load" (fun () -> open_env (Filename.dirname env.db_file))
              in
              ignore (twin_generate env ~kernels);
              manifest env)
        in
        (cold_manifest :: warm, db, hits, misses))
  in
  (* the manifests, the database file and the final C library *)
  let mismatched =
    List.length (List.filter Fun.id (List.map2 ( <> ) real_manifests twin_manifests))
    + (if real_db = twin_db then 0 else 1)
    + if emitted real_dir = emitted twin_dir then 0 else 1
  in
  {
    ops = List.length real_manifests + 2;
    mismatched;
    traced_s = wall_t;
    same_work_s = (wall_u, wall_t);
    failures =
      List.fold_left (fun a (e : Libgen.entry) -> a + e.failures) 0 cold.entries;
    extra =
      [
        metric ~samples:(hits + misses) "tuning.cache.hit_ratio" "ratio"
          (float_of_int hits /. float_of_int (max 1 (hits + misses)));
      ];
  }
