(* Tests for the batch library generator: manifest determinism across
   --jobs, incremental fingerprint skips, degraded-pair flagging and
   database deposits. *)

open Perfdojo

let all = Libgen.default_kernels ()
let pick labels = List.map (Kernels.find_entry all) labels

(* small shapes keep every test run under a second *)
let small = pick [ "axpy"; "scale"; "sum2d"; "softmax_micro" ]
let strat = Annealing { budget = 30; space = Search.Stochastic.Heuristic }

(* each test binary runs in its own dune sandbox, so plain relative
   directories are private to this run *)
let counter = ref 0

let fresh_dir name =
  incr counter;
  Printf.sprintf "libgen_%s_%d" name !counter

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let gen ?kernels ?strategy ?db ?db_file ?force ?(ctx = Ctx.default) ?(targets = [ "x86" ]) out =
  Libgen.generate ?kernels ?strategy ?db ?db_file ?force ~ctx ~targets ~out ()

let ev_name = function
  | Util.Json.Obj (("ev", Util.Json.Str n) :: _) -> n
  | _ -> "?"

let count_events sink name =
  List.length (List.filter (fun e -> ev_name e = name) (Obs.Trace.events sink))

let determinism_tests =
  [
    Alcotest.test_case "manifest and artifacts are byte-equal for jobs 1 vs 4"
      `Quick (fun () ->
        let d1 = fresh_dir "jobs1" and d4 = fresh_dir "jobs4" in
        let lib1 =
          gen ~kernels:small ~strategy:strat ~db:(Tuning.Db.create ())
            ~ctx:Ctx.(default |> with_jobs 1)
            ~targets:[ "x86"; "snitch" ] d1
        in
        let lib4 =
          gen ~kernels:small ~strategy:strat ~db:(Tuning.Db.create ())
            ~ctx:Ctx.(default |> with_jobs 4)
            ~targets:[ "x86"; "snitch" ] d4
        in
        Alcotest.(check int) "all fresh" 8 lib1.Libgen.fresh;
        Alcotest.(check string) "manifest bytes"
          (read_file (Filename.concat d1 "manifest.json"))
          (read_file (Filename.concat d4 "manifest.json"));
        Alcotest.(check string) "header bytes"
          (read_file (Filename.concat d1 lib1.Libgen.header))
          (read_file (Filename.concat d4 lib4.Libgen.header));
        List.iter
          (fun (e : Libgen.entry) ->
            Alcotest.(check string) (e.c_file ^ " bytes")
              (read_file (Filename.concat d1 e.c_file))
              (read_file (Filename.concat d4 e.c_file)))
          lib1.Libgen.entries);
    Alcotest.test_case "manifest_json is the canonical single-line file"
      `Quick (fun () ->
        let d = fresh_dir "canon" in
        let lib = gen ~kernels:small ~strategy:strat d in
        let written = read_file (Filename.concat d "manifest.json") in
        Alcotest.(check string) "file = printer + newline"
          (Util.Json.to_string (Libgen.manifest_json lib) ^ "\n")
          written;
        match Util.Json.of_string written with
        | Ok v ->
            Alcotest.(check string) "round-trips"
              (String.trim written) (Util.Json.to_string v)
        | Error e -> Alcotest.failf "manifest does not re-parse: %s" e);
    Alcotest.test_case "a shared cache across targets changes nothing" `Quick
      (fun () ->
        (* one ctx cache backs every (kernel, target) pair; scoped keys
           (Cache.memoize_scoped) keep the targets' models apart, so
           the artifacts match a cache-free run byte-for-byte *)
        let d_plain = fresh_dir "nocache" and d_cached = fresh_dir "cache" in
        let plain =
          gen ~kernels:small ~strategy:strat ~targets:[ "x86"; "snitch" ]
            d_plain
        in
        let cache = Tuning.Cache.create () in
        let _cached =
          gen ~kernels:small ~strategy:strat
            ~ctx:Ctx.(default |> with_cache cache |> with_jobs 2)
            ~targets:[ "x86"; "snitch" ] d_cached
        in
        Alcotest.(check string) "manifest bytes"
          (read_file (Filename.concat d_plain "manifest.json"))
          (read_file (Filename.concat d_cached "manifest.json"));
        Alcotest.(check bool) "cache was exercised" true
          (Tuning.Cache.misses cache > 0);
        ignore plain);
    Alcotest.test_case "alias targets collapse to one canonical pair" `Quick
      (fun () ->
        let d = fresh_dir "alias" in
        let lib =
          gen
            ~kernels:(pick [ "axpy" ])
            ~strategy:strat
            ~targets:[ "host"; "x86"; "xeon" ]
            d
        in
        Alcotest.(check int) "one entry" 1 (List.length lib.Libgen.entries);
        Alcotest.(check string) "canonical name" "x86"
          (List.hd lib.Libgen.entries).Libgen.target);
    Alcotest.test_case "unknown target raises with the known list" `Quick
      (fun () ->
        let d = fresh_dir "badtarget" in
        match gen ~kernels:small ~targets:[ "pdp11" ] d with
        | _ -> Alcotest.fail "accepted an unknown target"
        | exception Invalid_argument msg ->
            let has sub =
              let n = String.length msg and m = String.length sub in
              let rec go i =
                i + m <= n && (String.sub msg i m = sub || go (i + 1))
              in
              go 0
            in
            Alcotest.(check bool) "names the bad target" true (has "pdp11");
            Alcotest.(check bool) "lists known targets" true (has "snitch"));
  ]

let incremental_tests =
  [
    Alcotest.test_case "a warm database skips every up-to-date pair" `Quick
      (fun () ->
        let db = Tuning.Db.create () in
        let d1 = fresh_dir "cold" and d2 = fresh_dir "warm" in
        let cold =
          gen ~kernels:small ~strategy:strat ~db
            ~targets:[ "x86"; "snitch" ] d1
        in
        Alcotest.(check int) "first run all fresh" 8 cold.Libgen.fresh;
        List.iter
          (fun (e : Libgen.entry) ->
            Alcotest.(check bool) (e.c_file ^ " recorded") true e.recorded)
          cold.Libgen.entries;
        let buf = Obs.Trace.make_buffer () in
        let warm =
          gen ~kernels:small ~strategy:strat ~db
            ~ctx:Ctx.(default |> with_obs buf)
            ~targets:[ "x86"; "snitch" ] d2
        in
        Alcotest.(check int) "second run all skipped" 8 warm.Libgen.skipped;
        Alcotest.(check int) "no fresh pairs" 0 warm.Libgen.fresh;
        Alcotest.(check int) "one libgen.skip event per pair" 8
          (count_events buf "libgen.skip");
        Alcotest.(check int) "no search events folded" 0
          (count_events buf "search.step");
        List.iter2
          (fun (a : Libgen.entry) (b : Libgen.entry) ->
            Alcotest.(check string) "same kernel" a.kernel b.kernel;
            Alcotest.(check (float 0.0)) (a.c_file ^ " same time") a.time_s
              b.time_s;
            Alcotest.(check int) (a.c_file ^ " zero evals") 0 b.evaluations)
          cold.Libgen.entries warm.Libgen.entries);
    Alcotest.test_case "--force re-optimizes despite an up-to-date record"
      `Quick (fun () ->
        let db = Tuning.Db.create () in
        let d1 = fresh_dir "seed" and d2 = fresh_dir "forced" in
        let cold = gen ~kernels:small ~strategy:strat ~db d1 in
        let forced =
          gen ~kernels:small ~strategy:strat ~db ~force:true d2
        in
        Alcotest.(check int) "all fresh again" (List.length small)
          forced.Libgen.fresh;
        (* warm-started from its own record, force can only tie or win *)
        List.iter2
          (fun (a : Libgen.entry) (b : Libgen.entry) ->
            Alcotest.(check bool) (a.c_file ^ " no regression") true
              (b.time_s <= a.time_s +. 1e-12))
          cold.Libgen.entries forced.Libgen.entries);
    Alcotest.test_case "deposited records replay to the manifest times"
      `Quick (fun () ->
        let db = Tuning.Db.create () in
        let d = fresh_dir "deposit" in
        let lib = gen ~kernels:small ~strategy:strat ~db d in
        List.iter
          (fun (e : Libgen.entry) ->
            match Tuning.Db.best db ~kernel:e.kernel ~target:e.target with
            | None -> Alcotest.failf "%s: no record deposited" e.kernel
            | Some r ->
                Alcotest.(check (float 1e-12)) (e.kernel ^ " best_time")
                  e.time_s r.Tuning.Record.best_time;
                Alcotest.(check string) (e.kernel ^ " fingerprint")
                  e.fingerprint r.Tuning.Record.fingerprint)
          lib.Libgen.entries);
    Alcotest.test_case "composite winners deposit and skip on the rerun"
      `Quick (fun () ->
        let db = Tuning.Db.create () in
        let kernels = pick [ "relu_micro"; "sum2d" ] in
        let ctx = Ctx.(default |> with_composites [ "all" ]) in
        let d1 = fresh_dir "macro_cold" and d2 = fresh_dir "macro_warm" in
        let cold = gen ~kernels ~strategy:strat ~db ~ctx d1 in
        List.iter
          (fun (e : Libgen.entry) ->
            Alcotest.(check bool) (e.c_file ^ " recorded") true e.recorded)
          cold.Libgen.entries;
        Alcotest.(check int) "one record per pair" 2 (Tuning.Db.size db);
        (* "composite(tile_and_unroll(f=8,u=8) @ [0])" -> "tile_and_unroll" *)
        let composite_name m =
          let p = String.length "composite(" in
          if String.length m > p && String.sub m 0 p = "composite(" then
            Some (String.sub m p (String.index_from m p '(' - p))
          else None
        in
        let contains affix s =
          let n = String.length affix and m = String.length s in
          let rec go i =
            i + n <= m && (String.sub s i n = affix || go (i + 1))
          in
          go 0
        in
        let macros =
          List.concat_map
            (fun (r : Tuning.Record.t) ->
              List.filter_map
                (fun m -> Option.map (fun n -> (r, n)) (composite_name m))
                r.moves)
            (Tuning.Db.records db)
        in
        Alcotest.(check bool) "a winner used a macro-move" true (macros <> []);
        List.iter
          (fun ((r : Tuning.Record.t), n) ->
            Alcotest.(check bool)
              (r.kernel ^ "'s script names " ^ n)
              true
              (contains ("do " ^ n ^ "(") (Option.value r.script ~default:"")))
          macros;
        let warm = gen ~kernels ~strategy:strat ~db ~ctx d2 in
        Alcotest.(check int) "second run all skipped" 2 warm.Libgen.skipped;
        Alcotest.(check int) "no fresh pairs" 0 warm.Libgen.fresh);
    Alcotest.test_case "a faster foreign record does not hide the pair's own"
      `Quick (fun () ->
        let db = Tuning.Db.create () in
        let kernels = pick [ "scale" ] in
        let d1 = fresh_dir "own" and d2 = fresh_dir "foreign" in
        let own =
          List.hd (gen ~kernels ~strategy:strat ~db d1).Libgen.entries
        in
        (* same (kernel, target), faster, but tuned for another root *)
        ignore
          (Tuning.Db.add db
             (Tuning.Record.make ~kernel:own.kernel ~target:own.target
                ~moves:[ "foreign" ] ~best_time:(own.time_s /. 2.) ~evals:1
                ~root:(Kernels.softmax ~n:8 ~m:8) ()));
        let warm = gen ~kernels ~strategy:strat ~db d2 in
        Alcotest.(check int) "reproduced, not re-searched" 1
          warm.Libgen.skipped;
        let e = List.hd warm.Libgen.entries in
        Alcotest.(check (list string)) "the matching record's moves" own.moves
          e.moves;
        Alcotest.(check (float 0.0)) "the matching record's time" own.time_s
          e.time_s);
    Alcotest.test_case "db_file checkpoints survive a reload" `Quick
      (fun () ->
        let db = Tuning.Db.create () in
        let d = fresh_dir "ckpt" in
        let file = Filename.concat d "tune.jsonl" in
        let _ =
          gen ~kernels:small ~strategy:strat ~db ~db_file:file d
        in
        match Tuning.Db.load file with
        | Error e -> Alcotest.failf "reload failed: %s" e
        | Ok reloaded ->
            Alcotest.(check int) "same size" (Tuning.Db.size db)
              (Tuning.Db.size reloaded));
    Alcotest.test_case "lib generate skips pairs a crashed server acknowledged"
      `Quick (fun () ->
        let file = fresh_dir "served" ^ ".jsonl" in
        List.iter
          (fun f -> if Sys.file_exists f then Sys.remove f)
          [ file; file ^ ".wal" ];
        let server =
          Serve.Server.create
            { Serve.Server.default_config with db_file = Some file }
        in
        List.iteri
          (fun id kernel ->
            match
              Serve.Server.submit server
                (Serve.Protocol.Optimize
                   {
                     id;
                     kernel;
                     target = "x86";
                     strategy = "annealing";
                     budget = 8;
                     deadline_ms = 0;
                     force = false;
                   })
            with
            | Serve.Protocol.Optimized _ -> ()
            | r -> Alcotest.failf "optimize: %s" (Serve.Protocol.response_kind r))
          [ "axpy"; "dot" ];
        (* the server never stops, so it never checkpoints *)
        match Tuning.Db.load file with
        | Error e -> Alcotest.failf "load: %s" e
        | Ok db ->
            let lib =
              gen ~kernels:(pick [ "axpy"; "dot" ])
                ~strategy:
                  (Annealing { budget = 8; space = Search.Stochastic.Heuristic })
                ~db ~db_file:file (fresh_dir "served_lib")
            in
            Alcotest.(check int) "fresh" 0 lib.Libgen.fresh;
            Alcotest.(check int) "skipped" 2 lib.Libgen.skipped);
  ]

let degradation_tests =
  [
    Alcotest.test_case "a crashing strategy degrades every pair, not the run"
      `Quick (fun () ->
        (* budget -1 crashes inside the annealing run: the Error arm of
           Pool.map_result, classified by Robust.Guard.rejected_of_exn *)
        let crash = Annealing { budget = -1; space = Search.Stochastic.Heuristic } in
        let buf = Obs.Trace.make_buffer () in
        let d = fresh_dir "crash" in
        let lib =
          gen ~kernels:small ~strategy:crash
            ~ctx:Ctx.(default |> with_obs buf |> with_jobs 2)
            d
        in
        Alcotest.(check int) "all degraded" (List.length small)
          lib.Libgen.degraded;
        Alcotest.(check int) "degraded events" (List.length small)
          (count_events buf "libgen.degraded");
        List.iter
          (fun (e : Libgen.entry) ->
            Alcotest.(check bool) (e.kernel ^ " flagged") true
              (e.status = Libgen.Degraded && e.error <> None);
            Alcotest.(check bool) (e.kernel ^ " not recorded") false
              e.recorded;
            Alcotest.(check string) (e.kernel ^ " naive fallback") "naive"
              e.strategy;
            Alcotest.(check (float 0.0)) (e.kernel ^ " naive time")
              e.naive_s e.time_s;
            (* the degraded pair still ships a compilable naive C file *)
            Alcotest.(check bool) (e.c_file ^ " emitted") true
              (Sys.file_exists (Filename.concat d e.c_file)))
          lib.Libgen.entries);
    Alcotest.test_case "degraded pairs re-optimize on the next run" `Quick
      (fun () ->
        let db = Tuning.Db.create () in
        let crash = Annealing { budget = -1; space = Search.Stochastic.Heuristic } in
        let d1 = fresh_dir "crash_db" and d2 = fresh_dir "recover" in
        let broken = gen ~kernels:small ~strategy:crash ~db d1 in
        Alcotest.(check int) "nothing recorded" 0 (Tuning.Db.size db);
        Alcotest.(check int) "all degraded" (List.length small)
          broken.Libgen.degraded;
        let recovered = gen ~kernels:small ~strategy:strat ~db d2 in
        Alcotest.(check int) "all fresh after recovery" (List.length small)
          recovered.Libgen.fresh;
        Alcotest.(check int) "all recorded" (List.length small)
          (Tuning.Db.size db));
    Alcotest.test_case "injected faults flag exactly the degraded entries"
      `Quick (fun () ->
        (* permanent quarantine: max_retries 0 keeps transient faults
           from clearing, so a heavily faulted pair can end non-finite *)
        let ctx =
          Ctx.(
            default
            |> with_faults (Robust.Faults.spread ~seed:3 0.5)
            |> with_guard { Robust.Guard.default with max_retries = 0 })
        in
        let d = fresh_dir "faults" in
        let lib = gen ~kernels:small ~strategy:strat ~ctx d in
        Alcotest.(check int) "every pair accounted for" (List.length small)
          (lib.Libgen.fresh + lib.Libgen.degraded);
        List.iter
          (fun (e : Libgen.entry) ->
            match e.Libgen.status with
            | Libgen.Degraded ->
                Alcotest.(check bool) (e.kernel ^ " has error") true
                  (e.error <> None)
            | Libgen.Fresh ->
                Alcotest.(check bool) (e.kernel ^ " no error") true
                  (e.error = None && Float.is_finite e.time_s)
            | Libgen.Skipped -> Alcotest.fail "nothing to skip without a db")
          lib.Libgen.entries);
  ]

let interrupt_tests =
  [
    Alcotest.test_case
      "an interrupt stops exhaustive pairs between pairs, all ledgered fresh"
      `Quick (fun () ->
        (* a per-pair search has no checkpoint of its own, so the pair in
           flight finishes; the suite stops at the next pair boundary *)
        let kernels = pick [ "vecsum"; "relu_micro" ] in
        let ctx = Ctx.(default |> with_exhaustive_depth 2 |> with_jobs 1) in
        let ledger = fresh_dir "interrupt" ^ ".journal" in
        let run ~resume out =
          gen ~kernels ~strategy:Exhaustive
            ~ctx:Ctx.(ctx |> with_checkpoint ledger |> with_resume resume)
            out
        in
        let uninterrupted =
          gen ~kernels ~strategy:Exhaustive ~ctx (fresh_dir "interrupt_ref")
        in
        (match
           Interrupt_flag.with_set (fun () ->
               run ~resume:false (fresh_dir "interrupted"))
         with
        | _ -> Alcotest.fail "the suite ignored the interrupt"
        | exception Recover.Interrupt.Interrupted path ->
            Alcotest.(check (option string)) "ledger path" (Some ledger) path);
        (match Recover.Journal.replay ledger with
        | Ok (entries, _) ->
            Alcotest.(check bool) "a pair was ledgered" true (entries <> []);
            List.iter
              (fun j ->
                Alcotest.(check string)
                  (Recover.Field.str "pair" j)
                  "fresh"
                  (Recover.Field.str "status" j))
              entries
        | Error e -> Alcotest.failf "ledger: %s" (Recover.error_message e));
        let resumed = run ~resume:true (fresh_dir "interrupt_resumed") in
        Alcotest.(check string) "resumed manifest = uninterrupted"
          (Util.Json.to_string (Libgen.manifest_json uninterrupted))
          (Util.Json.to_string (Libgen.manifest_json resumed)));
  ]

let () =
  Alcotest.run "libgen"
    [
      ("determinism", determinism_tests);
      ("incremental", incremental_tests);
      ("degradation", degradation_tests);
      ("interrupt", interrupt_tests);
    ]
