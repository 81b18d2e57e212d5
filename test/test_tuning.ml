(* Tests for the persistent tuning database: JSON round-trips,
   fingerprint stability, DB dedup/ordering/persistence, memoized
   evaluation, and warm-started search fidelity. *)

open Machine

let sn = Desc.snitch_cluster
let target_sn = Desc.Snitch sn
let caps_sn = Desc.caps_of target_sn
let target_cpu = Desc.Cpu Desc.avx512_cpu
let caps_cpu = Desc.caps_of target_cpu
let objective target p = Machine.time target p

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_tests =
  let module J = Util.Json in
  [
    Alcotest.test_case "values round-trip" `Quick (fun () ->
        let v =
          J.Obj
            [
              ("s", J.Str "quote \" backslash \\ newline \n tab \t");
              ("n", J.Num 0.1);
              ("i", J.Num 42.);
              ("neg", J.Num (-1.5e-7));
              ("b", J.Bool true);
              ("null", J.Null);
              ("arr", J.Arr [ J.Str "a"; J.Num 1.; J.Arr []; J.Obj [] ]);
            ]
        in
        match J.of_string (J.to_string v) with
        | Ok v' -> Alcotest.(check bool) "equal" true (v = v')
        | Error e -> Alcotest.failf "parse failed: %s" e);
    Alcotest.test_case "printing is stable under reparse" `Quick (fun () ->
        let v = J.Obj [ ("x", J.Num 0.239837184); ("y", J.Num 1e300) ] in
        let s1 = J.to_string v in
        match J.of_string s1 with
        | Ok v' -> Alcotest.(check string) "identical" s1 (J.to_string v')
        | Error e -> Alcotest.failf "parse failed: %s" e);
    Alcotest.test_case "control characters escape as \\u" `Quick (fun () ->
        let s = J.to_string (J.Str "a\001b") in
        Alcotest.(check string) "escaped" "\"a\\u0001b\"" s;
        match J.of_string s with
        | Ok (J.Str s') -> Alcotest.(check string) "back" "a\001b" s'
        | _ -> Alcotest.fail "expected string");
    Alcotest.test_case "trailing garbage is an error" `Quick (fun () ->
        match J.of_string "{} {}" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted trailing garbage");
    Alcotest.test_case "unterminated string is an error" `Quick (fun () ->
        match J.of_string "\"abc" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted unterminated string");
  ]

let arbitrary_record =
  let open QCheck in
  let str = string_gen_of_size (Gen.int_bound 20) Gen.printable in
  make
    ~print:(fun r -> Tuning.Record.to_json r)
    Gen.(
      let* kernel = gen str in
      let* target = gen str in
      let* moves = list_size (int_bound 6) (gen str) in
      let* best_time = float_bound_exclusive 1.0 in
      let* evals = int_bound 10_000 in
      let* fp_seed = int_bound 1_000_000 in
      return
        {
          Tuning.Record.schema = Tuning.Record.schema_version;
          kernel;
          target;
          moves;
          best_time;
          evals;
          fingerprint = Digest.to_hex (Digest.string (string_of_int fp_seed));
          script = None;
        })

let prop_record_roundtrip =
  QCheck.Test.make ~count:300 ~name:"records round-trip through JSONL"
    arbitrary_record (fun r ->
      Tuning.Record.of_json (Tuning.Record.to_json r) = Ok r)

let prop_record_stable =
  QCheck.Test.make ~count:300
    ~name:"record serialization is byte-stable under reparse"
    arbitrary_record (fun r ->
      let line = Tuning.Record.to_json r in
      match Tuning.Record.of_json line with
      | Ok r' -> Tuning.Record.to_json r' = line
      | Error _ -> false)

let record_tests =
  [
    Alcotest.test_case "unknown schema version rejected" `Quick (fun () ->
        let r =
          Tuning.Record.make ~kernel:"k" ~target:"t" ~moves:[]
            ~best_time:1.0 ~evals:1 ~root:(Kernels.scale ~n:8) ()
        in
        let line = Tuning.Record.to_json { r with schema = 99 } in
        match Tuning.Record.of_json line with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted schema 99");
    Alcotest.test_case "missing field rejected" `Quick (fun () ->
        match Tuning.Record.of_json "{\"schema\":1,\"kernel\":\"k\"}" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted truncated record");
  ]

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let fingerprint_tests =
  let invariance =
    List.map
      (fun (e : Kernels.entry) ->
        Alcotest.test_case
          (Printf.sprintf "fingerprint of %s survives parse∘print" e.label)
          `Quick
          (fun () ->
            let p = e.build_small () in
            let reparsed = Ir.Parser.program (Ir.Printer.program p) in
            Alcotest.(check string)
              "invariant" (Tuning.Record.fingerprint p)
              (Tuning.Record.fingerprint reparsed)))
      (Kernels.table3 @ Kernels.snitch_micro)
  in
  invariance
  @ [
      Alcotest.test_case "transformed program fingerprints differently"
        `Quick (fun () ->
          let p = Kernels.softmax ~n:8 ~m:8 in
          match Transform.Xforms.all caps_cpu p with
          | [] -> Alcotest.fail "no applicable moves"
          | inst :: _ ->
              Alcotest.(check bool)
                "differs" true
                (Tuning.Record.fingerprint (inst.apply p)
                <> Tuning.Record.fingerprint p));
    ]

(* ------------------------------------------------------------------ *)
(* Database                                                            *)
(* ------------------------------------------------------------------ *)

let mk_record ?(kernel = "k") ?(target = "t") ?(moves = []) ~best_time
    ~root () =
  Tuning.Record.make ~kernel ~target ~moves ~best_time ~evals:10 ~root ()

let db_tests =
  [
    Alcotest.test_case "add dedups by fingerprint/target/moves" `Quick
      (fun () ->
        let db = Tuning.Db.create () in
        let root = Kernels.scale ~n:16 in
        let r = mk_record ~best_time:2.0 ~root () in
        Alcotest.(check bool) "inserted" true (Tuning.Db.add db r = `Inserted);
        Alcotest.(check bool) "duplicate" true
          (Tuning.Db.add db r = `Duplicate);
        Alcotest.(check bool) "slower duplicate ignored" true
          (Tuning.Db.add db { r with best_time = 3.0 } = `Duplicate);
        Alcotest.(check bool) "faster improves" true
          (Tuning.Db.add db { r with best_time = 1.0 } = `Improved);
        Alcotest.(check int) "one record" 1 (Tuning.Db.size db);
        match Tuning.Db.best db ~kernel:"k" ~target:"t" with
        | Some best -> Alcotest.(check (float 0.0)) "kept best" 1.0
                         best.best_time
        | None -> Alcotest.fail "no best");
    Alcotest.test_case "top_k orders by time and respects k" `Quick
      (fun () ->
        let db = Tuning.Db.create () in
        let root = Kernels.scale ~n:16 in
        List.iter
          (fun (t, m) ->
            ignore
              (Tuning.Db.add db (mk_record ~moves:[ m ] ~best_time:t ~root ())))
          [ (3.0, "a"); (1.0, "b"); (2.0, "c"); (4.0, "d") ];
        let top = Tuning.Db.top_k db ~kernel:"k" ~target:"t" 3 in
        Alcotest.(check (list (float 0.0)))
          "sorted, truncated" [ 1.0; 2.0; 3.0 ]
          (List.map (fun (r : Tuning.Record.t) -> r.best_time) top));
    Alcotest.test_case "query filters kernel and target" `Quick (fun () ->
        let db = Tuning.Db.create () in
        let root = Kernels.scale ~n:16 in
        ignore
          (Tuning.Db.add db
             (mk_record ~kernel:"a" ~target:"x86" ~best_time:1.0 ~root ()));
        ignore
          (Tuning.Db.add db
             (mk_record ~kernel:"a" ~target:"snitch" ~best_time:1.0 ~root ()));
        ignore
          (Tuning.Db.add db
             (mk_record ~kernel:"b" ~target:"x86" ~best_time:1.0 ~root ()));
        Alcotest.(check int) "by kernel" 2
          (List.length (Tuning.Db.query ~kernel:"a" db));
        Alcotest.(check int) "by target" 2
          (List.length (Tuning.Db.query ~target:"x86" db));
        Alcotest.(check int) "by both" 1
          (List.length (Tuning.Db.query ~kernel:"a" ~target:"x86" db)));
    Alcotest.test_case "save -> load -> save is byte-identical" `Quick
      (fun () ->
        let db = Tuning.Db.create () in
        (* insertion order deliberately scrambled: saves must sort *)
        List.iter
          (fun (e : Kernels.entry) ->
            let root = e.build_small () in
            ignore
              (Tuning.Db.add db
                 (mk_record ~kernel:e.label ~target:"snitch"
                    ~moves:[ "m1"; "m2" ] ~best_time:(Random.float 1.0)
                    ~root ()));
            ignore
              (Tuning.Db.add db
                 (mk_record ~kernel:e.label ~target:"x86"
                    ~best_time:0.2398371845 ~root ())))
          (List.rev (Kernels.snitch_micro @ [ List.hd Kernels.table3 ]));
        let f1 = Filename.temp_file "tunedb" ".jsonl" in
        let f2 = Filename.temp_file "tunedb" ".jsonl" in
        Tuning.Db.save db f1;
        (match Tuning.Db.load f1 with
        | Error e -> Alcotest.failf "load: %s" e
        | Ok db' -> Tuning.Db.save db' f2);
        let slurp f =
          let ic = open_in_bin f in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          s
        in
        let c1 = slurp f1 and c2 = slurp f2 in
        Sys.remove f1;
        Sys.remove f2;
        Alcotest.(check bool) "file non-empty" true (String.length c1 > 0);
        Alcotest.(check string) "byte-identical" c1 c2);
    Alcotest.test_case "load of a missing file is an empty db" `Quick
      (fun () ->
        match Tuning.Db.load "/nonexistent/definitely-not-here.jsonl" with
        | Ok db -> Alcotest.(check int) "empty" 0 (Tuning.Db.size db)
        | Error e -> Alcotest.failf "expected empty db, got error %s" e);
    Alcotest.test_case "tolerant load skips and counts malformed lines"
      `Quick (fun () ->
        let db = Tuning.Db.create () in
        let root = Kernels.scale ~n:16 in
        ignore (Tuning.Db.add db (mk_record ~kernel:"a" ~best_time:1.0 ~root ()));
        ignore (Tuning.Db.add db (mk_record ~kernel:"b" ~best_time:2.0 ~root ()));
        let f = Filename.temp_file "tunedb" ".jsonl" in
        Tuning.Db.save db f;
        (* a second writer killed mid-append leaves a torn final line *)
        let oc = open_out_gen [ Open_append ] 0o644 f in
        output_string oc "{\"kernel\":\"torn-rec";
        close_out oc;
        let r = Tuning.Db.load f in
        Sys.remove f;
        (match r with
        | Error e -> Alcotest.failf "tolerant load failed: %s" e
        | Ok db' ->
            Alcotest.(check int) "intact records survive" 2
              (Tuning.Db.size db');
            Alcotest.(check int) "torn line counted" 1
              (Tuning.Db.skipped_lines db')));
    Alcotest.test_case "tolerant load traces a db.skipped_lines event"
      `Quick (fun () ->
        let db = Tuning.Db.create () in
        let root = Kernels.scale ~n:16 in
        ignore (Tuning.Db.add db (mk_record ~best_time:1.0 ~root ()));
        let f = Filename.temp_file "tunedb" ".jsonl" in
        Tuning.Db.save db f;
        let oc = open_out_gen [ Open_append ] 0o644 f in
        output_string oc "garbage\n{\"torn";
        close_out oc;
        let obs = Obs.Trace.make_buffer () in
        (match Tuning.Db.load ~obs f with
        | Error e -> Alcotest.failf "tolerant load: %s" e
        | Ok _ -> ());
        Sys.remove f;
        let skipped_events =
          List.filter
            (fun e ->
              Option.bind (Util.Json.member "ev" e) Util.Json.to_str
              = Some "db.skipped_lines")
            (Obs.Trace.events obs)
        in
        match skipped_events with
        | [ e ] ->
            Alcotest.(check (option int))
              "skip count in the event" (Some 2)
              (Option.bind (Util.Json.member "skipped" e) Util.Json.to_int);
            Alcotest.(check (option string))
              "path in the event" (Some f)
              (Option.bind (Util.Json.member "path" e) Util.Json.to_str)
        | es -> Alcotest.failf "%d db.skipped_lines events" (List.length es));
    Alcotest.test_case "clean load emits no db.skipped_lines event" `Quick
      (fun () ->
        let db = Tuning.Db.create () in
        let root = Kernels.scale ~n:16 in
        ignore (Tuning.Db.add db (mk_record ~best_time:1.0 ~root ()));
        let f = Filename.temp_file "tunedb" ".jsonl" in
        Tuning.Db.save db f;
        let obs = Obs.Trace.make_buffer () in
        (match Tuning.Db.load ~obs f with
        | Error e -> Alcotest.failf "clean load: %s" e
        | Ok _ -> ());
        Sys.remove f;
        Alcotest.(check int) "no events" 0
          (List.length (Obs.Trace.events obs)));
    Alcotest.test_case "clean load reports zero skipped lines" `Quick
      (fun () ->
        let db = Tuning.Db.create () in
        let root = Kernels.scale ~n:16 in
        ignore (Tuning.Db.add db (mk_record ~best_time:1.0 ~root ()));
        let f = Filename.temp_file "tunedb" ".jsonl" in
        Tuning.Db.save db f;
        let r = Tuning.Db.load f in
        Sys.remove f;
        match r with
        | Ok db' ->
            Alcotest.(check int) "no skips" 0 (Tuning.Db.skipped_lines db')
        | Error e -> Alcotest.failf "clean load: %s" e);
    Alcotest.test_case "save after tolerant load rewrites a clean file"
      `Quick (fun () ->
        let db = Tuning.Db.create () in
        let root = Kernels.scale ~n:16 in
        ignore (Tuning.Db.add db (mk_record ~best_time:1.0 ~root ()));
        let f = Filename.temp_file "tunedb" ".jsonl" in
        Tuning.Db.save db f;
        let oc = open_out_gen [ Open_append ] 0o644 f in
        output_string oc "garbage mid-file\n{\"also\":\"torn";
        close_out oc;
        (match Tuning.Db.load f with
        | Error e -> Alcotest.failf "tolerant load: %s" e
        | Ok db' ->
            Alcotest.(check int) "two bad lines" 2
              (Tuning.Db.skipped_lines db');
            Tuning.Db.save db' f);
        (match Tuning.Db.load f with
        | Ok db' ->
            Alcotest.(check int) "clean again" 1 (Tuning.Db.size db');
            Alcotest.(check int) "no skips" 0 (Tuning.Db.skipped_lines db')
        | Error e -> Alcotest.failf "rewritten file still dirty: %s" e);
        Sys.remove f);
    Alcotest.test_case "save is atomic: no tmp left, result loadable" `Quick
      (fun () ->
        let db = Tuning.Db.create () in
        let root = Kernels.scale ~n:16 in
        ignore (Tuning.Db.add db (mk_record ~best_time:1.0 ~root ()));
        let f = Filename.temp_file "tunedb" ".jsonl" in
        Tuning.Db.save db f;
        Alcotest.(check bool) "no tmp sibling" false
          (Sys.file_exists (f ^ ".tmp"));
        (match Tuning.Db.load f with
        | Ok db' -> Alcotest.(check int) "loadable" 1 (Tuning.Db.size db')
        | Error e -> Alcotest.failf "load after save: %s" e);
        Sys.remove f);
    Alcotest.test_case "a stale partial tmp never corrupts the db" `Quick
      (fun () ->
        (* simulate a writer killed mid-save: garbage sits at path.tmp *)
        let f = Filename.temp_file "tunedb" ".jsonl" in
        let db = Tuning.Db.create () in
        let root = Kernels.scale ~n:16 in
        ignore (Tuning.Db.add db (mk_record ~best_time:1.0 ~root ()));
        Tuning.Db.save db f;
        let oc = open_out (f ^ ".tmp") in
        output_string oc "{\"kernel\":\"trunc";
        close_out oc;
        (* the real file is untouched by the dead writer's tmp *)
        (match Tuning.Db.load f with
        | Ok db' -> Alcotest.(check int) "intact" 1 (Tuning.Db.size db')
        | Error e -> Alcotest.failf "load with stale tmp: %s" e);
        (* the next save overwrites the stale tmp and still lands *)
        ignore
          (Tuning.Db.add db (mk_record ~kernel:"k2" ~best_time:2.0 ~root ()));
        Tuning.Db.save db f;
        Alcotest.(check bool) "stale tmp cleaned" false
          (Sys.file_exists (f ^ ".tmp"));
        (match Tuning.Db.load f with
        | Ok db' -> Alcotest.(check int) "both records" 2 (Tuning.Db.size db')
        | Error e -> Alcotest.failf "load after recovery: %s" e);
        Sys.remove f);
    Alcotest.test_case "concurrent saves merge instead of clobbering" `Quick
      (fun () ->
        (* two independent writers sharing --db: the union must survive,
           and the improve rule must keep the faster of a shared record *)
        let f = Filename.temp_file "tunedb" ".jsonl" in
        Sys.remove f;
        let root = Kernels.scale ~n:16 in
        let db1 = Tuning.Db.create () in
        ignore
          (Tuning.Db.add db1 (mk_record ~kernel:"a" ~best_time:2.0 ~root ()));
        ignore
          (Tuning.Db.add db1
             (mk_record ~kernel:"shared" ~best_time:5.0 ~root ()));
        let db2 = Tuning.Db.create () in
        ignore
          (Tuning.Db.add db2 (mk_record ~kernel:"b" ~best_time:3.0 ~root ()));
        ignore
          (Tuning.Db.add db2
             (mk_record ~kernel:"shared" ~best_time:4.0 ~root ()));
        Tuning.Db.save db1 f;
        Tuning.Db.save db2 f;
        (match Tuning.Db.load f with
        | Error e -> Alcotest.failf "load merged: %s" e
        | Ok merged ->
            Alcotest.(check int) "union" 3 (Tuning.Db.size merged);
            (match Tuning.Db.best merged ~kernel:"shared" ~target:"t" with
            | Some r ->
                Alcotest.(check (float 0.0)) "improve rule kept fastest" 4.0
                  r.best_time
            | None -> Alcotest.fail "shared record lost"));
        Sys.remove f);
  ]

(* ------------------------------------------------------------------ *)
(* Memoized evaluation                                                 *)
(* ------------------------------------------------------------------ *)

let cache_tests =
  [
    Alcotest.test_case "hits and misses are counted" `Quick (fun () ->
        let cache = Tuning.Cache.create () in
        let calls = ref 0 in
        let raw p =
          incr calls;
          objective target_sn p
        in
        let memo = Tuning.Cache.memoize cache raw in
        let p = Kernels.scale ~n:64 in
        let q = Kernels.scale ~n:128 in
        let t1 = memo p in
        let t2 = memo p in
        let _ = memo q in
        Alcotest.(check (float 0.0)) "same value" t1 t2;
        Alcotest.(check (float 0.0)) "matches raw" (objective target_sn p) t1;
        Alcotest.(check int) "model ran twice" 2 !calls;
        Alcotest.(check int) "hits" 1 (Tuning.Cache.hits cache);
        Alcotest.(check int) "misses" 2 (Tuning.Cache.misses cache);
        Alcotest.(check int) "entries" 2 (Tuning.Cache.entries cache);
        Alcotest.(check bool) "hit rate" true
          (abs_float (Tuning.Cache.hit_rate cache -. (1. /. 3.)) < 1e-9));
    Alcotest.test_case "memoized search finds the same schedule" `Quick
      (fun () ->
        let p = Kernels.gemv ~m:64 ~n:64 in
        let run obj =
          (Search.Stochastic.simulated_annealing ~seed:5
             ~space:Search.Stochastic.Heuristic ~budget:50 caps_sn obj p)
            .best_time
        in
        let cache = Tuning.Cache.create () in
        let plain = run (objective target_sn) in
        let memo = run (Tuning.Cache.memoize cache (objective target_sn)) in
        Alcotest.(check (float 0.0)) "identical result" plain memo;
        Alcotest.(check bool) "cache was useful" true
          (Tuning.Cache.hits cache > 0));
    Alcotest.test_case "scoped keys keep targets apart in one cache" `Quick
      (fun () ->
        (* the same program timed for two targets through one shared
           cache: unscoped keys would return the first target's time
           for the second (cross-target pollution) *)
        let cache = Tuning.Cache.create () in
        let p = Kernels.scale ~n:64 in
        let time_for target =
          Tuning.Cache.memoize_scoped cache
            ~scope:(Machine.Desc.target_name target)
            (objective target) p
        in
        let sn = time_for target_sn in
        let cpu = time_for target_cpu in
        Alcotest.(check (float 0.0)) "snitch unpolluted"
          (objective target_sn p) sn;
        Alcotest.(check (float 0.0)) "cpu unpolluted"
          (objective target_cpu p) cpu;
        Alcotest.(check int) "both evaluated" 2 (Tuning.Cache.misses cache);
        Alcotest.(check int) "two entries" 2 (Tuning.Cache.entries cache);
        (* revisits still hit within each scope *)
        ignore (time_for target_sn);
        ignore (time_for target_cpu);
        Alcotest.(check int) "scoped hits" 2 (Tuning.Cache.hits cache));
  ]

(* The cache backs the objective of the parallel search, so several
   domains hammer one instance concurrently.  The contract under races:
   hits + misses = total lookups exactly, entries never exceed the
   distinct programs, and every answer equals the raw objective. *)
let prop_cache_domain_safe =
  QCheck.Test.make ~count:15 ~name:"cache accounting is exact under domains"
    QCheck.(pair (int_range 1 6) (int_range 1 60))
    (fun (nprogs, lookups) ->
      let cache = Tuning.Cache.create () in
      let progs = Array.init nprogs (fun i -> Kernels.relu ~n:(4 + i) ~m:3) in
      let memo = Tuning.Cache.memoize cache (objective target_cpu) in
      let worker seed () =
        let rng = Util.Rng.create seed in
        for _ = 1 to lookups do
          ignore (memo progs.(Util.Rng.int rng nprogs))
        done
      in
      let domains = List.init 4 (fun i -> Domain.spawn (worker (i + 1))) in
      List.iter Domain.join domains;
      let total = Tuning.Cache.hits cache + Tuning.Cache.misses cache in
      total = 4 * lookups
      && Tuning.Cache.entries cache <= nprogs
      && Array.for_all
           (fun p -> memo p = objective target_cpu p)
           progs)

(* ------------------------------------------------------------------ *)
(* Warm-started search                                                 *)
(* ------------------------------------------------------------------ *)

let warmstart_tests =
  [
    Alcotest.test_case
      "budget-0 warm-started annealing reproduces the recorded best_time"
      `Quick (fun () ->
        let p = Kernels.gemv ~m:64 ~n:64 in
        let cold =
          Search.Stochastic.simulated_annealing ~seed:3
            ~space:Search.Stochastic.Heuristic ~budget:80 caps_sn
            (objective target_sn) p
        in
        Alcotest.(check bool) "found moves" true (cold.best_moves <> []);
        let record =
          match
            Tuning.Warmstart.record_of ~objective:(objective target_sn)
              ~caps:caps_sn ~kernel:"gemv" ~target:"snitch" ~root:p
              ~moves:cold.best_moves ~evals:cold.evals
          with
          | Ok r -> r
          | Error e -> Alcotest.failf "record_of: %s" e
        in
        Alcotest.(check (float 0.0))
          "record matches the search" cold.best_time record.best_time;
        let warm =
          Search.Stochastic.simulated_annealing ~seed:7
            ~init:record.moves ~space:Search.Stochastic.Heuristic ~budget:0
            caps_sn (objective target_sn) p
        in
        Alcotest.(check (float 0.0))
          "replay fidelity" record.best_time warm.best_time);
    Alcotest.test_case "warm-started search never finishes behind the seed"
      `Quick (fun () ->
        let p = Kernels.softmax ~n:64 ~m:64 in
        let cold =
          Search.Stochastic.simulated_annealing ~seed:1
            ~space:Search.Stochastic.Heuristic ~budget:60 caps_cpu
            (objective target_cpu) p
        in
        let warm =
          Search.Stochastic.simulated_annealing ~seed:2
            ~init:cold.best_moves ~space:Search.Stochastic.Heuristic
            ~budget:60 caps_cpu (objective target_cpu) p
        in
        Alcotest.(check bool)
          (Printf.sprintf "%.3e <= %.3e" warm.best_time cold.best_time)
          true
          (warm.best_time <= cold.best_time +. 1e-18));
    Alcotest.test_case "warm-started sampling seeds its pool" `Quick
      (fun () ->
        let p = Kernels.gemv ~m:64 ~n:64 in
        let cold =
          Search.Stochastic.simulated_annealing ~seed:3
            ~space:Search.Stochastic.Heuristic ~budget:60 caps_sn
            (objective target_sn) p
        in
        let warm =
          Search.Stochastic.random_sampling ~seed:11 ~init:cold.best_moves
            ~space:Search.Stochastic.Heuristic ~budget:10 caps_sn
            (objective target_sn) p
        in
        Alcotest.(check bool) "at or below the seed" true
          (warm.best_time <= cold.best_time +. 1e-18));
    Alcotest.test_case "moves_for rejects a fingerprint mismatch" `Quick
      (fun () ->
        let gemv = Kernels.gemv ~m:64 ~n:64 in
        let softmax = Kernels.softmax ~n:64 ~m:64 in
        let db = Tuning.Db.create () in
        ignore
          (Tuning.Db.add db
             (Tuning.Record.make ~kernel:"gemv" ~target:"snitch"
                ~moves:[ "m" ] ~best_time:1.0 ~evals:1 ~root:gemv ()));
        Alcotest.(check (list string))
          "matching root" [ "m" ]
          (Tuning.Warmstart.moves_for db ~kernel:"gemv" ~target:"snitch"
             ~root:gemv);
        Alcotest.(check (list string))
          "mismatched root" []
          (Tuning.Warmstart.moves_for db ~kernel:"gemv" ~target:"snitch"
             ~root:softmax));
    Alcotest.test_case "moves_for skips a faster foreign record" `Quick
      (fun () ->
        (* the pair's fastest record belongs to another root: the lookup
           must fall through to the fastest record that matches *)
        let gemv = Kernels.gemv ~m:64 ~n:64 in
        let softmax = Kernels.softmax ~n:64 ~m:64 in
        let db = Tuning.Db.create () in
        let add ~moves ~best_time root =
          ignore
            (Tuning.Db.add db
               (Tuning.Record.make ~kernel:"gemv" ~target:"snitch" ~moves
                  ~best_time ~evals:1 ~root ()))
        in
        add ~moves:[ "foreign" ] ~best_time:0.5 softmax;
        add ~moves:[ "slow" ] ~best_time:2.0 gemv;
        add ~moves:[ "m" ] ~best_time:1.0 gemv;
        Alcotest.(check (list string))
          "fastest matching record" [ "m" ]
          (Tuning.Warmstart.moves_for db ~kernel:"gemv" ~target:"snitch"
             ~root:gemv);
        Alcotest.(check (option (list string)))
          "lookup agrees" (Some [ "m" ])
          (Option.map
             (fun (r : Tuning.Record.t) -> r.moves)
             (Tuning.Warmstart.lookup db ~kernel:"gemv" ~target:"snitch"
                ~keys:(Tuning.Record.root_keys gemv))));
    Alcotest.test_case "record_of refuses inapplicable moves" `Quick
      (fun () ->
        let p = Kernels.scale ~n:16 in
        match
          Tuning.Warmstart.record_of ~objective:(objective target_sn)
            ~caps:caps_sn ~kernel:"scale" ~target:"snitch" ~root:p
            ~moves:[ "bogus(move)" ] ~evals:1
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "recorded a non-replayable sequence");
    Alcotest.test_case "PerfLLM warm-start seeds the best-so-far" `Quick
      (fun () ->
        let p = Kernels.gemv ~m:32 ~n:32 in
        let cold =
          Search.Stochastic.simulated_annealing ~seed:3
            ~space:Search.Stochastic.Heuristic ~budget:40 caps_sn
            (objective target_sn) p
        in
        let cfg =
          {
            Rl.Perfllm.default_config with
            episodes = 2;
            max_steps = 4;
            action_cap = 8;
          }
        in
        let r, _ =
          Rl.Perfllm.optimize ~cfg ~init:cold.best_moves ~seed:1 caps_sn
            (objective target_sn) p
        in
        Alcotest.(check bool) "at or below the seed" true
          (r.best_time <= cold.best_time +. 1e-18));
  ]

(* ------------------------------------------------------------------ *)
(* Facade integration                                                  *)
(* ------------------------------------------------------------------ *)

let facade_tests =
  [
    Alcotest.test_case "optimize surfaces cache counters" `Quick (fun () ->
        let p = Kernels.softmax ~n:64 ~m:64 in
        let cache = Perfdojo.Tuning.Cache.create () in
        let outcome =
          Perfdojo.optimize_ctx
            ~ctx:Perfdojo.Ctx.(with_cache cache default)
            (Perfdojo.Annealing
               { budget = 60; space = Search.Stochastic.Heuristic })
            target_cpu p
        in
        Alcotest.(check int) "misses surfaced"
          (Perfdojo.Tuning.Cache.misses cache)
          outcome.cache_misses;
        Alcotest.(check int) "hits surfaced"
          (Perfdojo.Tuning.Cache.hits cache)
          outcome.cache_hits;
        Alcotest.(check bool) "something was evaluated" true
          (outcome.cache_misses > 0));
    Alcotest.test_case "pass strategies honor a better warm-start" `Quick
      (fun () ->
        let p = Kernels.gemv ~m:64 ~n:64 in
        let search =
          Perfdojo.optimize_ctx
            ~ctx:Perfdojo.Ctx.(with_seed 3 default)
            (Perfdojo.Annealing
               { budget = 80; space = Search.Stochastic.Heuristic })
            target_sn p
        in
        let naive_warm =
          Perfdojo.optimize_ctx
            ~ctx:Perfdojo.Ctx.(with_warm_start search.moves default)
            Perfdojo.Naive target_sn p
        in
        Alcotest.(check bool) "warm naive at or below plain search" true
          (naive_warm.time_s <= search.time_s +. 1e-18));
  ]

(* ------------------------------------------------------------------ *)
(* The journal: deposit, checkpoint, and what a fresh load sees        *)
(* ------------------------------------------------------------------ *)

let journal_tests =
  let root = Kernels.scale ~n:16 in
  let rec_ i =
    mk_record ~moves:[ string_of_int i ] ~best_time:(float_of_int (i + 1))
      ~root ()
  in
  (* a fresh path with no file and no journal *)
  let missing () =
    let f = Filename.temp_file "tunedb" ".jsonl" in
    Sys.remove f;
    f
  in
  let cleanup f =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ f; f ^ ".wal"; f ^ ".tmp" ]
  in
  let slurp f = In_channel.with_open_bin f In_channel.input_all in
  let entries f =
    match Recover.Journal.replay (f ^ ".wal") with
    | Ok (es, _) -> List.length es
    | Error e -> Alcotest.failf "replay: %s" (Recover.error_message e)
  in
  let loaded f =
    match Tuning.Db.load f with
    | Ok db -> db
    | Error e -> Alcotest.failf "load: %s" e
  in
  let deposit f db r = ignore (Tuning.Db.deposit ~file:f db r) in
  [
    Alcotest.test_case "a deposit into a missing file creates it and journals"
      `Quick (fun () ->
        let f = missing () in
        let db = Tuning.Db.create () in
        Alcotest.(check bool) "inserted" true
          (Tuning.Db.deposit ~file:f db (rec_ 0) = `Inserted);
        Alcotest.(check string) "file written empty" "" (slurp f);
        Alcotest.(check int) "one journal entry" 1 (entries f);
        Alcotest.(check int) "journaled" 1 (Tuning.Db.journaled db);
        let fresh = loaded f in
        Alcotest.(check int) "a fresh load sees it" 1 (Tuning.Db.size fresh);
        Alcotest.(check int) "replayed" 1 (Tuning.Db.journaled fresh);
        cleanup f);
    Alcotest.test_case "a duplicate deposit journals nothing" `Quick (fun () ->
        let f = missing () in
        let db = Tuning.Db.create () in
        deposit f db (rec_ 0);
        let before = slurp (f ^ ".wal") in
        Alcotest.(check bool) "duplicate" true
          (Tuning.Db.deposit ~file:f db (rec_ 0) = `Duplicate);
        Alcotest.(check string) "journal unchanged" before (slurp (f ^ ".wal"));
        Alcotest.(check int) "journaled" 1 (Tuning.Db.journaled db);
        cleanup f);
    Alcotest.test_case "the 64th journaled deposit checkpoints" `Quick
      (fun () ->
        let f = missing () in
        let db = Tuning.Db.create () in
        for i = 0 to 62 do
          deposit f db (rec_ i)
        done;
        Alcotest.(check int) "63 pending" 63 (Tuning.Db.journaled db);
        Alcotest.(check string) "file still empty" "" (slurp f);
        deposit f db (rec_ 63);
        Alcotest.(check int) "journaled reset" 0 (Tuning.Db.journaled db);
        Alcotest.(check string) "journal empty" "" (slurp (f ^ ".wal"));
        let lines =
          List.filter (( <> ) "") (String.split_on_char '\n' (slurp f))
        in
        Alcotest.(check int) "file holds all 64" 64 (List.length lines);
        cleanup f);
    Alcotest.test_case "save truncates the journal" `Quick (fun () ->
        let f = missing () in
        let db = Tuning.Db.create () in
        deposit f db (rec_ 0);
        deposit f db (rec_ 1);
        Tuning.Db.save db f;
        Alcotest.(check string) "journal empty" "" (slurp (f ^ ".wal"));
        Alcotest.(check int) "journaled" 0 (Tuning.Db.journaled db);
        let fresh = loaded f in
        Alcotest.(check int) "both in the file" 2 (Tuning.Db.size fresh);
        Alcotest.(check int) "nothing replayed" 0 (Tuning.Db.journaled fresh);
        cleanup f);
    Alcotest.test_case "interleaved writers keep every deposit" `Quick
      (fun () ->
        let f = missing () in
        let a = Tuning.Db.create () in
        deposit f a (rec_ 1);
        let b = loaded f in
        deposit f b (rec_ 2);
        Tuning.Db.save b f;
        deposit f a (rec_ 3);
        let fresh = loaded f in
        List.iter
          (fun i ->
            Alcotest.(check bool)
              (Printf.sprintf "r%d survives" i)
              true
              (Tuning.Db.add fresh (rec_ i) = `Duplicate))
          [ 1; 2; 3 ];
        Alcotest.(check int) "three records" 3 (Tuning.Db.size fresh);
        cleanup f);
  ]

let () =
  Alcotest.run "tuning"
    [
      ("json", json_tests);
      ( "record-qcheck",
        List.map QCheck_alcotest.to_alcotest
          [ prop_record_roundtrip; prop_record_stable ] );
      ("record", record_tests);
      ("fingerprint", fingerprint_tests);
      ("db", db_tests);
      ("journal", journal_tests);
      ("cache", cache_tests);
      ( "cache-qcheck",
        List.map QCheck_alcotest.to_alcotest [ prop_cache_domain_safe ] );
      ("warmstart", warmstart_tests);
      ("facade", facade_tests);
    ]
