(* Tests for the crash-safe recovery subsystem: durable writes, the
   versioned checkpoint store, the write-ahead journal, and — the load-
   bearing property — kill-invariance: a run resumed from any
   checkpoint finishes exactly like the run that was never interrupted
   (same result, same exact accounting, byte-identical spliced traces),
   while re-evaluating strictly fewer candidates than a cold restart.

   Everything here is in-process: instead of fork + SIGKILL (which the
   bench crash experiment covers end-to-end), the kill point is
   simulated by snapshotting the checkpoint file mid-run — Store.save
   is atomic, so a copy taken at any evaluation index is exactly what a
   killed process would have left behind. *)

module R = Recover
module Stoch = Search.Stochastic
module Desc = Machine.Desc

let target_cpu = Desc.Cpu Desc.avx512_cpu
let caps_cpu = Desc.caps_of target_cpu
let time p = Machine.time target_cpu p

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "perfdojo_recover_%s_%d" name (Unix.getpid ()))

let rm path = if Sys.file_exists path then Sys.remove path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_raw path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let copy_file src dst = write_raw dst (read_file src)

(* ------------------------------------------------------------------ *)
(* Bits: exact float round-trip                                        *)
(* ------------------------------------------------------------------ *)

let bits_tests =
  [
    Alcotest.test_case "special values round-trip bit-exactly" `Quick
      (fun () ->
        List.iter
          (fun f ->
            match R.Bits.to_float (R.Bits.of_float f) with
            | Some f' ->
                Alcotest.(check int64)
                  (Printf.sprintf "bits of %h" f)
                  (Int64.bits_of_float f) (Int64.bits_of_float f')
            | None -> Alcotest.failf "%h did not round-trip" f)
          [
            0.; -0.; 1.; -1.; infinity; neg_infinity; nan; epsilon_float;
            1e-308; 4.9e-324; 3.14159265358979; max_float;
          ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"any float round-trips bit-exactly"
         QCheck.float (fun f ->
           match R.Bits.to_float (R.Bits.of_float f) with
           | Some f' -> Int64.bits_of_float f = Int64.bits_of_float f'
           | None -> false));
  ]

(* ------------------------------------------------------------------ *)
(* Durable writes                                                      *)
(* ------------------------------------------------------------------ *)

let durable_tests =
  [
    Alcotest.test_case "write_string replaces atomically, no tmp left"
      `Quick (fun () ->
        let path = tmp "durable" in
        rm path;
        R.Durable.write_string ~path "one\n";
        Alcotest.(check string) "first write" "one\n" (read_file path);
        R.Durable.write_string ~path "two\n";
        Alcotest.(check string) "replaced" "two\n" (read_file path);
        Alcotest.(check bool) "tmp cleaned" false
          (Sys.file_exists (path ^ ".tmp"));
        rm path);
    Alcotest.test_case "an exception mid-write leaves the old file" `Quick
      (fun () ->
        let path = tmp "durable_exn" in
        rm path;
        R.Durable.write_string ~path "keep\n";
        (try
           R.Durable.write_file ~path (fun oc ->
               output_string oc "partial garbage";
               failwith "boom")
         with Failure _ -> ());
        Alcotest.(check string) "old contents intact" "keep\n"
          (read_file path);
        Alcotest.(check bool) "tmp cleaned" false
          (Sys.file_exists (path ^ ".tmp"));
        rm path);
  ]

(* ------------------------------------------------------------------ *)
(* Store: versioned + checksummed checkpoints                          *)
(* ------------------------------------------------------------------ *)

let payload =
  Util.Json.Obj
    [
      ("kind", Util.Json.Str "test");
      ("n", Util.Json.Num 42.);
      ("t", R.Bits.of_float 1.5e-6);
    ]

let store_tests =
  [
    Alcotest.test_case "save/load round-trips the payload" `Quick (fun () ->
        let path = tmp "store" in
        rm path;
        R.Store.save ~path payload;
        (match R.Store.load ~path with
        | Ok p ->
            Alcotest.(check string)
              "payload" (Util.Json.to_string payload) (Util.Json.to_string p)
        | Error e -> Alcotest.failf "load: %s" (R.error_message e));
        rm path);
    Alcotest.test_case "missing file is a typed Missing error" `Quick
      (fun () ->
        let path = tmp "store_missing" in
        rm path;
        match R.Store.load ~path with
        | Error (R.Missing _) -> ()
        | Error e -> Alcotest.failf "wanted Missing, got %s" (R.error_message e)
        | Ok _ -> Alcotest.fail "load of a missing file succeeded");
    Alcotest.test_case "a truncated checkpoint is Corrupt, never garbage"
      `Quick (fun () ->
        let path = tmp "store_torn" in
        rm path;
        R.Store.save ~path payload;
        let s = read_file path in
        write_raw path (String.sub s 0 (String.length s / 2));
        (match R.Store.load ~path with
        | Error (R.Corrupt _) -> ()
        | Error e -> Alcotest.failf "wanted Corrupt, got %s" (R.error_message e)
        | Ok _ -> Alcotest.fail "torn checkpoint loaded");
        rm path);
    Alcotest.test_case "a flipped byte fails the checksum" `Quick (fun () ->
        let path = tmp "store_flip" in
        rm path;
        R.Store.save ~path payload;
        let s = Bytes.of_string (read_file path) in
        (* flip a digit inside the payload, away from the envelope *)
        let i = Bytes.length s - 5 in
        Bytes.set s i (if Bytes.get s i = '2' then '3' else '2');
        write_raw path (Bytes.to_string s);
        (match R.Store.load ~path with
        | Error (R.Corrupt _) -> ()
        | Error e -> Alcotest.failf "wanted Corrupt, got %s" (R.error_message e)
        | Ok _ -> Alcotest.fail "corrupted checkpoint loaded");
        rm path);
    Alcotest.test_case "config validators raise typed Mismatch" `Quick
      (fun () ->
        (match R.Field.check_str payload "kind" "test" with
        | () -> ());
        match R.Field.check_str payload "kind" "other" with
        | exception R.Error (R.Mismatch _) -> ()
        | () -> Alcotest.fail "mismatched config accepted");
  ]

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let entry n =
  Util.Json.Obj [ ("k", Util.Json.Str "e"); ("n", Util.Json.Num (float_of_int n)) ]

let journal_tests =
  [
    Alcotest.test_case "append/replay round-trips in order" `Quick (fun () ->
        let path = tmp "journal" in
        rm path;
        let w = R.Journal.open_writer path in
        List.iter (fun n -> R.Journal.append w (entry n)) [ 1; 2; 3 ];
        R.Journal.close w;
        (match R.Journal.replay path with
        | Ok (entries, torn) ->
            Alcotest.(check int) "torn" 0 torn;
            Alcotest.(check (list string))
              "entries"
              (List.map (fun n -> Util.Json.to_string (entry n)) [ 1; 2; 3 ])
              (List.map Util.Json.to_string entries)
        | Error e -> Alcotest.failf "replay: %s" (R.error_message e));
        rm path);
    Alcotest.test_case "missing journal replays as empty" `Quick (fun () ->
        let path = tmp "journal_missing" in
        rm path;
        match R.Journal.replay path with
        | Ok ([], 0) -> ()
        | Ok (es, t) ->
            Alcotest.failf "wanted ([],0), got %d entries, %d torn"
              (List.length es) t
        | Error e -> Alcotest.failf "replay: %s" (R.error_message e));
    Alcotest.test_case "a torn trailing line is dropped, prefix recovered"
      `Quick (fun () ->
        let path = tmp "journal_torn" in
        rm path;
        let w = R.Journal.open_writer path in
        List.iter (fun n -> R.Journal.append w (entry n)) [ 1; 2 ];
        R.Journal.close w;
        (* simulate a writer killed mid-append: a partial last line *)
        let oc =
          open_out_gen [ Open_append; Open_binary ] 0o644 path
        in
        output_string oc "{\"k\":\"e\",\"n\"";
        close_out oc;
        (match R.Journal.replay path with
        | Ok (entries, torn) ->
            Alcotest.(check int) "entries" 2 (List.length entries);
            Alcotest.(check int) "torn" 1 torn
        | Error e -> Alcotest.failf "replay: %s" (R.error_message e));
        rm path);
    Alcotest.test_case "corruption before the tail is a typed error" `Quick
      (fun () ->
        let path = tmp "journal_corrupt" in
        rm path;
        let w = R.Journal.open_writer path in
        List.iter (fun n -> R.Journal.append w (entry n)) [ 1; 2 ];
        R.Journal.close w;
        let lines = String.split_on_char '\n' (read_file path) in
        (match lines with
        | a :: b :: rest ->
            write_raw path
              (String.concat "\n" ((a ^ "X") :: b :: rest))
        | _ -> Alcotest.fail "journal too short");
        (match R.Journal.replay path with
        | Error (R.Corrupt _) -> ()
        | Error e -> Alcotest.failf "wanted Corrupt, got %s" (R.error_message e)
        | Ok _ -> Alcotest.fail "corrupt journal replayed");
        rm path);
    Alcotest.test_case "reset truncates; replay is empty after" `Quick
      (fun () ->
        let path = tmp "journal_reset" in
        rm path;
        let w = R.Journal.open_writer path in
        R.Journal.append w (entry 1);
        R.Journal.reset w;
        R.Journal.append w (entry 2);
        R.Journal.close w;
        (match R.Journal.replay path with
        | Ok (entries, 0) ->
            Alcotest.(check (list string))
              "post-reset entries"
              [ Util.Json.to_string (entry 2) ]
              (List.map Util.Json.to_string entries)
        | Ok (_, t) -> Alcotest.failf "%d torn lines" t
        | Error e -> Alcotest.failf "replay: %s" (R.error_message e));
        rm path);
  ]

(* ------------------------------------------------------------------ *)
(* Kill-invariance: resume from any checkpoint = never interrupted     *)
(* ------------------------------------------------------------------ *)

let strip evs =
  List.map
    (fun j -> Util.Json.to_string (Obs.Trace.strip_timing j))
    (Obs.Trace.events evs)

let take n l = List.filteri (fun i _ -> i < n) l

let stoch_eq label (a : Stoch.result) (b : Stoch.result) =
  Int64.bits_of_float a.best_time = Int64.bits_of_float b.best_time
  && a.best_moves = b.best_moves
  && Array.length a.curve = Array.length b.curve
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a.curve b.curve
  && a.evals = b.evals && a.skipped = b.skipped && a.deduped = b.deduped
  && a.visited = b.visited && a.failures = b.failures
  ||
  (Printf.eprintf "%s: resumed result differs\n" label;
   false)

(* Run the uninterrupted reference, snapshotting the checkpoint file as
   it stood when evaluation [k] started — exactly what a SIGKILL at
   that index leaves behind (Store.save is atomic).  Then resume from
   the snapshot and demand equality. *)
let kill_point_invariant meth k =
  let budget = 16 and every = 2 in
  let root = Kernels.relu ~n:4 ~m:4 in
  let name = match meth with `Sampling -> "sampling" | `Annealing -> "sa" in
  let ck = tmp (Printf.sprintf "ck_%s_%d" name k) in
  let snap = ck ^ ".snap" in
  rm ck;
  rm snap;
  let engine ~ck ~resume ~obs ~tick =
    Parallel.Pool.with_pool ~jobs:1 (fun pool ->
        let checkpoint = { Search.Checkpoint.path = ck; every; resume } in
        let objective p =
          tick ();
          time p
        in
        match meth with
        | `Sampling ->
            Stoch.random_sampling ~seed:11 ~obs ~checkpoint
              ~batch:Stoch.default_batch ~pool ~space:Stoch.Heuristic ~budget
              caps_cpu objective root
        | `Annealing ->
            Stoch.simulated_annealing ~seed:11 ~obs ~checkpoint
              ~batch:Stoch.default_batch ~pool ~space:Stoch.Heuristic ~budget
              caps_cpu objective root)
  in
  let obs_ref = Obs.Trace.make_buffer () in
  let seen = ref 0 in
  let reference =
    engine ~ck ~resume:false ~obs:obs_ref ~tick:(fun () ->
        incr seen;
        if !seen = k && Sys.file_exists ck then copy_file ck snap)
  in
  let events =
    match R.Store.load ~path:snap with
    | Ok p -> R.Field.int "events" p
    | Error (R.Missing _) -> 0 (* killed before the first checkpoint *)
    | Error e -> Alcotest.failf "snapshot: %s" (R.error_message e)
  in
  let obs_res = Obs.Trace.make_buffer () in
  let calls = ref 0 in
  let resumed =
    engine ~ck:snap ~resume:true ~obs:obs_res ~tick:(fun () -> incr calls)
  in
  let ref_stripped = strip obs_ref in
  let ok =
    stoch_eq (Printf.sprintf "%s k=%d" name k) reference resumed
    && take events ref_stripped @ strip obs_res = ref_stripped
    && (events = 0 || !calls < reference.evals)
  in
  rm ck;
  rm snap;
  ok

(* The same kill-point property for the state that rides in the
   checkpoint beside the search's own: the canonical visited set and a
   filtering surrogate.  Every engine run builds a fresh model, so the
   resumed run gets its model only from the checkpoint. *)
let learned_kill_point_invariant meth k =
  let budget = 16 and every = 2 in
  let root = Kernels.relu ~n:4 ~m:4 in
  let name = match meth with `Sampling -> "sampling" | `Annealing -> "sa" in
  let ck = tmp (Printf.sprintf "ck_learned_%s_%d" name k) in
  let snap = ck ^ ".snap" in
  rm ck;
  rm snap;
  let engine ~ck ~resume ~obs ~tick =
    Parallel.Pool.with_pool ~jobs:1 (fun pool ->
        let checkpoint = { Search.Checkpoint.path = ck; every; resume } in
        let prerank =
          Surrogate.Model.prerank ~filter_ratio:0.5 ~group:"g"
            (Surrogate.Model.create ())
        in
        let objective p =
          tick ();
          time p
        in
        match meth with
        | `Sampling ->
            Stoch.random_sampling ~seed:11 ~obs ~checkpoint ~prerank
              ~visited_dedup:true ~batch:Stoch.default_batch ~pool
              ~space:Stoch.Heuristic ~budget caps_cpu objective root
        | `Annealing ->
            Stoch.simulated_annealing ~seed:11 ~obs ~checkpoint ~prerank
              ~visited_dedup:true ~batch:Stoch.default_batch ~pool
              ~space:Stoch.Heuristic ~budget caps_cpu objective root)
  in
  let obs_ref = Obs.Trace.make_buffer () in
  let seen = ref 0 in
  let reference =
    engine ~ck ~resume:false ~obs:obs_ref ~tick:(fun () ->
        incr seen;
        if !seen = k && Sys.file_exists ck then copy_file ck snap)
  in
  let events =
    match R.Store.load ~path:snap with
    | Ok p -> R.Field.int "events" p
    | Error (R.Missing _) -> 0 (* killed before the first checkpoint *)
    | Error e -> Alcotest.failf "snapshot: %s" (R.error_message e)
  in
  let obs_res = Obs.Trace.make_buffer () in
  let calls = ref 0 in
  let resumed =
    engine ~ck:snap ~resume:true ~obs:obs_res ~tick:(fun () -> incr calls)
  in
  let ref_stripped = strip obs_ref in
  let ok =
    stoch_eq (Printf.sprintf "learned %s k=%d" name k) reference resumed
    && take events ref_stripped @ strip obs_res = ref_stripped
    && (events = 0 || !calls < reference.evals)
  in
  rm ck;
  rm snap;
  ok

let invariance_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:16
         ~name:"sampling: resume from any kill point = uninterrupted run"
         QCheck.(int_range 1 16)
         (kill_point_invariant `Sampling));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:16
         ~name:"annealing: resume from any kill point = uninterrupted run"
         QCheck.(int_range 1 16)
         (kill_point_invariant `Annealing));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:16
         ~name:
           "sampling with visited set and surrogate: resume from any kill \
            point = uninterrupted run"
         QCheck.(int_range 1 16)
         (learned_kill_point_invariant `Sampling));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:16
         ~name:
           "annealing with visited set and surrogate: resume from any kill \
            point = uninterrupted run"
         QCheck.(int_range 1 16)
         (learned_kill_point_invariant `Annealing));
    Alcotest.test_case "annealing: a path that no longer replays is Corrupt"
      `Quick (fun () ->
        let root = Kernels.relu ~n:4 ~m:4 in
        let ck = tmp "ck_bogus" in
        rm ck;
        let run ~resume =
          Parallel.Pool.with_pool ~jobs:1 (fun pool ->
              Stoch.simulated_annealing ~seed:11
                ~checkpoint:{ Search.Checkpoint.path = ck; every = 1; resume }
                ~batch:Stoch.default_batch ~pool ~space:Stoch.Heuristic
                ~budget:16 caps_cpu time root)
        in
        ignore (run ~resume:false);
        let payload =
          match R.Store.load ~path:ck with
          | Ok p -> p
          | Error e -> Alcotest.failf "checkpoint: %s" (R.error_message e)
        in
        (* rewritten through the store, so the checksum stays valid and
           only the move path is wrong *)
        let open Util.Json in
        let with_member name f = function
          | Obj fields ->
              Obj
                (List.map
                   (fun (k, v) -> if k = name then (k, f v) else (k, v))
                   fields)
          | _ -> Alcotest.fail "checkpoint payload is not an object"
        in
        R.Store.save ~path:ck
          (with_member "best"
             (with_member "moves" (fun _ -> Arr [ Str "bogus(move)" ]))
             payload);
        (match run ~resume:true with
        | _ -> Alcotest.fail "resumed from a path that does not replay"
        | exception R.Error (R.Corrupt _) -> ());
        rm ck);
    Alcotest.test_case
      "exhaustive: resume re-certifies the optimum, strictly cheaper"
      `Quick (fun () ->
        let root = Kernels.scale ~n:8 in
        let depth = 2 in
        let ck = tmp "ck_exhaustive" in
        let snap = ck ^ ".snap" in
        rm ck;
        rm snap;
        let run ~ck ~resume ~obs ~tick =
          Search.Exhaustive.run ~obs
            ~checkpoint:{ Search.Checkpoint.path = ck; every = 1; resume }
            ~depth caps_cpu
            (fun p ->
              tick ();
              time p)
            root
        in
        let obs_ref = Obs.Trace.make_buffer () in
        let snapped = ref false in
        let reference =
          (* snapshot at the first evaluation that can see a completed-
             level checkpoint on disk: what SIGKILL just after the
             first BFS level leaves behind *)
          run ~ck ~resume:false ~obs:obs_ref ~tick:(fun () ->
              if (not !snapped) && Sys.file_exists ck then begin
                copy_file ck snap;
                snapped := true
              end)
        in
        Alcotest.(check bool) "a mid-run checkpoint existed" true !snapped;
        let events =
          match R.Store.load ~path:snap with
          | Ok p -> R.Field.int "events" p
          | Error e -> Alcotest.failf "snapshot: %s" (R.error_message e)
        in
        let obs_res = Obs.Trace.make_buffer () in
        let calls = ref 0 in
        let resumed =
          run ~ck:snap ~resume:true ~obs:obs_res ~tick:(fun () ->
              incr calls)
        in
        Alcotest.(check bool) "reference certified" true reference.certified;
        Alcotest.(check bool) "resumed certified" true resumed.certified;
        Alcotest.(check int64) "same optimum"
          (Int64.bits_of_float reference.best_time)
          (Int64.bits_of_float resumed.best_time);
        Alcotest.(check (list string))
          "same schedule" reference.best_moves resumed.best_moves;
        Alcotest.(check int) "same unique" reference.unique resumed.unique;
        Alcotest.(check int) "same evals" reference.evals resumed.evals;
        let ref_stripped = strip obs_ref in
        Alcotest.(check bool) "trace splice" true
          (take events ref_stripped @ strip obs_res = ref_stripped);
        Alcotest.(check bool) "strictly cheaper than cold restart" true
          (!calls < reference.evals);
        rm ck;
        rm snap);
    Alcotest.test_case
      "exhaustive: resuming from the final checkpoint returns the run"
      `Quick (fun () ->
        let root = Kernels.scale ~n:8 in
        let ck = tmp "ck_final" in
        rm ck;
        let run ~resume objective =
          Search.Exhaustive.run
            ~checkpoint:{ Search.Checkpoint.path = ck; every = 1; resume }
            ~depth:3 caps_cpu objective root
        in
        let reference = run ~resume:false time in
        (* the last level's states are never expanded and the file keeps
           only their move paths, byte for byte as recorded when the walk
           still held their programs *)
        Alcotest.(check string) "final checkpoint bytes"
          "54d87c670671e685c83f76fb4d35d393"
          (Digest.to_hex (Digest.file ck));
        let calls = ref 0 in
        let resumed =
          run ~resume:true (fun p ->
              incr calls;
              time p)
        in
        Alcotest.(check int) "nothing re-evaluated" 0 !calls;
        Alcotest.(check int64) "same optimum"
          (Int64.bits_of_float reference.best_time)
          (Int64.bits_of_float resumed.best_time);
        Alcotest.(check (list string))
          "same schedule" reference.best_moves resumed.best_moves;
        Alcotest.(check string) "same program"
          (Ir.Printer.program reference.best)
          (Ir.Printer.program resumed.best);
        List.iter
          (fun (what, a, b) -> Alcotest.(check int) what a b)
          [
            ("unique", reference.unique, resumed.unique);
            ("total", reference.total, resumed.total);
            ("evals", reference.evals, resumed.evals);
            ("failures", reference.failures, resumed.failures);
            ("reached_depth", reference.reached_depth, resumed.reached_depth);
          ];
        Alcotest.(check (pair bool bool))
          "same certificate"
          (reference.certified, reference.exhausted)
          (resumed.certified, resumed.exhausted);
        rm ck);
  ]

(* ------------------------------------------------------------------ *)
(* Serve WAL: acknowledged deposits survive an unclean death           *)
(* ------------------------------------------------------------------ *)

module S = Serve.Server
module P = Serve.Protocol

let fresh_db name =
  let db = tmp name in
  rm db;
  rm (db ^ ".wal");
  db

let serve_cfg db =
  {
    S.default_config with
    S.workers = 1;
    default_budget = 4;
    kernels = Kernels.snitch_micro;
    db_file = Some db;
  }

let optimize server id kernel =
  match
    S.submit server
      (P.Optimize
         {
           id;
           kernel;
           target = "snitch";
           strategy = "sampling";
           budget = 0;
           deadline_ms = 0;
           force = false;
         })
  with
  | P.Optimized _ -> ()
  | r -> Alcotest.failf "optimize: %s" (P.response_kind r)

(* A fresh load of [db], as another process would read it, holds a
   record for each kernel. *)
let holds_all db kernels =
  match Tuning.Db.load db with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok d ->
      List.iter
        (fun kernel ->
          Alcotest.(check bool)
            (kernel ^ " visible") true
            (Tuning.Db.best d ~kernel ~target:"snitch" <> None))
        kernels

let serve_tests =
  [
    Alcotest.test_case "journal replay restores every acknowledged deposit"
      `Quick (fun () ->
        let db = tmp "serve_db.jsonl" in
        rm db;
        rm (db ^ ".wal");
        let cfg =
          {
            S.default_config with
            S.workers = 1;
            default_budget = 4;
            kernels = Kernels.snitch_micro;
            db_file = Some db;
          }
        in
        (* first server: acknowledge deposits, then "die" without stop
           (stop would checkpoint + truncate — exactly what a crash
           skips).  The WAL must already hold both records. *)
        let server1 = S.create cfg in
        List.iteri
          (fun i kernel ->
            match
              S.submit server1
                (P.Optimize
                   {
                     id = i + 1;
                     kernel;
                     target = "snitch";
                     strategy = "sampling";
                     budget = 0;
                     deadline_ms = 0;
                     force = false;
                   })
            with
            | P.Optimized _ -> ()
            | r -> Alcotest.failf "optimize: %s" (P.response_kind r))
          [ "axpy"; "dot" ];
        Alcotest.(check bool) "WAL non-empty before crash" true
          (read_file (db ^ ".wal") <> "");
        Alcotest.(check bool) "db checkpoint not yet written" true
          (read_file db = "");
        (* second server: replay must recover both deposits *)
        let server2 = S.create cfg in
        Alcotest.(check int) "replayed count" 2
          (Obs.Metrics.counter (S.metrics server2) "journal.replayed");
        List.iteri
          (fun i kernel ->
            match
              S.submit server2 (P.Query { id = 10 + i; kernel; target = "snitch" })
            with
            | P.Queried { found = true; _ } -> ()
            | P.Queried { found = false; _ } ->
                Alcotest.failf "acknowledged deposit lost: %s" kernel
            | r -> Alcotest.failf "query: %s" (P.response_kind r))
          [ "axpy"; "dot" ];
        Alcotest.(check bool) "journal truncated after checkpoint" true
          (read_file (db ^ ".wal") = "");
        ignore (S.submit server2 (P.Shutdown { id = 99 }));
        rm db;
        rm (db ^ ".wal"));
    Alcotest.test_case
      "an outside reader sees acknowledged deposits before any checkpoint"
      `Quick (fun () ->
        let db = fresh_db "serve_reader.jsonl" in
        let server = S.create (serve_cfg db) in
        List.iteri (optimize server) [ "axpy"; "dot" ];
        holds_all db [ "axpy"; "dot" ];
        S.stop server;
        rm db;
        rm (db ^ ".wal"));
    Alcotest.test_case
      "a server's shutdown keeps another's acknowledged deposits" `Quick
      (fun () ->
        let db = fresh_db "serve_shared.jsonl" in
        let a = S.create (serve_cfg db) and b = S.create (serve_cfg db) in
        optimize a 1 "axpy";
        optimize b 2 "dot";
        S.stop a;
        (* b never stops: its deposit must survive a's checkpoint *)
        holds_all db [ "axpy"; "dot" ];
        rm db;
        rm (db ^ ".wal"));
  ]

(* ------------------------------------------------------------------ *)
(* Client deadline + bounded retry                                     *)
(* ------------------------------------------------------------------ *)

let client_tests =
  [
    Alcotest.test_case "request times out against a silent server" `Quick
      (fun () ->
        let path = tmp "slow.sock" in
        rm path;
        let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind srv (Unix.ADDR_UNIX path);
        Unix.listen srv 1;
        let t =
          Thread.create
            (fun () ->
              let fd, _ = Unix.accept srv in
              Thread.delay 3.0;
              Unix.close fd)
            ()
        in
        let t0 = Unix.gettimeofday () in
        (match
           Serve.Client.with_connection path (fun conn ->
               Serve.Client.request ~deadline_ms:150 conn
                 (P.Stats { id = 1 }))
         with
        | Error (Serve.Client.Timeout _) -> ()
        | Error e ->
            Alcotest.failf "wanted Timeout, got %s"
              (Serve.Client.error_message e)
        | Ok _ -> Alcotest.fail "silent server answered");
        Alcotest.(check bool) "deadline honored (< 2s)" true
          (Unix.gettimeofday () -. t0 < 2.0);
        Thread.join t;
        Unix.close srv;
        rm path);
    Alcotest.test_case "retry is bounded when the server never comes up"
      `Quick (fun () ->
        let path = tmp "absent.sock" in
        rm path;
        match
          Serve.Client.request_retry ~attempts:3 ~base_delay_ms:1
            ~socket:path (P.Stats { id = 1 })
        with
        | Error (Serve.Client.Transport _) -> ()
        | Error e ->
            Alcotest.failf "wanted Transport, got %s"
              (Serve.Client.error_message e)
        | Ok _ -> Alcotest.fail "request to an absent server succeeded");
  ]

(* ------------------------------------------------------------------ *)
(* Interrupt flag                                                      *)
(* ------------------------------------------------------------------ *)

let interrupt_tests =
  [
    Alcotest.test_case "SIGTERM sets the flag; reset clears it" `Quick
      (fun () ->
        R.Interrupt.install ();
        R.Interrupt.reset ();
        Alcotest.(check bool) "clean" false (R.Interrupt.requested ());
        Unix.kill (Unix.getpid ()) Sys.sigterm;
        let deadline = Unix.gettimeofday () +. 2.0 in
        while
          (not (R.Interrupt.requested ()))
          && Unix.gettimeofday () < deadline
        do
          Unix.sleepf 0.001
        done;
        Alcotest.(check bool) "flagged" true (R.Interrupt.requested ());
        R.Interrupt.reset ();
        Alcotest.(check bool) "cleared" false (R.Interrupt.requested ()));
    Alcotest.test_case
      "exhaustive without a checkpoint finishes despite a pending interrupt"
      `Quick (fun () ->
        let run () =
          Search.Exhaustive.run ~depth:2 caps_cpu time (Kernels.scale ~n:8)
        in
        let plain = run () in
        let flagged =
          Interrupt_flag.with_set (fun () ->
              Alcotest.(check bool) "flag set" true (R.Interrupt.requested ());
              run ())
        in
        Alcotest.(check bool) "certified" true flagged.certified;
        Alcotest.(check int64) "same optimum"
          (Int64.bits_of_float plain.best_time)
          (Int64.bits_of_float flagged.best_time);
        Alcotest.(check (list string))
          "same schedule" plain.best_moves flagged.best_moves;
        Alcotest.(check int) "same unique" plain.unique flagged.unique;
        Alcotest.(check int) "same evals" plain.evals flagged.evals);
  ]

let () =
  Alcotest.run "recover"
    [
      ("bits", bits_tests);
      ("durable", durable_tests);
      ("store", store_tests);
      ("journal", journal_tests);
      ("invariance", invariance_tests);
      ("serve-wal", serve_tests);
      ("client", client_tests);
      ("interrupt", interrupt_tests);
    ]
