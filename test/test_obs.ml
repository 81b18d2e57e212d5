(* Tests for the observability layer: metrics registry semantics, trace
   sink ordering and canonical encoding, the zero-allocation guarantee
   of the disabled sink, span recording, engine events, and the
   jobs-invariance of traced parallel search. *)

let caps_x86 = Machine.caps (Machine.Desc.Cpu Machine.Desc.xeon_e5_2695v4)
let time_x86 p = Machine.time (Machine.Desc.Cpu Machine.Desc.xeon_e5_2695v4) p

let metrics_tests =
  [
    Alcotest.test_case "counters accumulate and default to 0" `Quick
      (fun () ->
        let m = Obs.Metrics.create () in
        Alcotest.(check int) "absent" 0 (Obs.Metrics.counter m "c");
        Obs.Metrics.incr m "c";
        Obs.Metrics.incr m ~by:41 "c";
        Alcotest.(check int) "42" 42 (Obs.Metrics.counter m "c");
        Obs.Metrics.incr m ~by:(-2) "c";
        Alcotest.(check int) "negative by" 40 (Obs.Metrics.counter m "c"));
    Alcotest.test_case "gauges keep the latest value" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        Alcotest.(check bool) "absent" true (Obs.Metrics.gauge m "g" = None);
        Obs.Metrics.set m "g" 1.5;
        Obs.Metrics.set m "g" 2.5;
        Alcotest.(check (option (float 0.0))) "latest" (Some 2.5)
          (Obs.Metrics.gauge m "g"));
    Alcotest.test_case "histogram summary has exact quantiles" `Quick
      (fun () ->
        let m = Obs.Metrics.create () in
        for i = 1 to 100 do
          Obs.Metrics.observe m "h" (float_of_int i)
        done;
        match Obs.Metrics.histogram m "h" with
        | None -> Alcotest.fail "no histogram"
        | Some s ->
            Alcotest.(check int) "count" 100 s.count;
            Alcotest.(check (float 1e-9)) "sum" 5050.0 s.sum;
            Alcotest.(check (float 1e-9)) "min" 1.0 s.min;
            Alcotest.(check (float 1e-9)) "max" 100.0 s.max;
            Alcotest.(check (float 1e-9)) "mean" 50.5 s.mean;
            Alcotest.(check (float 1.0)) "p50 near median" 50.5 s.p50;
            Alcotest.(check (float 1.5)) "p90" 90.0 s.p90);
    Alcotest.test_case
      "lazy counter registration under concurrency never races snapshot"
      `Quick (fun () ->
        (* the surrogate engine registers its counters lazily (first
           bump creates the entry) from pool workers while --stats /
           serve snapshot concurrently: fresh names racing snapshot
           must lose no increments and corrupt no sections *)
        let m = Obs.Metrics.create () in
        let writers = 6 and per_writer = 400 in
        let snapshots = ref 0 in
        let stop = Atomic.make false in
        let reader =
          Domain.spawn (fun () ->
              while not (Atomic.get stop) do
                let s = Obs.Metrics.snapshot m in
                incr snapshots;
                (* sections stay sorted even mid-registration *)
                ignore
                  (List.fold_left
                     (fun prev (name, _) ->
                       if prev >= name then
                         Alcotest.failf "unsorted snapshot at %s" name;
                       name)
                     "" s.counters)
              done)
        in
        let workers =
          List.init writers (fun w ->
              Domain.spawn (fun () ->
                  for i = 1 to per_writer do
                    (* a fresh name per (writer, phase): registration
                       itself races, not just the increments *)
                    Obs.Metrics.incr m
                      (Printf.sprintf "surrogate.w%d.%d" w (i mod 8))
                  done))
        in
        List.iter Domain.join workers;
        Atomic.set stop true;
        Domain.join reader;
        for w = 0 to writers - 1 do
          let total = ref 0 in
          for k = 0 to 7 do
            total :=
              !total
              + Obs.Metrics.counter m (Printf.sprintf "surrogate.w%d.%d" w k)
          done;
          Alcotest.(check int)
            (Printf.sprintf "writer %d increments all land" w)
            per_writer !total
        done;
        Alcotest.(check bool) "snapshots ran concurrently" true
          (!snapshots > 0));
    Alcotest.test_case "snapshot sections are sorted" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        Obs.Metrics.incr m "zz";
        Obs.Metrics.incr m "aa";
        Obs.Metrics.set m "g2" 1.0;
        Obs.Metrics.set m "g1" 2.0;
        let s = Obs.Metrics.snapshot m in
        Alcotest.(check (list string))
          "counters" [ "aa"; "zz" ]
          (List.map fst s.counters);
        Alcotest.(check (list string))
          "gauges" [ "g1"; "g2" ]
          (List.map fst s.gauges));
  ]

(* a top-level thunk so the no-allocation test cannot accidentally
   allocate a closure capturing locals *)
let static_fields () = [ Obs.Trace.int "x" 1 ]

let trace_tests =
  [
    Alcotest.test_case "buffer sink preserves emission order" `Quick
      (fun () ->
        let s = Obs.Trace.make_buffer () in
        Obs.Trace.emit s "a" (fun () -> [ Obs.Trace.int "i" 1 ]);
        Obs.Trace.emit s "b" (fun () -> [ Obs.Trace.str "k" "v" ]);
        let names =
          List.filter_map
            (fun e ->
              Option.bind (Util.Json.member "ev" e) Util.Json.to_str)
            (Obs.Trace.events s)
        in
        Alcotest.(check (list string)) "order" [ "a"; "b" ] names);
    Alcotest.test_case "events are canonical JSONL" `Quick (fun () ->
        let s = Obs.Trace.make_buffer () in
        Obs.Trace.emit s "e" (fun () ->
            [
              Obs.Trace.num "f" 0.1;
              Obs.Trace.int "i" (-3);
              Obs.Trace.bool "b" true;
              Obs.Trace.str "s" "q\"uote";
            ]);
        List.iter
          (fun ev ->
            let line = Util.Json.to_string ev in
            match Util.Json.of_string line with
            | Error msg -> Alcotest.failf "re-parse: %s" msg
            | Ok ev' ->
                Alcotest.(check string) "byte-identical" line
                  (Util.Json.to_string ev'))
          (Obs.Trace.events s));
    Alcotest.test_case "strip_timing drops exactly dur_s and t_s" `Quick
      (fun () ->
        let s = Obs.Trace.make_buffer () in
        Obs.Trace.emit s "e" (fun () ->
            [
              Obs.Trace.num "dur_s" 1.0;
              Obs.Trace.int "keep" 2;
              Obs.Trace.num "t_s" 3.0;
            ]);
        let stripped =
          List.map Obs.Trace.strip_timing (Obs.Trace.events s)
        in
        List.iter
          (fun e ->
            Alcotest.(check bool) "dur_s gone" true
              (Util.Json.member "dur_s" e = None);
            Alcotest.(check bool) "t_s gone" true
              (Util.Json.member "t_s" e = None);
            Alcotest.(check bool) "keep kept" true
              (Util.Json.member "keep" e <> None))
          stripped);
    Alcotest.test_case "append folds buffers in order" `Quick (fun () ->
        let a = Obs.Trace.make_buffer () in
        let b = Obs.Trace.make_buffer () in
        Obs.Trace.emit a "a1" (fun () -> []);
        Obs.Trace.emit b "b1" (fun () -> []);
        Obs.Trace.emit b "b2" (fun () -> []);
        Obs.Trace.append ~into:a b;
        let names =
          List.filter_map
            (fun e ->
              Option.bind (Util.Json.member "ev" e) Util.Json.to_str)
            (Obs.Trace.events a)
        in
        Alcotest.(check (list string)) "order" [ "a1"; "b1"; "b2" ] names);
    Alcotest.test_case "null sink is disabled and free" `Quick (fun () ->
        Alcotest.(check bool) "disabled" false
          (Obs.Trace.enabled Obs.Trace.null);
        Alcotest.(check bool) "buffer enabled" true
          (Obs.Trace.enabled (Obs.Trace.make_buffer ()));
        (* emit on the null sink must not evaluate the thunk *)
        Obs.Trace.emit Obs.Trace.null "e" (fun () ->
            Alcotest.fail "thunk evaluated on null sink");
        (* and the guarded idiom must not allocate at all *)
        let w0 = Gc.minor_words () in
        for _ = 1 to 10_000 do
          if Obs.Trace.enabled Obs.Trace.null then
            Obs.Trace.emit Obs.Trace.null "e" static_fields
        done;
        let w1 = Gc.minor_words () in
        Alcotest.(check bool) "no allocation" true (w1 -. w0 < 64.0));
  ]

let span_tests =
  [
    Alcotest.test_case "run records event and histogram" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        let s = Obs.Trace.make_buffer () in
        let v = Obs.Span.run ~metrics:m ~trace:s "phase" (fun () -> 7) in
        Alcotest.(check int) "value" 7 v;
        (match Obs.Metrics.histogram m "span.phase" with
        | Some sum -> Alcotest.(check int) "one sample" 1 sum.count
        | None -> Alcotest.fail "no span histogram");
        match Obs.Trace.events s with
        | [ ev ] ->
            Alcotest.(check (option string))
              "span event" (Some "span")
              (Option.bind (Util.Json.member "ev" ev) Util.Json.to_str);
            Alcotest.(check (option string))
              "name" (Some "phase")
              (Option.bind (Util.Json.member "name" ev) Util.Json.to_str)
        | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
    Alcotest.test_case "run records even when f raises" `Quick (fun () ->
        let m = Obs.Metrics.create () in
        (try
           Obs.Span.run ~metrics:m "boom" (fun () -> failwith "die")
         with Failure _ -> ());
        match Obs.Metrics.histogram m "span.boom" with
        | Some s -> Alcotest.(check int) "recorded" 1 s.count
        | None -> Alcotest.fail "span lost on exception");
  ]

let engine_tests =
  [
    Alcotest.test_case "session emits enumerate/apply/undo events" `Quick
      (fun () ->
        let obs = Obs.Trace.make_buffer () in
        let session =
          Transform.Engine.start ~obs caps_x86 (Kernels.scale ~n:64)
        in
        (match Transform.Engine.applicable session with
        | [] -> Alcotest.fail "no applicable moves"
        | inst :: _ ->
            ignore (Transform.Engine.apply session inst);
            ignore (Transform.Engine.undo session));
        let names =
          List.filter_map
            (fun e ->
              Option.bind (Util.Json.member "ev" e) Util.Json.to_str)
            (Obs.Trace.events obs)
        in
        Alcotest.(check (list string))
          "event sequence"
          [ "engine.enumerate"; "engine.apply"; "engine.undo" ]
          names);
  ]

let search_tests =
  [
    Alcotest.test_case "sequential annealing traces steps and metrics"
      `Quick (fun () ->
        let obs = Obs.Trace.make_buffer () in
        let m = Obs.Metrics.create () in
        let r =
          Search.Stochastic.simulated_annealing ~seed:3 ~obs ~metrics:m
            ~space:Search.Stochastic.Heuristic ~budget:12 caps_x86 time_x86
            (Kernels.scale ~n:64)
        in
        Alcotest.(check int) "evals" 12 r.evals;
        Alcotest.(check int) "steps counter" 12
          (Obs.Metrics.counter m "search.steps");
        let names =
          List.filter_map
            (fun e ->
              Option.bind (Util.Json.member "ev" e) Util.Json.to_str)
            (Obs.Trace.events obs)
        in
        Alcotest.(check bool) "starts with search.start" true
          (List.hd names = "search.start");
        Alcotest.(check int) "one step event per eval" 12
          (List.length (List.filter (( = ) "search.step") names));
        match Obs.Metrics.gauge m "search.acceptance_rate" with
        | Some rate ->
            Alcotest.(check bool) "rate in [0,1]" true
              (rate >= 0.0 && rate <= 1.0)
        | None -> Alcotest.fail "no acceptance rate");
    Alcotest.test_case "traced parallel search is jobs-invariant" `Quick
      (fun () ->
        let run jobs =
          let obs = Obs.Trace.make_buffer () in
          let r =
            Parallel.Pool.with_pool ~jobs (fun pool ->
                Search.Stochastic.simulated_annealing ~seed:5 ~obs
                  ~batch:6 ~pool ~space:Search.Stochastic.Heuristic
                  ~budget:18 caps_x86 time_x86 (Kernels.scale ~n:64))
          in
          (r, List.map Obs.Trace.strip_timing (Obs.Trace.events obs))
        in
        let r1, t1 = run 1 in
        let r3, t3 = run 3 in
        Alcotest.(check (float 0.0)) "same best" r1.best_time r3.best_time;
        Alcotest.(check (list string))
          "same moves" r1.best_moves r3.best_moves;
        Alcotest.(check int) "same event count" (List.length t1)
          (List.length t3);
        List.iter2
          (fun a b ->
            Alcotest.(check string)
              "same stripped event" (Util.Json.to_string a)
              (Util.Json.to_string b))
          t1 t3);
    Alcotest.test_case "optimize --stats style run exports cache and pool"
      `Quick (fun () ->
        let m = Obs.Metrics.create () in
        let cache = Tuning.Cache.create () in
        let target = Machine.Desc.Cpu Machine.Desc.xeon_e5_2695v4 in
        let o =
          Perfdojo.optimize_ctx
            ~ctx:
              Perfdojo.Ctx.(
                default |> with_cache cache |> with_jobs 2 |> with_metrics m)
            (Perfdojo.Annealing
               { budget = 10; space = Search.Stochastic.Heuristic })
            target (Kernels.scale ~n:64)
        in
        Alcotest.(check bool) "ran" true (o.evaluations > 0);
        Alcotest.(check bool) "cache counters exported" true
          (Obs.Metrics.counter m "cache.hits"
           + Obs.Metrics.counter m "cache.misses"
          > 0);
        (match Obs.Metrics.gauge m "pool.jobs" with
        | Some j -> Alcotest.(check (float 0.0)) "pool.jobs" 2.0 j
        | None -> Alcotest.fail "pool not exported");
        match Obs.Metrics.histogram m "span.search" with
        | Some s -> Alcotest.(check bool) "search span" true (s.count >= 1)
        | None -> Alcotest.fail "no search span");
  ]

let () =
  Alcotest.run "obs"
    [
      ("metrics", metrics_tests);
      ("trace", trace_tests);
      ("span", span_tests);
      ("engine", engine_tests);
      ("search", search_tests);
    ]
