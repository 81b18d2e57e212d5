(* Tests for the fault-tolerant search runtime: Robust.Guard's typed
   outcomes, retry/fuel semantics, the deterministic fault
   harness, quarantine in the stochastic searches, portfolio
   degradation, and the jobs-invariance of all of it under injected
   faults. *)

let target = Machine.Desc.Cpu Machine.Desc.xeon_e5_2695v4
let caps = Machine.caps target
let objective p = Machine.time target p

let count_eval_errors obs =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Util.Json.Obj (("ev", Util.Json.Str "search.eval_error") :: _) ->
          acc + 1
      | _ -> acc)
    0 (Obs.Trace.events obs)

(* ------------------------------------------------------------------ *)
(* Guard: typed outcomes                                               *)
(* ------------------------------------------------------------------ *)

let guard_tests =
  [
    Alcotest.test_case "a finite evaluation is Ok" `Quick (fun () ->
        match Robust.Guard.eval (fun x -> x *. 2.) 21. with
        | Ok v -> Alcotest.(check (float 0.)) "value" 42. v
        | Error _ -> Alcotest.fail "expected Ok");
    Alcotest.test_case "a raising evaluation is Rejected with its class"
      `Quick (fun () ->
        match Robust.Guard.eval (fun _ -> failwith "sim crashed") 0 with
        | Error (Robust.Guard.Rejected { cls; msg }) ->
            Alcotest.(check string) "class" "Failure" cls;
            Alcotest.(check bool) "msg mentions cause" true
              (String.length msg > 0)
        | _ -> Alcotest.fail "expected Rejected");
    Alcotest.test_case "NaN and infinities are Non_finite" `Quick (fun () ->
        (match Robust.Guard.eval (fun _ -> Float.nan) 0 with
        | Error (Robust.Guard.Non_finite v) ->
            Alcotest.(check bool) "nan" true (Float.is_nan v)
        | _ -> Alcotest.fail "nan not caught");
        match Robust.Guard.eval (fun _ -> Float.neg_infinity) 0 with
        | Error (Robust.Guard.Non_finite v) ->
            Alcotest.(check (float 0.)) "-inf" Float.neg_infinity v
        | _ -> Alcotest.fail "-inf not caught");
    Alcotest.test_case "a transient failure succeeds on retry" `Quick
      (fun () ->
        let calls = ref 0 in
        let f () =
          incr calls;
          if Robust.Guard.attempt () = 0 then
            raise (Robust.Guard.Transient "flaky")
          else float_of_int (Robust.Guard.attempt ())
        in
        match Robust.Guard.eval f () with
        | Ok v ->
            Alcotest.(check (float 0.)) "second attempt" 1. v;
            Alcotest.(check int) "two calls" 2 !calls
        | Error _ -> Alcotest.fail "retry should have succeeded");
    Alcotest.test_case "retries are bounded by max_retries" `Quick (fun () ->
        let calls = ref 0 in
        let cfg = { Robust.Guard.default with max_retries = 3 } in
        let f () =
          incr calls;
          raise (Robust.Guard.Transient "always")
        in
        (match Robust.Guard.eval ~cfg f () with
        | Error (Robust.Guard.Rejected { cls; _ }) ->
            Alcotest.(check bool) "transient class" true
              (cls = "Robust__Guard.Transient" || cls = "Guard.Transient"
             || String.length cls > 0)
        | _ -> Alcotest.fail "expected Rejected after retries");
        Alcotest.(check int) "1 try + 3 retries" 4 !calls);
    Alcotest.test_case "non-transient failures are not retried" `Quick
      (fun () ->
        let calls = ref 0 in
        let cfg = { Robust.Guard.default with max_retries = 5 } in
        let f () =
          incr calls;
          failwith "permanent"
        in
        ignore (Robust.Guard.eval ~cfg f ());
        Alcotest.(check int) "single call" 1 !calls);
    Alcotest.test_case "fuel exhaustion is Exhausted" `Quick (fun () ->
        let cfg = { Robust.Guard.default with fuel = Some 5 } in
        let f () =
          for _ = 1 to 10 do
            Robust.Guard.tick ()
          done;
          1.0
        in
        match Robust.Guard.eval ~cfg f () with
        | Error (Robust.Guard.Exhausted { fuel }) ->
            Alcotest.(check int) "budget reported" 5 fuel
        | _ -> Alcotest.fail "expected Exhausted");
    Alcotest.test_case "enough fuel completes normally" `Quick (fun () ->
        let cfg = { Robust.Guard.default with fuel = Some 100 } in
        let f () =
          for _ = 1 to 10 do
            Robust.Guard.tick ()
          done;
          7.0
        in
        match Robust.Guard.eval ~cfg f () with
        | Ok v -> Alcotest.(check (float 0.)) "value" 7.0 v
        | Error _ -> Alcotest.fail "should not exhaust");
    Alcotest.test_case "tick outside a fuelled run is a no-op" `Quick
      (fun () ->
        Robust.Guard.tick ~cost:1_000_000 ();
        Alcotest.(check int) "attempt outside run" 0
          (Robust.Guard.attempt ()));
    Alcotest.test_case "nested guards restore the outer state" `Quick
      (fun () ->
        let cfg = { Robust.Guard.default with fuel = Some 10 } in
        let inner_cfg = { Robust.Guard.default with fuel = Some 2 } in
        let f () =
          Robust.Guard.tick ();
          (* the inner evaluation exhausts its own fuel, not ours *)
          (match
             Robust.Guard.eval ~cfg:inner_cfg
               (fun () ->
                 Robust.Guard.tick ~cost:5 ();
                 0.)
               ()
           with
          | Error (Robust.Guard.Exhausted _) -> ()
          | _ -> Alcotest.fail "inner should exhaust");
          (* outer fuel is restored: 9 more ticks still fit *)
          for _ = 1 to 8 do
            Robust.Guard.tick ()
          done;
          3.0
        in
        match Robust.Guard.eval ~cfg f () with
        | Ok v -> Alcotest.(check (float 0.)) "outer survived" 3.0 v
        | Error _ -> Alcotest.fail "outer fuel was corrupted");
    Alcotest.test_case "failure_class keys are stable" `Quick (fun () ->
        Alcotest.(check string) "rejected" "rejected"
          (Robust.Guard.failure_class
             (Robust.Guard.rejected_of_exn (Failure "x")));
        Alcotest.(check string) "non_finite" "non_finite"
          (Robust.Guard.failure_class (Robust.Guard.Non_finite Float.nan));
        Alcotest.(check string) "exhausted" "exhausted"
          (Robust.Guard.failure_class (Robust.Guard.Exhausted { fuel = 3 })));
    Alcotest.test_case "instrument counts retries in metrics" `Quick
      (fun () ->
        let m = Obs.Metrics.create () in
        let cfg =
          Robust.Guard.instrument ~metrics:m
            { Robust.Guard.default with max_retries = 2 }
        in
        ignore
          (Robust.Guard.eval ~cfg
             (fun () -> raise (Robust.Guard.Transient "x"))
             ());
        Alcotest.(check int) "robust.retries" 2
          (Obs.Metrics.counter m "robust.retries"));
    Alcotest.test_case "note emits the event and bumps counters" `Quick
      (fun () ->
        let obs = Obs.Trace.make_buffer () in
        let m = Obs.Metrics.create () in
        Robust.Guard.note ~obs ~metrics:m
          (Robust.Guard.rejected_of_exn (Failure "boom"));
        Alcotest.(check int) "one event" 1 (count_eval_errors obs);
        Alcotest.(check int) "robust.eval_failures" 1
          (Obs.Metrics.counter m "robust.eval_failures");
        Alcotest.(check int) "robust.rejected" 1
          (Obs.Metrics.counter m "robust.rejected"));
  ]

(* ------------------------------------------------------------------ *)
(* Faults: the deterministic injection harness                         *)
(* ------------------------------------------------------------------ *)

let faults_tests =
  [
    Alcotest.test_case "rate 0 is the physical identity" `Quick (fun () ->
        let f x = x +. 1. in
        Alcotest.(check bool) "physically equal" true
          (Robust.Faults.wrap Robust.Faults.none f == f));
    Alcotest.test_case "spread rejects rates outside [0,1]" `Quick (fun () ->
        (match Robust.Faults.spread 1.5 with
        | _ -> Alcotest.fail "accepted 1.5"
        | exception Invalid_argument _ -> ());
        match Robust.Faults.spread (-0.1) with
        | _ -> Alcotest.fail "accepted -0.1"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "faulting is a pure function of the input" `Quick
      (fun () ->
        let cfg = Robust.Faults.spread ~seed:42 0.6 in
        let f = Robust.Faults.wrap cfg (fun x -> float_of_int x) in
        let outcome x =
          match f x with
          | v -> Ok v
          | exception e -> Error (Printexc.to_string e)
        in
        for x = 0 to 99 do
          (* compare, not (=): a NaN fault must equal itself *)
          if compare (outcome x) (outcome x) <> 0 then
            Alcotest.failf "input %d faulted non-deterministically" x
        done);
    Alcotest.test_case "a positive rate injects some of each class" `Quick
      (fun () ->
        let cfg = Robust.Faults.spread ~seed:7 0.8 in
        let f = Robust.Faults.wrap cfg (fun x -> float_of_int x) in
        let raised = ref 0 and nan = ref 0 and ok = ref 0 in
        for x = 0 to 499 do
          match f x with
          | v when Float.is_nan v -> incr nan
          | _ -> incr ok
          | exception (Robust.Faults.Injected _ | Robust.Guard.Transient _)
            ->
              incr raised
        done;
        Alcotest.(check bool) "raises seen" true (!raised > 0);
        Alcotest.(check bool) "NaNs seen" true (!nan > 0);
        Alcotest.(check bool) "successes seen" true (!ok > 0));
    Alcotest.test_case "transient faults clear on the guard's retry" `Quick
      (fun () ->
        (* find an input whose first attempt raises Transient, then show
           the guard turns it into a success via the attempt index *)
        let cfg =
          {
            Robust.Faults.none with
            fseed = 3;
            transient_rate = 0.5;
          }
        in
        let f = Robust.Faults.wrap cfg (fun x -> float_of_int x) in
        let transient_input =
          let rec find x =
            if x > 10_000 then None
            else
              match f x with
              | _ -> find (x + 1)
              | exception Robust.Guard.Transient _ -> Some x
          in
          find 0
        in
        match transient_input with
        | None -> Alcotest.fail "no transient fault in 10k inputs at 50%"
        | Some x -> (
            match Robust.Guard.eval f x with
            | Ok v -> Alcotest.(check (float 0.)) "retried" (float_of_int x) v
            | Error f ->
                Alcotest.failf "retry did not clear: %s"
                  (Robust.Guard.failure_message f)));
  ]

(* ------------------------------------------------------------------ *)
(* Quarantine in the stochastic searches                               *)
(* ------------------------------------------------------------------ *)

let quarantine_tests =
  [
    Alcotest.test_case
      "sampling survives a permanently failing objective" `Quick (fun () ->
        let p = Kernels.softmax ~n:8 ~m:8 in
        let obs = Obs.Trace.make_buffer () in
        let budget = 6 in
        let r =
          Search.Stochastic.random_sampling ~seed:1 ~obs
            ~space:Search.Stochastic.Heuristic ~budget caps
            (fun _ -> failwith "dead model")
            p
        in
        Alcotest.(check bool) "best is the root" true (r.best == p);
        Alcotest.(check (float 0.)) "best_time quarantined" infinity
          r.best_time;
        Alcotest.(check int) "root + every candidate failed" (budget + 1)
          r.failures;
        Alcotest.(check int) "events match failures" r.failures
          (count_eval_errors obs));
    Alcotest.test_case
      "annealing survives a permanently failing objective" `Quick (fun () ->
        let p = Kernels.softmax ~n:8 ~m:8 in
        let obs = Obs.Trace.make_buffer () in
        let budget = 6 in
        let r =
          Search.Stochastic.simulated_annealing ~seed:1 ~obs
            ~space:Search.Stochastic.Heuristic ~budget caps
            (fun _ -> failwith "dead model")
            p
        in
        Alcotest.(check (float 0.)) "best_time quarantined" infinity
          r.best_time;
        Alcotest.(check int) "root + every step failed" (budget + 1)
          r.failures;
        Alcotest.(check int) "events match failures" r.failures
          (count_eval_errors obs));
    Alcotest.test_case "a clean objective reports zero failures" `Quick
      (fun () ->
        let p = Kernels.softmax ~n:8 ~m:8 in
        let r =
          Search.Stochastic.simulated_annealing ~seed:1
            ~space:Search.Stochastic.Heuristic ~budget:10 caps objective p
        in
        Alcotest.(check int) "no failures" 0 r.failures;
        Alcotest.(check bool) "finite best" true
          (Float.is_finite r.best_time));
    Alcotest.test_case
      "quarantined candidates never beat a finite best" `Quick (fun () ->
        (* every odd-hash candidate fails: the winner must still verify
           and score finitely *)
        let p = Kernels.softmax ~n:8 ~m:8 in
        let flaky q =
          if Hashtbl.hash q land 1 = 1 then Float.nan else objective q
        in
        let r =
          Search.Stochastic.simulated_annealing ~seed:1
            ~space:Search.Stochastic.Heuristic ~budget:20 caps flaky p
        in
        if Float.is_finite r.best_time then
          Alcotest.(check bool) "best not a NaN candidate" true
            (not (Float.is_nan (flaky r.best))))
  ]

(* ------------------------------------------------------------------ *)
(* Portfolio degradation                                               *)
(* ------------------------------------------------------------------ *)

(* Annealing with budget = -1 is refused up front by the engine
   (Invalid_argument) — a real member crash outside the per-evaluation
   guard, which is exactly what map_result-based degradation handles. *)
let crasher seed =
  {
    Perfdojo.plabel = Printf.sprintf "crasher-%d" seed;
    pstrategy =
      Perfdojo.Annealing
        { budget = -1; space = Search.Stochastic.Heuristic };
    pseed = seed;
  }

let survivor =
  {
    Perfdojo.plabel = "survivor";
    pstrategy = Perfdojo.Heuristic;
    pseed = 1;
  }

let portfolio_tests =
  [
    Alcotest.test_case "a crashing member does not kill the race" `Quick
      (fun () ->
        let p = Kernels.softmax ~n:8 ~m:8 in
        let obs = Obs.Trace.make_buffer () in
        let outcome, label =
          Perfdojo.optimize_portfolio_ctx
            ~ctx:Perfdojo.Ctx.(default |> with_jobs 2 |> with_obs obs)
            ~members:[ crasher 2; survivor ] target p
        in
        Alcotest.(check string) "winner among survivors" "survivor" label;
        Alcotest.(check bool) "finite winner" true
          (Float.is_finite outcome.time_s);
        (* the crash is visible in the trace *)
        let member_errors =
          List.fold_left
            (fun acc ev ->
              match ev with
              | Util.Json.Obj
                  (("ev", Util.Json.Str "portfolio.member_error") :: _) ->
                  acc + 1
              | _ -> acc)
            0 (Obs.Trace.events obs)
        in
        Alcotest.(check int) "one member_error event" 1 member_errors;
        (* failures still equal the traced eval_error events: the dead
           member's partial buffer was dropped *)
        Alcotest.(check int) "accounting invariant" outcome.failures
          (count_eval_errors obs));
    Alcotest.test_case "all members dead raises Portfolio_failed" `Quick
      (fun () ->
        let p = Kernels.softmax ~n:8 ~m:8 in
        match
          Perfdojo.optimize_portfolio_ctx
            ~ctx:Perfdojo.Ctx.(with_jobs 2 default)
            ~members:[ crasher 1; crasher 2 ] target p
        with
        | _ -> Alcotest.fail "expected Portfolio_failed"
        | exception Perfdojo.Portfolio_failed errors ->
            Alcotest.(check int) "both reported" 2 (List.length errors);
            Alcotest.(check string) "member order" "crasher-1"
              (fst (List.hd errors)));
    Alcotest.test_case "empty and nested members still Invalid_argument"
      `Quick (fun () ->
        let p = Kernels.softmax ~n:8 ~m:8 in
        let race members =
          Perfdojo.optimize_portfolio_ctx ~ctx:Perfdojo.Ctx.default ~members
            target p
        in
        (match race [] with
        | _ -> Alcotest.fail "accepted empty members"
        | exception Invalid_argument _ -> ());
        let nested =
          { survivor with pstrategy = Perfdojo.Portfolio { budget = 4 } }
        in
        match race [ nested ] with
        | _ -> Alcotest.fail "accepted nested portfolio"
        | exception Invalid_argument _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* End to end: optimize under injected faults, jobs-invariant          *)
(* ------------------------------------------------------------------ *)

let optimize_under_faults =
  QCheck.Test.make ~count:6
    ~name:"optimize degrades gracefully and jobs-invariantly under faults"
    QCheck.(pair (int_bound 1000) bool)
    (fun (fseed, annealing) ->
      let p = Kernels.softmax ~n:8 ~m:8 in
      let faults = Robust.Faults.spread ~seed:fseed 0.2 in
      let strat =
        if annealing then
          Perfdojo.Annealing
            { budget = 12; space = Search.Stochastic.Heuristic }
        else
          Perfdojo.Sampling
            { budget = 12; space = Search.Stochastic.Heuristic }
      in
      let run jobs =
        let obs = Obs.Trace.make_buffer () in
        let o =
          Perfdojo.optimize_ctx
            ~ctx:
              Perfdojo.Ctx.(
                default |> with_seed 3 |> with_jobs jobs |> with_obs obs
                |> with_faults faults)
            strat target p
        in
        (o, obs)
      in
      let o1, obs1 = run 1 in
      let o4, obs4 = run 4 in
      let stripped obs =
        List.map Obs.Trace.strip_timing (Obs.Trace.events obs)
      in
      let verified =
        match Interp.equivalent p o1.schedule with
        | Ok () -> true
        | Error _ -> false
      in
      verified
      && o1.time_s = o4.time_s
      && o1.moves = o4.moves
      && o1.failures = o4.failures
      && o1.failures = count_eval_errors obs1
      && o4.failures = count_eval_errors obs4
      && stripped obs1 = stripped obs4)

let sequential_faults_accounted =
  QCheck.Test.make ~count:6
    ~name:"sequential optimize accounts failures exactly"
    QCheck.(int_bound 1000)
    (fun fseed ->
      let p = Kernels.softmax ~n:8 ~m:8 in
      let faults = Robust.Faults.spread ~seed:fseed 0.25 in
      let obs = Obs.Trace.make_buffer () in
      let o =
        Perfdojo.optimize_ctx
          ~ctx:
            Perfdojo.Ctx.(
              default |> with_seed 5 |> with_obs obs |> with_faults faults)
          (Perfdojo.Annealing
             { budget = 10; space = Search.Stochastic.Heuristic })
          target p
      in
      o.failures = count_eval_errors obs
      && match Interp.equivalent p o.schedule with
         | Ok () -> true
         | Error _ -> false)

let property_tests =
  List.map QCheck_alcotest.to_alcotest
    [ optimize_under_faults; sequential_faults_accounted ]

let () =
  Alcotest.run "robust"
    [
      ("guard", guard_tests);
      ("faults", faults_tests);
      ("quarantine", quarantine_tests);
      ("portfolio", portfolio_tests);
      ("properties", property_tests);
    ]
