(* Tests for the Perfdojo facade: the Game API and one-call optimize. *)

open Perfdojo

let target_cpu = Machine.Desc.Cpu Machine.Desc.avx512_cpu
let target_snitch = Machine.Desc.Snitch Machine.Desc.snitch_cluster
let target_gpu = Machine.Desc.Gpu Machine.Desc.gh200

(* [optimize_ctx] under the default context with the given seed/jobs *)
let optimize ?(seed = 1) ?(jobs = 0) =
  optimize_ctx ~ctx:Ctx.(default |> with_seed seed |> with_jobs jobs)

let game_tests =
  [
    Alcotest.test_case "start validates the program" `Quick (fun () ->
        let bad : Ir.Prog.t =
          {
            buffers = [ Ir.Types.buffer "z" Ir.Types.F32 [ 2 ] ];
            inputs = [];
            outputs = [ "z" ];
            body =
              [
                Ir.Types.scope 4
                  [
                    Ir.Types.Stmt
                      {
                        dst = { array = "z"; idx = [ Ir.Index.iter 0 ] };
                        rhs = Const 1.0;
                      };
                  ];
              ];
          }
        in
        Alcotest.check_raises "invalid program rejected"
          (Ir.Validate.Invalid
             [ Ir.Validate.Out_of_bounds ("z", 0, 3, 2) ])
          (fun () -> ignore (Game.start target_cpu bad)));
    Alcotest.test_case "moves and play round trip" `Quick (fun () ->
        let game = Game.start target_cpu (Kernels.relu ~n:8 ~m:8) in
        let moves = Game.moves game in
        Alcotest.(check bool) "has moves" true (moves <> []);
        let t0 = Game.time game in
        let _ = Game.play game (fst (List.hd moves)) in
        Alcotest.(check int) "one move recorded" 1
          (List.length (Game.moves_played game));
        ignore t0);
    Alcotest.test_case "play_named rejects unknown moves" `Quick (fun () ->
        let game = Game.start target_cpu (Kernels.relu ~n:8 ~m:8) in
        Alcotest.check_raises "bad move"
          (Invalid_argument "Game.play_named: \"frobnicate\" not applicable")
          (fun () -> ignore (Game.play_named game "frobnicate")));
    Alcotest.test_case "reward is c over runtime" `Quick (fun () ->
        let game = Game.start target_cpu (Kernels.relu ~n:64 ~m:64) in
        (* at the start, reward = t0 / t0 = 1 *)
        Alcotest.(check (float 1e-6)) "initial reward" 1.0 (Game.reward game);
        let _ = Game.play_named game "parallelize([0])" in
        Alcotest.(check bool) "improves" true (Game.reward game > 1.0));
    Alcotest.test_case "verify detects nothing wrong after real moves"
      `Quick (fun () ->
        let game = Game.start target_cpu (Kernels.softmax ~n:4 ~m:8) in
        let rec play_some n =
          if n > 0 then begin
            let moves = Game.moves game in
            if moves <> [] then begin
              ignore (Game.play game (fst (List.hd moves)));
              play_some (n - 1)
            end
          end
        in
        play_some 4;
        match Game.verify game with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
  ]

let optimize_tests =
  [
    Alcotest.test_case "all strategies return valid improvements" `Quick
      (fun () ->
        let p = Kernels.gemv ~m:32 ~n:32 in
        let t0 = Machine.time target_snitch p in
        List.iter
          (fun (name, strategy) ->
            let o = optimize ~seed:3 strategy target_snitch p in
            Ir.Validate.check_exn o.schedule;
            Alcotest.(check bool)
              (Printf.sprintf "%s: %.2e <= %.2e" name o.time_s t0)
              true
              (o.time_s <= t0 *. 1.0001);
            match Interp.equivalent ~tol:1e-4 p o.schedule with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: %s" name e)
          [
            ("naive", Naive);
            ("greedy", Greedy);
            ("heuristic", Heuristic);
            ( "sampling",
              Sampling { budget = 40; space = Search.Stochastic.Edges } );
            ( "annealing",
              Annealing { budget = 40; space = Search.Stochastic.Heuristic }
            );
            ( "rl",
              Rl_search
                {
                  Rl.Perfllm.default_config with
                  episodes = 4;
                  max_steps = 6;
                  action_cap = 12;
                } );
          ]);
    Alcotest.test_case "optimize_best picks the winner" `Quick (fun () ->
        let p = Kernels.relu ~n:64 ~m:64 in
        let b = optimize_best ~ctx:Ctx.default ~budget:40 target_cpu p in
        let h = optimize Heuristic target_cpu p in
        Alcotest.(check bool) "best <= heuristic" true (b.time_s <= h.time_s));
    Alcotest.test_case "gpu heuristic strategy maps to the device" `Quick
      (fun () ->
        let p = Kernels.add ~n:256 ~m:256 in
        let o = optimize Heuristic target_gpu p in
        Alcotest.(check bool) "grid mapped" true
          (Codegen.contains_gpu o.schedule));
  ]

let parallel_facade_tests =
  [
    Alcotest.test_case "optimize is jobs-invariant for a search strategy"
      `Quick (fun () ->
        let p = Kernels.gemv ~m:32 ~n:32 in
        let strat =
          Annealing { budget = 40; space = Search.Stochastic.Heuristic }
        in
        let a = optimize ~seed:6 ~jobs:1 strat target_snitch p in
        let b = optimize ~seed:6 ~jobs:4 strat target_snitch p in
        Alcotest.(check (float 0.0)) "time" a.time_s b.time_s;
        Alcotest.(check (list string)) "moves" a.moves b.moves;
        Alcotest.(check int) "evals" a.evaluations b.evaluations);
    Alcotest.test_case "portfolio returns its best member's schedule" `Quick
      (fun () ->
        let p = Kernels.relu ~n:32 ~m:32 in
        let members = Perfdojo.default_portfolio ~seed:2 ~budget:30 () in
        let o, winner =
          Perfdojo.optimize_portfolio_ctx
            ~ctx:Ctx.(default |> with_jobs 2)
            ~members target_cpu p
        in
        Ir.Validate.check_exn o.schedule;
        Alcotest.(check bool) "winner is a member" true
          (List.exists (fun m -> m.plabel = winner) members);
        List.iter
          (fun (m : Perfdojo.portfolio_member) ->
            let solo = optimize ~seed:m.pseed m.pstrategy target_cpu p in
            Alcotest.(check bool)
              (winner ^ " beats " ^ m.plabel)
              true (o.time_s <= solo.time_s))
          members;
        match Interp.equivalent ~tol:1e-4 p o.schedule with
        | Ok () -> ()
        | Error e -> Alcotest.failf "portfolio schedule: %s" e);
    Alcotest.test_case "portfolio race is deterministic across jobs" `Quick
      (fun () ->
        let p = Kernels.gemv ~m:32 ~n:32 in
        let strat = Portfolio { budget = 25 } in
        let a = optimize ~seed:4 ~jobs:1 strat target_snitch p in
        let b = optimize ~seed:4 ~jobs:3 strat target_snitch p in
        Alcotest.(check (float 0.0)) "time" a.time_s b.time_s;
        Alcotest.(check (list string)) "moves" a.moves b.moves);
    Alcotest.test_case "portfolio rejects empty and nested members" `Quick
      (fun () ->
        let p = Kernels.relu ~n:8 ~m:8 in
        let race members =
          Perfdojo.optimize_portfolio_ctx ~ctx:Ctx.default ~members target_cpu
            p
        in
        (match race [] with
        | _ -> Alcotest.fail "accepted an empty portfolio"
        | exception Invalid_argument _ -> ());
        let nested =
          [
            {
              Perfdojo.plabel = "nested";
              pstrategy = Portfolio { budget = 5 };
              pseed = 1;
            };
          ]
        in
        match race nested with
        | _ -> Alcotest.fail "accepted a nested portfolio"
        | exception Invalid_argument _ -> ());
  ]

(* The run-context builders must be a faithful shorthand for record
   updates of [Ctx.default]: same fields, same results. *)
let check_outcome label (a : outcome) (b : outcome) =
  Alcotest.(check (float 0.0)) (label ^ " time") a.time_s b.time_s;
  Alcotest.(check (list string)) (label ^ " moves") a.moves b.moves;
  Alcotest.(check int) (label ^ " evals") a.evaluations b.evaluations;
  Alcotest.(check int) (label ^ " failures") a.failures b.failures

let ctx_tests =
  [
    Alcotest.test_case "builders agree with record updates" `Quick
      (fun () ->
        let p = Kernels.gemv ~m:32 ~n:32 in
        let strat =
          Annealing { budget = 40; space = Search.Stochastic.Heuristic }
        in
        let by_record =
          Perfdojo.optimize_ctx
            ~ctx:
              {
                Ctx.default with
                seed = 7;
                cache = Some (Tuning.Cache.create ());
                jobs = 2;
              }
            strat target_snitch p
        in
        let ctx =
          Ctx.(
            default |> with_seed 7
            |> with_cache (Tuning.Cache.create ())
            |> with_jobs 2)
        in
        check_outcome "builders" by_record
          (Perfdojo.optimize_ctx ~ctx strat target_snitch p));
    Alcotest.test_case "Ctx.default has the documented defaults" `Quick
      (fun () ->
        let d = Ctx.default in
        Alcotest.(check int) "seed" 1 d.Ctx.seed;
        Alcotest.(check int) "jobs" 0 d.Ctx.jobs;
        Alcotest.(check (list string)) "warm" [] d.Ctx.warm_start;
        Alcotest.(check bool) "cache" true (d.Ctx.cache = None);
        Alcotest.(check bool) "metrics" true (d.Ctx.metrics = None);
        Alcotest.(check bool) "checkpoint" true (d.Ctx.checkpoint = None);
        Alcotest.(check int) "exhaustive depth" 3 d.Ctx.exhaustive_depth);
    Alcotest.test_case "warm start through the context resumes the search"
      `Quick (fun () ->
        let p = Kernels.gemv ~m:32 ~n:32 in
        let strat =
          Annealing { budget = 30; space = Search.Stochastic.Heuristic }
        in
        let first = Perfdojo.optimize_ctx ~ctx:Ctx.default strat target_cpu p in
        let warm =
          Perfdojo.optimize_ctx
            ~ctx:(Ctx.with_warm_start first.moves Ctx.default)
            strat target_cpu p
        in
        let by_record =
          Perfdojo.optimize_ctx
            ~ctx:{ Ctx.default with warm_start = first.moves }
            strat target_cpu p
        in
        check_outcome "warm" by_record warm;
        Alcotest.(check bool) "no regression" true
          (warm.time_s <= first.time_s +. 1e-12));
  ]

let () =
  Alcotest.run "core"
    [
      ("game", game_tests);
      ("optimize", optimize_tests);
      ("parallel-facade", parallel_facade_tests);
      ("ctx", ctx_tests);
    ]
