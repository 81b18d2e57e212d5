(* Tests for the optimization passes and stochastic search. *)

open Machine

let sn = Desc.snitch_cluster
let target_sn = Desc.Snitch sn
let caps_sn = Desc.caps_of target_sn
let avx = Desc.avx512_cpu
let target_cpu = Desc.Cpu avx
let caps_cpu = Desc.caps_of target_cpu

let equivalent_to label reference prog =
  (* passes must preserve semantics like single moves do; check on the
     small variant of the same kernel builder *)
  match Interp.equivalent ~tol:1e-4 reference prog with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" label e

let pass_semantic_tests =
  let passes =
    [
      ("naive", fun caps p -> Search.Passes.naive caps p);
      ("greedy", fun caps p -> Search.Passes.greedy caps p);
      ("heuristic", fun caps p -> Search.Passes.heuristic caps p);
      ("cpu_heuristic", fun caps p -> Search.Passes.cpu_heuristic caps p);
      ("tile_sink_unroll", fun caps p -> Search.Passes.tile_sink_unroll caps 4 p);
    ]
  in
  List.concat_map
    (fun (pname, pass) ->
      List.map
        (fun (e : Kernels.entry) ->
          Alcotest.test_case
            (Printf.sprintf "%s preserves %s" pname e.label)
            `Quick
            (fun () ->
              let p = e.build_small () in
              let caps = if pname = "cpu_heuristic" then caps_cpu else caps_sn in
              let p' = pass caps p in
              (match Ir.Validate.check p' with
              | [] -> ()
              | errs ->
                  Alcotest.failf "%s/%s invalid: %s" pname e.label
                    (String.concat "; "
                       (List.map Ir.Validate.error_to_string errs)));
              equivalent_to (pname ^ "/" ^ e.label) p p'))
        (Kernels.snitch_micro @ [ List.nth Kernels.table3 14 (* softmax *) ]))
    passes

let gpu_pass_tests =
  let gh = Desc.gh200 in
  let caps_gpu = Desc.caps_of (Desc.Gpu gh) in
  List.map
    (fun (e : Kernels.entry) ->
      Alcotest.test_case ("gpu_heuristic preserves " ^ e.label) `Quick
        (fun () ->
          let p = e.build_small () in
          let p' = Search.Passes.gpu_heuristic caps_gpu p in
          Ir.Validate.check_exn p';
          equivalent_to ("gpu/" ^ e.label) p p'))
    Kernels.table3

let improvement_tests =
  [
    Alcotest.test_case "snitch heuristic never loses to naive" `Quick
      (fun () ->
        List.iter
          (fun (e : Kernels.entry) ->
            let p = e.build () in
            let tn = Snitch_sim.time sn (Search.Passes.naive caps_sn p) in
            let th = Snitch_sim.time sn (Search.Passes.heuristic caps_sn p) in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %.3e <= %.3e" e.label th tn)
              true
              (th <= tn *. 1.001))
          Kernels.snitch_micro);
    Alcotest.test_case "cpu heuristic helps large elementwise" `Quick
      (fun () ->
        let p = Kernels.relu ~n:4096 ~m:4096 in
        let h = Search.Passes.cpu_heuristic caps_cpu p in
        Alcotest.(check bool) "faster" true
          (Cpu_model.time avx h < Cpu_model.time avx p));
  ]

let objective target p = Machine.time target p

(* the round size the facade's pooled runs use *)
let batch = Search.Stochastic.default_batch

let stochastic_tests =
  [
    Alcotest.test_case "sampling improves over the root" `Quick (fun () ->
        let p = Kernels.softmax ~n:64 ~m:64 in
        let r =
          Search.Stochastic.random_sampling ~seed:3
            ~space:Search.Stochastic.Edges ~budget:60 caps_cpu
            (objective target_cpu) p
        in
        Alcotest.(check bool) "improved" true
          (r.best_time <= objective target_cpu p);
        Alcotest.(check int) "budget respected" 60 r.evals);
    Alcotest.test_case "annealing improves over the root" `Quick (fun () ->
        let p = Kernels.gemv ~m:64 ~n:64 in
        let r =
          Search.Stochastic.simulated_annealing ~seed:3
            ~space:Search.Stochastic.Heuristic ~budget:60 caps_sn
            (objective target_sn) p
        in
        Alcotest.(check bool) "improved" true
          (r.best_time <= objective target_sn p));
    Alcotest.test_case "curves are monotonically non-increasing" `Quick
      (fun () ->
        let p = Kernels.scale ~n:256 in
        let r =
          Search.Stochastic.random_sampling ~seed:5
            ~space:Search.Stochastic.Heuristic ~budget:40 caps_sn
            (objective target_sn) p
        in
        let ok = ref true in
        for i = 1 to Array.length r.curve - 1 do
          if r.curve.(i) > r.curve.(i - 1) +. 1e-15 then ok := false
        done;
        Alcotest.(check bool) "monotone" true !ok);
    Alcotest.test_case "best_moves replays to best program" `Quick (fun () ->
        let p = Kernels.gemv ~m:32 ~n:32 in
        let r =
          Search.Stochastic.simulated_annealing ~seed:9
            ~space:Search.Stochastic.Edges ~budget:50 caps_sn
            (objective target_sn) p
        in
        let replayed, applied =
          Search.Stochastic.replay_skipping caps_sn p r.best_moves
        in
        Alcotest.(check int) "all moves applied" (List.length r.best_moves)
          (List.length applied);
        Alcotest.(check bool) "same program" true (replayed = r.best);
        equivalent_to "search result" p r.best);
    Alcotest.test_case "search results preserve semantics" `Quick (fun () ->
        let p = Kernels.softmax ~n:8 ~m:16 in
        List.iter
          (fun space ->
            let r =
              Search.Stochastic.random_sampling ~seed:2 ~space ~budget:40
                caps_cpu (objective target_cpu) p
            in
            equivalent_to "sampled best" p r.best)
          [ Search.Stochastic.Edges; Search.Stochastic.Heuristic ]);
    Alcotest.test_case "filter restricts the move set" `Quick (fun () ->
        let p = Kernels.softmax ~n:16 ~m:16 in
        let filter (i : Transform.Xforms.instance) =
          Transform.Moveref.xname i.move = "split_scope"
        in
        let r =
          Search.Stochastic.random_sampling ~seed:4 ~filter
            ~space:Search.Stochastic.Edges ~budget:30 caps_cpu
            (objective target_cpu) p
        in
        List.iter
          (fun m ->
            Alcotest.(check bool)
              (m ^ " is a split")
              true
              (String.length m >= 11 && String.sub m 0 11 = "split_scope"))
          r.best_moves);
    Alcotest.test_case "deterministic under the same seed" `Quick (fun () ->
        let p = Kernels.gemv ~m:32 ~n:32 in
        let run () =
          (Search.Stochastic.simulated_annealing ~seed:42
             ~space:Search.Stochastic.Heuristic ~budget:40 caps_sn
             (objective target_sn) p)
            .best_time
        in
        Alcotest.(check (float 0.0)) "same result" (run ()) (run ()));
  ]

(* Golden trajectories of the sequential search, recorded before the
   sequential engines became batch 1 of the round loop: batch 1 must
   reproduce them bit for bit.  Budget 40, seed 1; [`Warm] seeds the
   search with a two-move greedy walk, [`Faults] injects
   [Faults.spread ~seed:7 0.3]. *)
let golden_tests =
  let module S = Search.Stochastic in
  let resolve name = snd (Option.get (Desc.resolve_target name)) in
  let kernels =
    [
      ("softmax", (resolve "x86", Kernels.softmax ~n:16 ~m:16));
      ("gemv", (resolve "snitch", Kernels.gemv ~m:32 ~n:32));
    ]
  in
  (* each step takes the first applicable move with the best runtime *)
  let greedy_walk caps obj p =
    let rec go p acc k =
      let pick best (i : Transform.Xforms.instance) =
        let t = obj (i.apply p) in
        match best with Some (_, u) when u <= t -> best | _ -> Some (i, t)
      in
      match
        if k = 0 then None
        else List.fold_left pick None (Transform.Xforms.all caps p)
      with
      | None -> List.rev acc
      | Some ((i : Transform.Xforms.instance), _) ->
          go (i.apply p) (Transform.Xforms.describe i :: acc) (k - 1)
    in
    go p [] 2
  in
  let run ?filter ?(obs = Obs.Trace.null) kernel meth space cond =
    let target, p = List.assoc kernel kernels in
    let caps = Desc.caps_of target in
    let obj = objective target in
    let objective, init =
      match cond with
      | `Clean -> (obj, [])
      | `Faults ->
          (Robust.Faults.wrap (Robust.Faults.spread ~seed:7 0.3) obj, [])
      | `Warm -> (obj, greedy_walk caps obj p)
    in
    match meth with
    | `Sampling ->
        S.random_sampling ?filter ~obs ~init ~space ~budget:40 caps objective
          p
    | `Annealing ->
        S.simulated_annealing ?filter ~obs ~init ~space ~budget:40 caps
          objective p
  in
  let name = function
    | `Sampling -> "sampling"
    | `Annealing -> "annealing"
    | `Clean -> "clean"
    | `Faults -> "faults"
    | `Warm -> "warm"
  in
  let golden =
    [
    ( "softmax", `Sampling, S.Edges, `Clean, "0x1.7852296352bdep-20",
      [ "split_scope([0,4] factor 2)"; "unroll([0])" ], 0 );
    ( "softmax", `Sampling, S.Edges, `Faults, "0x1.ff4e3dcc83e62p-20",
      [ "set_storage(mx -> register)"; "join_scopes([0,3])"; "unroll([0,3])" ],
      11 );
    ( "softmax", `Sampling, S.Edges, `Warm, "0x1.162677a274cf2p-20",
      [ "unroll([0])"; "join_scopes([0,3])" ], 0 );
    ( "softmax", `Sampling, S.Heuristic, `Clean, "0x1.20605a268bed5p-19",
      [ "unroll([0,3])" ], 0 );
    ( "softmax", `Sampling, S.Heuristic, `Faults, "0x1.20605a268bed5p-19",
      [ "unroll([0,3])" ], 3 );
    ( "softmax", `Sampling, S.Heuristic, `Warm, "0x1.162677a274cf2p-20",
      [ "unroll([0])"; "join_scopes([0,3])" ], 0 );
    ( "softmax", `Annealing, S.Edges, `Clean, "0x1.1d4efc9884fdep-19",
      [ "split_scope([0] factor 4)"; "split_reduction([0,0,4] into 4)";
        "split_reduction([0,0,1] into 8)"; "split_scope([0,0,1] factor 4)";
        "unroll([0,0,9])"; "unroll([0,0,8])"; "fission([0,0] at 1)";
        "set_storage(s__part -> register)";
        "pad_scope([0,0] to multiple of 8)"; "split_scope([0,1,0,0] factor 2)";
        "fission([0,1] at 5)"; "fission([0] at 1)"; "reorder([1,0,3])";
        "set_storage(s__part -> stack)"; "unroll([1,0])"; "unroll([1,0,1,0])" ],
      0 );
    ( "softmax", `Annealing, S.Edges, `Faults, "0x1.303a12d9afc29p-19",
      [ "split_scope([0] factor 4)"; "split_scope([0,0,4] factor 4)";
        "set_storage(s -> register)"; "pad_scope([0,0,4] to multiple of 8)";
        "split_scope([0,0,3] factor 8)"; "split_scope([0,0] factor 2)";
        "split_scope([0,0,0,1] factor 4)"; "set_storage(mx -> stack)";
        "pad_scope([0,0,0,1,0] to multiple of 8)"; "split_scope([0] factor 2)";
        "fission([0,0,0,0] at 3)"; "unroll([0])" ], 10 );
    ( "softmax", `Annealing, S.Edges, `Warm, "0x1.162677a274cf2p-20",
      [ "unroll([0])"; "join_scopes([0,3])" ], 0 );
    ( "softmax", `Annealing, S.Heuristic, `Clean, "0x1.20605a268bed5p-19",
      [ "unroll([0,3])" ], 0 );
    ( "softmax", `Annealing, S.Heuristic, `Faults, "0x1.20605a268bed5p-19",
      [ "unroll([0,3])" ], 4 );
    ( "softmax", `Annealing, S.Heuristic, `Warm, "0x1.162677a274cf2p-20",
      [ "unroll([0])"; "join_scopes([0,3])" ], 0 );
    ( "gemv", `Sampling, S.Edges, `Clean, "0x1.195202f97bf9cp-18",
      [ "enable_ssr([0,1])"; "split_scope([0,1] factor 8)";
        "unannotate([0,1])"; "unroll([0,1])"; "unroll([0,1,0])" ], 0 );
    ( "gemv", `Sampling, S.Edges, `Faults, "0x1.0ad328ed9b34bp-18",
      [ "enable_ssr([0,1])"; "split_scope([0] factor 8)"; "unroll([0,0])" ],
      4 );
    ( "gemv", `Sampling, S.Edges, `Warm, "0x1.0ad328ed9b34bp-18",
      [ "split_scope([0] factor 8)"; "unroll([0,0])"; "enable_ssr([0,0,1])" ],
      0 );
    ( "gemv", `Sampling, S.Heuristic, `Clean, "0x1.5be4711d12794p-18",
      [ "split_scope([0] factor 2)"; "unroll([0,0])" ], 0 );
    ( "gemv", `Sampling, S.Heuristic, `Faults, "0x1.a2c2623ab2ae7p-18",
      [], 6 );
    ( "gemv", `Sampling, S.Heuristic, `Warm, "0x1.5a481fff4ed52p-18",
      [ "split_scope([0] factor 8)"; "unroll([0,0])" ], 0 );
    ( "gemv", `Annealing, S.Edges, `Clean, "0x1.0cf8ea6aa00f9p-18",
      [ "split_scope([0] factor 2)"; "split_scope([0,0,1] factor 8)";
        "split_scope([0] factor 8)"; "pad_scope([0,0,0] to multiple of 4)";
        "split_scope([0,0,0,1,0] factor 2)"; "interchange([0,0,0,1,0])";
        "pad_scope([0] to multiple of 4)"; "unroll([0,0])";
        "interchange([0,0,0,1])"; "pad_scope([0,0,0,1] to multiple of 4)";
        "unroll([0,0,0,1,0,0])" ], 0 );
    ( "gemv", `Annealing, S.Edges, `Faults, "0x1.871c4711142d1p-18",
      [ "split_scope([0] factor 2)"; "interchange([0])";
        "split_scope([0,0] factor 8)"; "pad_scope([0,0] to multiple of 4)";
        "fission([0,0,0] at 1)"; "split_scope([0,0,1,0] factor 4)";
        "split_scope([0,0,0] factor 4)"; "split_scope([0,0,1] factor 2)";
        "unroll([0,0,0])"; "unannotate([0,0,0])"; "unroll([0,0,1])" ], 11 );
    ( "gemv", `Annealing, S.Edges, `Warm, "0x1.0016617c82eeap-18",
      [ "split_scope([0] factor 8)"; "unroll([0,0])"; "unannotate([0,0])";
        "split_scope([0,0,1] factor 8)"; "split_scope([0,0] factor 4)";
        "interchange([0,0,0,1])"; "split_scope([0,0,0,1] factor 4)";
        "interchange([0,0])"; "unroll([0,0,0,1,0,0])"; "unroll([0,0])" ], 0 );
    ( "gemv", `Annealing, S.Heuristic, `Clean, "0x1.a2c2623ab2ae7p-18",
      [], 0 );
    ( "gemv", `Annealing, S.Heuristic, `Faults, "0x1.a2c2623ab2ae7p-18",
      [], 7 );
    ( "gemv", `Annealing, S.Heuristic, `Warm, "0x1.59beafa00d9e7p-18",
      [ "split_scope([0] factor 8)"; "unroll([0,0])"; "unroll([0])" ], 0 );
    ]
  in
  List.map
    (fun (kernel, meth, space, cond, best_time, best_moves, failures) ->
      Alcotest.test_case
        (Printf.sprintf "%s %s %s %s" kernel (name meth)
           (S.(function Edges -> "edges" | Heuristic -> "heuristic") space)
           (name cond))
        `Quick
        (fun () ->
          let r = run kernel meth space cond in
          Alcotest.(check string) "best_time" best_time
            (Printf.sprintf "%h" r.best_time);
          Alcotest.(check (list string)) "best_moves" best_moves r.best_moves;
          Alcotest.(check int) "evals" 40 r.evals;
          Alcotest.(check int) "failures" failures r.failures))
    golden
  @ [
      Alcotest.test_case "a raising build counts only as a failure" `Quick
        (fun () ->
          List.iter
            (fun meth ->
              let calls = ref 0 in
              let filter _ =
                incr calls;
                if !calls = 40 then failwith "filter" else true
              in
              let r = run ~filter "softmax" meth S.Edges `Clean in
              Alcotest.(check int) (name meth ^ ": one failure") 1 r.failures;
              Alcotest.(check int)
                (name meth ^ ": evals + failures = budget")
                40 (r.evals + r.failures))
            [ `Sampling; `Annealing ]);
      Alcotest.test_case "a negative budget is refused up front" `Quick
        (fun () ->
          let p = Kernels.scale ~n:16 in
          let evaluated = ref false in
          let objective q =
            evaluated := true;
            objective target_sn q
          in
          List.iter
            (fun search ->
              match search () with
              | (_ : S.result) -> Alcotest.fail "accepted budget -1"
              | exception Invalid_argument msg ->
                  Alcotest.(check string)
                    "message" "Stochastic: budget must be >= 0" msg)
            [
              (fun () ->
                S.random_sampling ~space:S.Heuristic ~budget:(-1) caps_sn
                  objective p);
              (fun () ->
                S.simulated_annealing ~space:S.Heuristic ~budget:(-1) caps_sn
                  objective p);
              (fun () ->
                S.simulated_annealing ~batch ~space:S.Edges ~budget:(-1)
                  caps_sn objective p);
            ];
          Alcotest.(check bool) "nothing evaluated" false !evaluated);
      Alcotest.test_case "batch 1 curve includes the root" `Quick (fun () ->
          let target, p = List.assoc "gemv" kernels in
          let obs = Obs.Trace.make_buffer () in
          let r = run ~obs "gemv" `Annealing S.Heuristic `Clean in
          let is_eval j =
            Util.Json.member "ev" j = Some (Util.Json.Str "search.eval")
          in
          Alcotest.(check int) "one search.eval per evaluated slot" r.evals
            (List.length (List.filter is_eval (Obs.Trace.events obs)));
          Alcotest.(check (float 0.0)) "last point is the best" r.best_time
            r.curve.(Array.length r.curve - 1);
          let root_time = objective target p in
          Alcotest.(check bool) "no point above the root" true
            (Array.for_all (fun v -> v <= root_time) r.curve));
      Alcotest.test_case "exhaustive depth 2 on the Snitch micro-kernels"
        `Quick (fun () ->
          (* recorded from a walk that fingerprinted every child and
             held every level: skipping exact repeats and dropping the
             last level's programs must not move a certificate by a
             state or a bit *)
          List.iter
            (fun (label, tname, unique, total, evals, failures, best_time,
                  best_moves) ->
              let k =
                List.find
                  (fun (k : Kernels.entry) -> k.label = label)
                  Kernels.snitch_micro
              in
              let target = resolve tname in
              let r =
                Search.Exhaustive.run ~depth:2 (Desc.caps_of target)
                  (objective target) (k.build ())
              in
              let name what = Printf.sprintf "%s %s: %s" label tname what in
              Alcotest.(check int) (name "unique") unique r.unique;
              Alcotest.(check int) (name "total") total r.total;
              Alcotest.(check int) (name "evals") evals r.evals;
              Alcotest.(check int) (name "failures") failures r.failures;
              Alcotest.(check string) (name "best_time") best_time
                (Printf.sprintf "%h" r.best_time);
              Alcotest.(check (list string))
                (name "best_moves") best_moves r.best_moves)
            [
              ( "axpy", "x86", 64, 80, 64, 0, "0x1.0f9b056266038p-22",
                [ "split_scope([0] factor 8)"; "vectorize([0,0])" ] );
              ( "dot", "x86", 102, 119, 102, 0, "0x1.18a14decba6a5p-22",
                [ "split_reduction([1] into 8)"; "vectorize([2,0])" ] );
              ( "vecsum", "x86", 102, 119, 102, 0, "0x1.120f503a6b8fdp-22",
                [ "split_reduction([1] into 8)"; "vectorize([2,0])" ] );
              ( "gemv", "x86", 189, 260, 189, 0, "0x1.a550dadbb875fp-19",
                [ "split_reduction([0,1] into 8)"; "vectorize([0,2,0])" ] );
              ( "scale", "x86", 64, 80, 64, 0, "0x1.ca213d840baf8p-23",
                [ "split_scope([0] factor 8)"; "vectorize([0,0])" ] );
              ( "sum2d", "x86", 177, 235, 177, 0, "0x1.49cac923e98e1p-20",
                [ "split_scope([0] factor 16)"; "unroll([0,0])" ] );
              ( "softmax_micro", "x86", 1258, 2302, 1258, 0, "0x1.162677a274cf2p-18",
                [ "join_scopes([0,3])"; "unroll([0])" ] );
              ( "relu_micro", "x86", 116, 155, 116, 0, "0x1.05c9da024fd2p-22",
                [ "split_scope([0,0] factor 8)"; "vectorize([0,0,0])" ] );
              ( "axpy", "snitch", 28, 32, 28, 0, "0x1.1a202b885dcbdp-20",
                [ "enable_ssr([0])"; "enable_frep([0])" ] );
              ( "dot", "snitch", 46, 51, 46, 0, "0x1.14b099c3e981fp-18",
                [ "enable_ssr([1])"; "enable_frep([1])" ] );
              ( "vecsum", "snitch", 46, 51, 46, 0, "0x1.14b099c3e981fp-18",
                [ "enable_ssr([1])"; "enable_frep([1])" ] );
              ( "gemv", "snitch", 97, 126, 97, 0, "0x1.27476ca61b882p-16",
                [ "split_scope([0,1] factor 8)"; "unroll([0,1,0])" ] );
              ( "scale", "snitch", 28, 32, 28, 0, "0x1.1a202b885dcbdp-20",
                [ "enable_ssr([0])"; "enable_frep([0])" ] );
              ( "sum2d", "snitch", 111, 147, 111, 0, "0x1.1c0134d5c20b5p-18",
                [ "split_scope([0] factor 8)"; "unroll([0,0])" ] );
              ( "softmax_micro", "snitch", 789, 1449, 789, 0, "0x1.470580a60b4a9p-16",
                [ "split_scope([0] factor 8)"; "unroll([0,0])" ] );
              ( "relu_micro", "snitch", 72, 92, 72, 0, "0x1.05fe359450486p-19",
                [ "enable_ssr([0,0])"; "enable_frep([0,0])" ] );
            ]);
    ]
  @ (* Batched heuristic-space runs on a 2-domain pool, recorded before
       mutations drew from a per-run table: the table's hits, and the
       misses pool tasks race on, must draw exactly what replaying the
       prefix and enumerating its moves drew.  [slots] digests every
       slot's measured runtime, so each draw is pinned, not only the
       best. *)
  let slot_digest obs =
    Obs.Trace.events obs
    |> List.filter_map (fun j ->
           match (Util.Json.member "ev" j, Util.Json.member "runtime" j) with
           | Some (Util.Json.Str "search.step"), Some (Util.Json.Num t) ->
               Some (Printf.sprintf "%h" t)
           | _ -> None)
    |> String.concat "," |> Digest.string |> Digest.to_hex
  in
  List.map
    (fun (kernel, meth, best_time, best_moves, evals, slots) ->
      Alcotest.test_case
        (Printf.sprintf "%s %s heuristic batch 8 on 2 domains" kernel
           (name meth))
        `Quick
        (fun () ->
          let target, p = List.assoc kernel kernels in
          let caps = Desc.caps_of target and obj = objective target in
          let obs = Obs.Trace.make_buffer () in
          let r =
            Parallel.Pool.with_pool ~jobs:2 (fun pool ->
                match meth with
                | `Sampling ->
                    S.random_sampling ~obs ~batch:8 ~pool ~space:S.Heuristic
                      ~budget:40 caps obj p
                | `Annealing ->
                    S.simulated_annealing ~obs ~batch:8 ~pool
                      ~space:S.Heuristic ~budget:40 caps obj p)
          in
          Alcotest.(check string) "best_time" best_time
            (Printf.sprintf "%h" r.best_time);
          Alcotest.(check (list string)) "best_moves" best_moves r.best_moves;
          Alcotest.(check int) "evals" evals r.evals;
          Alcotest.(check string) "slot runtimes" slots (slot_digest obs)))
    [
      ( "softmax", `Annealing, "0x1.5798ee2308c3ap-20", [ "unroll([0])" ], 40,
        "f9c02cc479030c751717a94f8bca8367" );
      ( "softmax", `Sampling, "0x1.20605a268bed5p-19", [ "join_scopes([0,3])" ],
        40, "86919b6b77defbdef178c16dd0827300" );
      ( "gemv", `Annealing, "0x1.a2c2623ab2ae7p-18", [], 40,
        "7d895c4b91df6e5309907aeb83d57a3c" );
      ( "gemv", `Sampling, "0x1.a2c2623ab2ae7p-18", [], 40,
        "1be3495f9f715443d9fcaa9cfd257578" );
    ]

let mutation_tests =
  [
    Alcotest.test_case "replay_skipping skips stale moves" `Quick (fun () ->
        let p = Kernels.relu ~n:8 ~m:8 in
        let final, applied =
          Search.Stochastic.replay_skipping caps_cpu p
            [
              "split_scope([0] factor 2)";
              "split_scope([0] factor 2)" (* now size 4: still divisible *);
              "bogus(move)";
            ]
        in
        Alcotest.(check int) "two applied" 2 (List.length applied);
        Ir.Validate.check_exn final);
  ]

(* Batched-parallel search: the contract is that the trajectory depends
   on (seed, batch) but never on how many domains evaluate it. *)
let parallel_search_tests =
  let check_result_equal label (a : Search.Stochastic.result)
      (b : Search.Stochastic.result) =
    Alcotest.(check (float 0.0)) (label ^ ": best_time") a.best_time b.best_time;
    Alcotest.(check (list string))
      (label ^ ": best_moves") a.best_moves b.best_moves;
    Alcotest.(check (array (float 0.0))) (label ^ ": curve") a.curve b.curve;
    Alcotest.(check int) (label ^ ": evals") a.evals b.evals
  in
  [
    Alcotest.test_case "annealing: jobs=1 and jobs=4 agree exactly" `Quick
      (fun () ->
        let p = Kernels.softmax ~n:16 ~m:16 in
        let run jobs =
          Parallel.Pool.with_pool ~jobs (fun pool ->
              Search.Stochastic.simulated_annealing ~seed:7 ~batch ~pool
                ~space:Search.Stochastic.Heuristic ~budget:40 caps_cpu
                (objective target_cpu) p)
        in
        check_result_equal "annealing" (run 1) (run 4));
    Alcotest.test_case "sampling: jobs=1 and jobs=4 agree exactly" `Quick
      (fun () ->
        let p = Kernels.gemv ~m:32 ~n:32 in
        let run jobs =
          Parallel.Pool.with_pool ~jobs (fun pool ->
              Search.Stochastic.random_sampling ~seed:5 ~batch ~pool
                ~space:Search.Stochastic.Edges ~budget:40 caps_sn
                (objective target_sn) p)
        in
        check_result_equal "sampling" (run 1) (run 4));
    Alcotest.test_case "parallel runs are repeatable under one pool" `Quick
      (fun () ->
        let p = Kernels.relu ~n:16 ~m:16 in
        Parallel.Pool.with_pool ~jobs:3 (fun pool ->
            let run () =
              Search.Stochastic.simulated_annealing ~seed:9 ~batch ~pool
                ~space:Search.Stochastic.Heuristic ~budget:30 caps_cpu
                (objective target_cpu) p
            in
            check_result_equal "repeat" (run ()) (run ())));
    Alcotest.test_case "parallel best preserves semantics" `Quick (fun () ->
        let p = Kernels.softmax ~n:8 ~m:8 in
        let r =
          Parallel.Pool.with_pool ~jobs:4 (fun pool ->
              Search.Stochastic.simulated_annealing ~seed:3 ~batch ~pool
                ~space:Search.Stochastic.Heuristic ~budget:30 caps_cpu
                (objective target_cpu) p)
        in
        Ir.Validate.check_exn r.best;
        equivalent_to "parallel annealed best" p r.best);
    Alcotest.test_case "parallel curve is best-so-far monotone" `Quick
      (fun () ->
        let p = Kernels.gemv ~m:32 ~n:32 in
        let r =
          Parallel.Pool.with_pool ~jobs:2 (fun pool ->
              Search.Stochastic.random_sampling ~seed:2 ~batch ~pool
                ~space:Search.Stochastic.Heuristic ~budget:35 caps_sn
                (objective target_sn) p)
        in
        Alcotest.(check int) "curve length" 35 (Array.length r.curve);
        Array.iteri
          (fun i v ->
            if i > 0 then
              Alcotest.(check bool) "non-increasing" true (v <= r.curve.(i - 1)))
          r.curve;
        Alcotest.(check (float 0.0)) "last point is the best"
          r.best_time
          r.curve.(Array.length r.curve - 1));
  ]

let exhaustive_tests =
  let run_ex ?obs ~depth caps target p =
    Search.Exhaustive.run ?obs ~depth caps (objective target) p
  in
  [
    Alcotest.test_case "certifies the within-depth optimum on scale" `Quick
      (fun () ->
        let p = Kernels.scale ~n:16 in
        let r = run_ex ~depth:3 caps_sn target_sn p in
        Alcotest.(check bool) "certified" true r.certified;
        Alcotest.(check bool) "dedup found duplicates" true
          (r.unique < r.total);
        Alcotest.(check bool) "beats the root" true
          (r.best_time <= objective target_sn p);
        (* no random walk of <= depth moves may beat the certificate *)
        let rng = Util.Rng.create 42 in
        for _ = 1 to 200 do
          let q = ref p in
          for _ = 1 to 3 do
            let insts = Transform.Xforms.all caps_sn !q in
            if insts <> [] then
              let i =
                List.nth insts (Util.Rng.int rng (List.length insts))
              in
              q := i.Transform.Xforms.apply !q
          done;
          Alcotest.(check bool) "certificate holds" true
            (objective target_sn !q >= r.best_time -. 1e-12)
        done);
    Alcotest.test_case "stochastic never beats the certified optimum" `Quick
      (fun () ->
        (* on these kernels the depth-3 optimum is also the empirical
           global one (depth 5 and budget-300 runs agree), so the
           certificate bounds any stochastic run *)
        List.iter
          (fun (label, p, caps, target) ->
            let ex = run_ex ~depth:3 caps target p in
            List.iter
              (fun seed ->
                let s =
                  Search.Stochastic.simulated_annealing ~seed
                    ~space:Search.Stochastic.Heuristic ~budget:60 caps
                    (objective target) p
                in
                Alcotest.(check bool)
                  (Printf.sprintf "%s seed %d: %.3e >= %.3e" label seed
                     s.best_time ex.best_time)
                  true
                  (s.best_time >= ex.best_time -. 1e-15))
              [ 1; 2; 3 ])
          [
            ("scale", Kernels.scale ~n:16, caps_sn, target_sn);
            ("relu", Kernels.relu ~n:8 ~m:8, caps_cpu, target_cpu);
          ]);
    Alcotest.test_case "optimum improves monotonically with depth" `Quick
      (fun () ->
        let p = Kernels.relu ~n:4 ~m:4 in
        let t1 = (run_ex ~depth:1 caps_cpu target_cpu p).best_time in
        let t2 = (run_ex ~depth:2 caps_cpu target_cpu p).best_time in
        let t3 = (run_ex ~depth:3 caps_cpu target_cpu p).best_time in
        Alcotest.(check bool) "d2 <= d1" true (t2 <= t1);
        Alcotest.(check bool) "d3 <= d2" true (t3 <= t2));
    Alcotest.test_case "best_moves replay to the reported best" `Quick
      (fun () ->
        let p = Kernels.scale ~n:16 in
        let r = run_ex ~depth:3 caps_sn target_sn p in
        let q, applied =
          Search.Stochastic.replay_skipping caps_sn p r.best_moves
        in
        Alcotest.(check int) "every move applies"
          (List.length r.best_moves)
          (List.length applied);
        Alcotest.(check (float 1e-12)) "same runtime" r.best_time
          (objective target_sn q);
        equivalent_to "exhaustive best" p r.best);
    Alcotest.test_case "depth 0 returns the root" `Quick (fun () ->
        let p = Kernels.scale ~n:16 in
        let r = run_ex ~depth:0 caps_sn target_sn p in
        Alcotest.(check int) "one state" 1 r.unique;
        Alcotest.(check int) "one eval" 1 r.evals;
        Alcotest.(check bool) "exhausted is false under depth 0" false
          r.exhausted;
        Alcotest.(check (float 0.0)) "root time" (objective target_sn p)
          r.best_time);
    Alcotest.test_case "deterministic across runs" `Quick (fun () ->
        let p = Kernels.relu ~n:4 ~m:4 in
        let a = run_ex ~depth:2 caps_cpu target_cpu p in
        let b = run_ex ~depth:2 caps_cpu target_cpu p in
        Alcotest.(check (float 0.0)) "time" a.best_time b.best_time;
        Alcotest.(check (list string)) "moves" a.best_moves b.best_moves;
        Alcotest.(check int) "unique" a.unique b.unique;
        Alcotest.(check int) "total" a.total b.total);
    Alcotest.test_case "trace reports unique/total and the certificate"
      `Quick (fun () ->
        let p = Kernels.scale ~n:16 in
        let obs = Obs.Trace.make_buffer () in
        let r = run_ex ~obs ~depth:2 caps_sn target_sn p in
        let events = Obs.Trace.events obs in
        let find ev =
          List.find_map
            (fun j ->
              match Util.Json.member "ev" j with
              | Some (Util.Json.Str e) when e = ev -> Some j
              | _ -> None)
            events
        in
        (match find "search.exhaustive" with
        | None -> Alcotest.fail "no search.exhaustive event"
        | Some j ->
            Alcotest.(check (option bool))
              "certified in trace" (Some r.certified)
              (match Util.Json.member "certified" j with
              | Some (Util.Json.Bool b) -> Some b
              | _ -> None);
            Alcotest.(check bool) "unique field" true
              (Util.Json.member "unique" j <> None));
        Alcotest.(check bool) "per-level events" true
          (find "search.exhaustive_level" <> None));
  ]

let visited_dedup_tests =
  let strip obs = List.map Obs.Trace.strip_timing (Obs.Trace.events obs) in
  [
    Alcotest.test_case "visited: jobs=1 and jobs=4 agree with traces" `Quick
      (fun () ->
        let p = Kernels.gemv ~m:32 ~n:32 in
        let run jobs =
          let obs = Obs.Trace.make_buffer () in
          let r =
            Parallel.Pool.with_pool ~jobs (fun pool ->
                Search.Stochastic.simulated_annealing ~seed:11 ~batch
                  ~obs ~visited_dedup:true ~pool
                  ~space:Search.Stochastic.Heuristic ~budget:48 caps_sn
                  (objective target_sn) p)
          in
          (r, strip obs)
        in
        let r1, t1 = run 1 and r4, t4 = run 4 in
        Alcotest.(check (float 0.0)) "best" r1.best_time r4.best_time;
        Alcotest.(check int) "evals" r1.evals r4.evals;
        Alcotest.(check int) "visited" r1.visited r4.visited;
        Alcotest.(check (array (float 0.0))) "curve" r1.curve r4.curve;
        Alcotest.(check bool) "stripped traces identical" true (t1 = t4));
    Alcotest.test_case "every budget slot accounted exactly once" `Quick
      (fun () ->
        List.iter
          (fun (label, p, caps, target) ->
            let r =
              Parallel.Pool.with_pool ~jobs:2 (fun pool ->
                  Search.Stochastic.random_sampling ~seed:3 ~batch
                    ~visited_dedup:true ~pool
                    ~space:Search.Stochastic.Heuristic ~budget:60 caps
                    (objective target) p)
            in
            Alcotest.(check int)
              (label ^ ": evals+skipped+deduped+visited+failures")
              60
              (r.evals + r.skipped + r.deduped + r.visited + r.failures);
            Alcotest.(check bool) (label ^ ": something was visited") true
              (r.visited > 0))
          [
            ("scale", Kernels.scale ~n:16, caps_sn, target_sn);
            ("relu", Kernels.relu ~n:8 ~m:8, caps_cpu, target_cpu);
          ]);
    Alcotest.test_case "visited-dedup spends strictly fewer evals" `Quick
      (fun () ->
        List.iter
          (fun (label, p, caps, target) ->
            let run visited_dedup =
              Parallel.Pool.with_pool ~jobs:2 (fun pool ->
                  Search.Stochastic.simulated_annealing ~seed:5 ~batch
                    ~visited_dedup ~pool
                    ~space:Search.Stochastic.Heuristic ~budget:60 caps
                    (objective target) p)
            in
            let plain = run false and dd = run true in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %d < %d" label dd.evals plain.evals)
              true (dd.evals < plain.evals))
          [
            ("scale", Kernels.scale ~n:16, caps_sn, target_sn);
            ("relu", Kernels.relu ~n:8 ~m:8, caps_cpu, target_cpu);
          ]);
    Alcotest.test_case "canon metrics and visited_skip events appear" `Quick
      (fun () ->
        let p = Kernels.scale ~n:16 in
        let obs = Obs.Trace.make_buffer () in
        let ms = Obs.Metrics.create () in
        let r =
          Parallel.Pool.with_pool ~jobs:1 (fun pool ->
              Search.Stochastic.simulated_annealing ~seed:5 ~batch ~obs
                ~metrics:ms ~visited_dedup:true ~pool
                ~space:Search.Stochastic.Heuristic ~budget:40 caps_sn
                (objective target_sn) p)
        in
        let skips =
          List.filter
            (fun j ->
              match Util.Json.member "ev" j with
              | Some (Util.Json.Str e) -> e = "search.visited_skip"
              | _ -> false)
            (Obs.Trace.events obs)
        in
        Alcotest.(check int) "one event per visited slot" r.visited
          (List.length skips);
        let unique = Obs.Metrics.counter ms "canon.unique"
        and total = Obs.Metrics.counter ms "canon.total" in
        Alcotest.(check bool)
          (Printf.sprintf "canon.unique %d <= canon.total %d" unique total)
          true
          (unique <= total && total > 0));
  ]

let () =
  Alcotest.run "search"
    [
      ("pass-semantics", pass_semantic_tests);
      ("gpu-pass-semantics", gpu_pass_tests);
      ("improvements", improvement_tests);
      ("stochastic", stochastic_tests);
      ("golden", golden_tests);
      ("mutation", mutation_tests);
      ("parallel-search", parallel_search_tests);
      ("exhaustive", exhaustive_tests);
      ("visited-dedup", visited_dedup_tests);
    ]
