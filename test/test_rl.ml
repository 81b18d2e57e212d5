(* Tests for the RL substrate: neural network correctness (gradient
   check), embedding properties, replay buffer, DQN target computation
   and the PerfLLM loop end-to-end on a small kernel. *)

let nn_tests =
  [
    Alcotest.test_case "forward computes an MLP" `Quick (fun () ->
        let rng = Util.Rng.create 1 in
        let net = Rl.Nn.create rng [ 3; 4; 2 ] in
        let out = Rl.Nn.forward net [| 0.5; -0.2; 1.0 |] in
        Alcotest.(check int) "output size" 2 (Array.length out);
        Array.iter
          (fun v ->
            Alcotest.(check bool) "finite" true (Float.is_finite v))
          out);
    Alcotest.test_case "backward matches finite differences" `Quick
      (fun () ->
        let rng = Util.Rng.create 7 in
        let net = Rl.Nn.create rng [ 4; 6; 1 ] in
        let x = Array.init 4 (fun i -> 0.3 *. float_of_int (i + 1)) in
        (* loss = 0.5 * out^2; dLoss/dOut = out *)
        let loss () =
          let o = (Rl.Nn.forward net x).(0) in
          0.5 *. o *. o
        in
        Rl.Nn.zero_grad net;
        let tape, out = Rl.Nn.forward_tape net x in
        Rl.Nn.backward net tape [| out.(0) |];
        (* compare the analytic gradient of a few weights against central
           differences *)
        let eps = 1e-5 in
        let check_weight l o i =
          let layer = net.layers.(l) in
          let orig = layer.w.(o).(i) in
          layer.w.(o).(i) <- orig +. eps;
          let lp = loss () in
          layer.w.(o).(i) <- orig -. eps;
          let lm = loss () in
          layer.w.(o).(i) <- orig;
          let numeric = (lp -. lm) /. (2.0 *. eps) in
          let analytic = layer.gw.(o).(i) in
          Alcotest.(check (float 1e-3))
            (Printf.sprintf "dW[%d][%d][%d]" l o i)
            numeric analytic
        in
        check_weight 0 0 0;
        check_weight 0 3 2;
        check_weight 1 0 1;
        check_weight 1 0 5);
    Alcotest.test_case "adam reduces a simple regression loss" `Quick
      (fun () ->
        let rng = Util.Rng.create 3 in
        let net = Rl.Nn.create rng [ 2; 8; 1 ] in
        (* fit f(x) = x0 + 2*x1 on a few points *)
        let data =
          [ ([| 0.1; 0.3 |], 0.7); ([| -0.5; 0.2 |], -0.1);
            ([| 0.4; -0.4 |], -0.4); ([| 0.0; 0.5 |], 1.0) ]
        in
        let epoch_loss () =
          List.fold_left
            (fun acc (x, y) ->
              let o = (Rl.Nn.forward net x).(0) in
              acc +. ((o -. y) *. (o -. y)))
            0.0 data
        in
        let initial = epoch_loss () in
        for _ = 1 to 300 do
          Rl.Nn.zero_grad net;
          List.iter
            (fun (x, y) ->
              let tape, out = Rl.Nn.forward_tape net x in
              Rl.Nn.backward net tape [| out.(0) -. y |])
            data;
          Rl.Nn.adam_step ~lr:5e-3 net
        done;
        let final = epoch_loss () in
        Alcotest.(check bool)
          (Printf.sprintf "loss %.4f -> %.4f" initial final)
          true
          (final < initial /. 10.0));
    Alcotest.test_case "copy_weights makes nets agree" `Quick (fun () ->
        let rng = Util.Rng.create 5 in
        let a = Rl.Nn.create rng [ 3; 5; 1 ] in
        let b = Rl.Nn.create rng [ 3; 5; 1 ] in
        let x = [| 0.2; -0.1; 0.7 |] in
        Alcotest.(check bool) "differ initially" true
          (Rl.Nn.forward a x <> Rl.Nn.forward b x);
        Rl.Nn.copy_weights ~src:a ~dst:b;
        Alcotest.(check (float 1e-12)) "agree after copy"
          (Rl.Nn.forward a x).(0)
          (Rl.Nn.forward b x).(0));
  ]

let embed_tests =
  [
    Alcotest.test_case "embedding is deterministic" `Quick (fun () ->
        let p = Kernels.softmax ~n:8 ~m:16 in
        Alcotest.(check bool) "equal" true (Rl.Embed.embed p = Rl.Embed.embed p));
    Alcotest.test_case "different programs embed differently" `Quick
      (fun () ->
        let a = Rl.Embed.embed (Kernels.softmax ~n:8 ~m:16) in
        let b = Rl.Embed.embed (Kernels.matmul ~m:8 ~k:8 ~n:8) in
        Alcotest.(check bool) "differ" true (a <> b));
    Alcotest.test_case "transformed program embeds differently" `Quick
      (fun () ->
        let p = Kernels.relu ~n:8 ~m:8 in
        let caps = Transform.Xforms.cpu_caps () in
        let p' = (List.hd (Transform.Xforms.all caps p)).apply p in
        Alcotest.(check bool) "differ" true
          (Rl.Embed.embed p <> Rl.Embed.embed p'));
    Alcotest.test_case "annotations move structural features" `Quick
      (fun () ->
        let p = Kernels.relu ~n:8 ~m:8 in
        let caps = Transform.Xforms.cpu_caps () in
        let par =
          (List.find
             (fun (i : Transform.Xforms.instance) ->
               Transform.Moveref.xname i.move = "parallelize")
             (Transform.Xforms.all caps p))
            .apply p
        in
        let e = Rl.Embed.embed p and e' = Rl.Embed.embed par in
        (* the Par counter feature lives at ngram_dims + 2 *)
        Alcotest.(check bool) "par feature grew" true
          (e'.(Rl.Embed.ngram_dims + 2) > e.(Rl.Embed.ngram_dims + 2)));
    Alcotest.test_case "stop action pair is symmetric" `Quick (fun () ->
        let s = Rl.Embed.embed (Kernels.relu ~n:4 ~m:4) in
        let pair = Rl.Embed.action_pair s s in
        Alcotest.(check int) "length" (2 * Rl.Embed.dim) (Array.length pair);
        Alcotest.(check bool) "halves equal" true
          (Array.sub pair 0 Rl.Embed.dim = Array.sub pair Rl.Embed.dim
                                              Rl.Embed.dim));
  ]

let replay_tests =
  [
    Alcotest.test_case "ring buffer overwrites oldest" `Quick (fun () ->
        let buf = Rl.Replay.create 4 in
        for i = 1 to 6 do
          Rl.Replay.add buf
            {
              action = [| float_of_int i |];
              reward = float_of_int i;
              next_state = [||];
              next_actions = [||];
              terminal = false;
            }
        done;
        Alcotest.(check int) "capped size" 4 (Rl.Replay.size buf);
        let rng = Util.Rng.create 0 in
        let sampled = Rl.Replay.sample buf rng 64 in
        List.iter
          (fun (tr : Rl.Replay.transition) ->
            Alcotest.(check bool) "only recent survive" true (tr.reward > 2.0))
          sampled);
  ]

let mk_transition ?(terminal = false) ~reward ~next_actions () :
    Rl.Replay.transition =
  let z = Array.make (2 * Rl.Embed.dim) 0.1 in
  { action = z; reward; next_state = Array.make Rl.Embed.dim 0.1;
    next_actions; terminal }

let dqn_tests =
  [
    Alcotest.test_case "max-bellman target takes max(r, gamma*future)"
      `Quick (fun () ->
        let cfg = { Rl.Dqn.default_config with max_bellman = true } in
        let agent = Rl.Dqn.create ~cfg 1 in
        (* terminal transition: future = 0, so target = reward *)
        let tr = mk_transition ~terminal:true ~reward:5.0 ~next_actions:[||] ()
        in
        Alcotest.(check (float 1e-9)) "terminal" 5.0
          (Rl.Dqn.target_of agent tr);
        (* non-terminal with some candidate action: target >= reward *)
        let tr2 =
          mk_transition ~reward:3.0
            ~next_actions:[| Array.make (2 * Rl.Embed.dim) 0.2 |]
            ()
        in
        Alcotest.(check bool) "max semantics" true
          (Rl.Dqn.target_of agent tr2 >= 3.0));
    Alcotest.test_case "standard bellman adds discounted future" `Quick
      (fun () ->
        let cfg = { Rl.Dqn.default_config with max_bellman = false } in
        let agent = Rl.Dqn.create ~cfg 1 in
        let pair = Array.make (2 * Rl.Embed.dim) 0.2 in
        let tr = mk_transition ~reward:3.0 ~next_actions:[| pair |] () in
        let future = Rl.Dqn.q_value agent.target pair in
        Alcotest.(check (float 1e-6)) "r + gamma*Q"
          (3.0 +. (agent.cfg.gamma *. future))
          (Rl.Dqn.target_of agent tr));
    Alcotest.test_case "epsilon anneals from start to end" `Quick (fun () ->
        let agent = Rl.Dqn.create 1 in
        Alcotest.(check (float 1e-9)) "initial" agent.cfg.eps_start
          (Rl.Dqn.epsilon agent);
        agent.steps <- agent.cfg.eps_decay * 2;
        Alcotest.(check (float 1e-9)) "final" agent.cfg.eps_end
          (Rl.Dqn.epsilon agent));
    Alcotest.test_case "training reduces TD loss on a fixed buffer" `Quick
      (fun () ->
        let agent = Rl.Dqn.create 2 in
        let rng = Util.Rng.create 3 in
        for _ = 1 to 64 do
          let pair =
            Array.init (2 * Rl.Embed.dim) (fun _ ->
                Util.Rng.float_range rng (-0.5) 0.5)
          in
          Rl.Dqn.remember agent
            {
              action = pair;
              reward = pair.(0) +. 1.0;
              next_state = Array.make Rl.Embed.dim 0.0;
              next_actions = [||];
              terminal = true;
            }
        done;
        let first = Rl.Dqn.train_step agent in
        let last = ref first in
        for _ = 1 to 200 do
          last := Rl.Dqn.train_step agent
        done;
        Alcotest.(check bool)
          (Printf.sprintf "loss %.4f -> %.4f" first !last)
          true (!last < first));
  ]

let reinforce_tests =
  [
    Alcotest.test_case "reinforce improves a snitch micro-kernel" `Quick
      (fun () ->
        let target = Machine.Desc.Snitch Machine.Desc.snitch_cluster in
        let caps = Machine.caps target in
        let p = Kernels.scale ~n:256 in
        let cfg =
          {
            Rl.Reinforce.default_config with
            episodes = 8;
            max_steps = 8;
            action_cap = 16;
          }
        in
        let r =
          Rl.Reinforce.optimize ~cfg ~seed:5 caps
            (fun q -> Machine.time target q)
            p
        in
        Alcotest.(check bool) "improved" true
          (r.best_time < Machine.time target p);
        match Interp.equivalent ~tol:1e-4 p r.best with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "softmax distribution sums to one" `Quick (fun () ->
        let probs = Rl.Reinforce.softmax [| 1.0; 2.0; -0.5; 0.0 |] in
        let sum = Array.fold_left ( +. ) 0.0 probs in
        Alcotest.(check (float 1e-9)) "sum" 1.0 sum;
        Array.iter
          (fun q -> Alcotest.(check bool) "positive" true (q > 0.0))
          probs);
  ]

let prioritized_tests =
  [
    Alcotest.test_case "prioritized sampling follows TD priorities" `Quick
      (fun () ->
        let buf = Rl.Replay.create 8 in
        for i = 0 to 3 do
          Rl.Replay.add buf
            {
              action = [| float_of_int i |];
              reward = float_of_int i;
              next_state = [||];
              next_actions = [||];
              terminal = true;
            }
        done;
        (* crank one transition's priority way up *)
        Rl.Replay.update_priority buf 2 100.0;
        List.iter (fun i -> Rl.Replay.update_priority buf i 0.0)
          [ 0; 1; 3 ];
        let rng = Util.Rng.create 7 in
        let drawn = Rl.Replay.sample_prioritized buf rng 200 in
        let hot =
          List.length (List.filter (fun (i, _) -> i = 2) drawn)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%d/200 from the hot index" hot)
          true
          (hot > 180));
    Alcotest.test_case "prioritized dqn trains without error" `Quick
      (fun () ->
        let cfg = { Rl.Dqn.default_config with prioritized = true } in
        let agent = Rl.Dqn.create ~cfg 3 in
        let rng = Util.Rng.create 1 in
        for _ = 1 to 64 do
          let pair =
            Array.init (2 * Rl.Embed.dim) (fun _ ->
                Util.Rng.float_range rng (-0.5) 0.5)
          in
          Rl.Dqn.remember agent
            {
              action = pair;
              reward = pair.(0);
              next_state = Array.make Rl.Embed.dim 0.0;
              next_actions = [||];
              terminal = true;
            }
        done;
        let first = Rl.Dqn.train_step agent in
        let last = ref first in
        for _ = 1 to 150 do
          last := Rl.Dqn.train_step agent
        done;
        Alcotest.(check bool)
          (Printf.sprintf "loss %.4f -> %.4f" first !last)
          true (!last < first));
  ]

let perfllm_tests =
  [
    Alcotest.test_case "perfllm improves a snitch micro-kernel" `Quick
      (fun () ->
        let sn = Machine.Desc.snitch_cluster in
        let target = Machine.Desc.Snitch sn in
        let caps = Machine.caps target in
        let p = Kernels.scale ~n:256 in
        let cfg =
          {
            Rl.Perfllm.default_config with
            episodes = 8;
            max_steps = 8;
            action_cap = 16;
          }
        in
        let result, _agent =
          Rl.Perfllm.optimize ~cfg ~seed:5 caps
            (fun q -> Machine.time target q)
            p
        in
        Alcotest.(check bool) "improved" true
          (result.best_time < Machine.time target p);
        (* the discovered schedule must be semantics-preserving *)
        (match Interp.equivalent ~tol:1e-4 p result.best with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        (* and replayable from the recorded moves *)
        let replayed, applied =
          Search.Stochastic.replay_skipping caps p result.best_moves
        in
        Alcotest.(check int) "moves replay" (List.length result.best_moves)
          (List.length applied);
        Alcotest.(check bool) "same schedule" true (replayed = result.best));
    Alcotest.test_case "episode_best is monotone" `Quick (fun () ->
        let target = Machine.Desc.Snitch Machine.Desc.snitch_cluster in
        let caps = Machine.caps target in
        let p = Kernels.vecsum ~n:128 in
        let cfg =
          { Rl.Perfllm.default_config with episodes = 6; max_steps = 6 }
        in
        let result, _ =
          Rl.Perfllm.optimize ~cfg ~seed:2 caps
            (fun q -> Machine.time target q)
            p
        in
        let ok = ref true in
        for i = 1 to Array.length result.episode_best - 1 do
          if result.episode_best.(i) > result.episode_best.(i - 1) +. 1e-15
          then ok := false
        done;
        Alcotest.(check bool) "monotone" true !ok);
  ]

let () =
  Alcotest.run "rl"
    [
      ("nn", nn_tests);
      ("embed", embed_tests);
      ("replay", replay_tests);
      ("dqn", dqn_tests);
      ("reinforce", reinforce_tests);
      ("prioritized", prioritized_tests);
      ("perfllm", perfllm_tests);
    ]
