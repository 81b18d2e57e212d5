(* PerfDojo: the top-level facade.

   This module ties the IR, the transformation engine, the performance
   models and the search/RL machinery into the two interfaces the paper
   describes:

   - {!Game}: the interactive "performance game" (§2) — a session over a
     program where each move is a semantics-preserving transformation
     and the score is the modelled runtime.  This is the environment
     PerfLLM trains in, and equally the interface for manual
     transformation-centric optimization (Figure 2).
   - {!optimize_ctx}: one-call automatic optimization under a chosen
     strategy (the §4.1 passes, §4.2 stochastic searches, or §3 RL). *)

module Ir = Ir
module Interp = Interp
module Transform = Transform
module Machine = Machine
module Kernels = Kernels
module Search = Search
module Rl = Rl
module Baselines = Baselines
module Codegen = Codegen
module Util = Util
module Tuning = Tuning
module Obs = Obs
module Robust = Robust
module Surrogate = Surrogate
module Recover = Recover
module Target = Target
module Transfo = Transfo

type target = Machine.Desc.target

exception
  Portfolio_failed of (string * string) list
    (* every member crashed: (label, error) per member, in member order *)

(* ------------------------------------------------------------------ *)
(* The performance game                                                *)
(* ------------------------------------------------------------------ *)

module Game = struct
  type t = {
    session : Transform.Engine.session;
    target : target;
    reward_c : float;
    mutable evaluations : int;
  }

  let start ?obs (target : target) (prog : Ir.Prog.t) : t =
    Ir.Validate.check_exn prog;
    let caps = Machine.caps target in
    let session = Transform.Engine.start ?obs caps prog in
    let t0 = Machine.time target prog in
    { session; target; reward_c = t0; evaluations = 1 }

  let state (g : t) = g.session.current
  let moves_played (g : t) =
    List.map Transform.Xforms.describe (Transform.Engine.moves g.session)

  (* Applicable moves at the current state, each with its description. *)
  let moves (g : t) : (int * string) list =
    List.mapi
      (fun i inst -> (i, Transform.Xforms.describe inst))
      (Transform.Engine.applicable g.session)

  let time (g : t) : float =
    g.evaluations <- g.evaluations + 1;
    Machine.time g.target (state g)

  (* Reward of the current state: r = c / T (§3.1). *)
  let reward (g : t) : float = g.reward_c /. Float.max (time g) 1e-12

  (* Play move [i] from the current applicable list; returns the new
     runtime. *)
  let play (g : t) (i : int) : float =
    let insts = Transform.Engine.applicable g.session in
    match List.nth_opt insts i with
    | None -> invalid_arg "Game.play: no such move"
    | Some inst ->
        ignore (Transform.Engine.apply g.session inst);
        time g

  (* Play a move by its description string. *)
  let play_named (g : t) (name : string) : float =
    let insts = Transform.Engine.applicable g.session in
    match Transform.Xforms.lookup insts name with
    | None -> invalid_arg (Printf.sprintf "Game.play_named: %S not applicable" name)
    | Some inst ->
        ignore (Transform.Engine.apply g.session inst);
        time g

  let undo (g : t) = Transform.Engine.undo g.session
  let undo_at (g : t) k = Transform.Engine.undo_at g.session k

  (* Numerical check of the whole session against the initial program —
     the empirical validation loop of §2.2. *)
  let verify (g : t) : (unit, string) result =
    Interp.equivalent g.session.initial (state g)
end

(* ------------------------------------------------------------------ *)
(* One-call optimization                                               *)
(* ------------------------------------------------------------------ *)

type strategy =
  | Naive (* fuse + reuse until exhaustion (§4.1) *)
  | Greedy (* naive + hardware transformations exhaustively *)
  | Heuristic (* hardware-expert pass *)
  | Sampling of { budget : int; space : Search.Stochastic.space }
  | Annealing of { budget : int; space : Search.Stochastic.space }
  | Rl_search of Rl.Perfllm.config
  | Portfolio of { budget : int }
      (* race the default member set across domains, keep the best *)
  | Exhaustive
      (* enumerate the full transformation graph to Ctx.exhaustive_depth
         with canonical dedup — certified optima for small kernels *)

type portfolio_member = {
  plabel : string;
  pstrategy : strategy;
  pseed : int;
}

type outcome = {
  schedule : Ir.Prog.t;
  time_s : float;
  moves : string list;
  evaluations : int;
  cache_hits : int; (* memoized objective lookups answered from cache *)
  cache_misses : int; (* lookups that ran the performance model *)
  failures : int; (* evaluations quarantined by the guard *)
}

let heuristic_pass_for (target : target) caps prog =
  match target with
  | Machine.Desc.Snitch _ -> Search.Passes.heuristic caps prog
  | Machine.Desc.Cpu _ -> Search.Passes.cpu_heuristic caps prog
  | Machine.Desc.Gpu g ->
      Search.Passes.gpu_heuristic ~warp:g.warp
        ~score:(fun p -> Machine.time target p)
        caps prog

(* The default portfolio: complementary strategies and seeds racing for
   the same kernel.  Heuristic-space annealing is usually strongest, so
   it gets two seeds; the edges-space and sampling members cover the
   schedules it plateaus on; the expert pass is the safety net. *)
let default_portfolio ?(seed = 1) ~budget () : portfolio_member list =
  [
    { plabel = "heuristic-pass"; pstrategy = Heuristic; pseed = seed };
    {
      plabel = "annealing/heuristic";
      pstrategy = Annealing { budget; space = Search.Stochastic.Heuristic };
      pseed = seed;
    };
    {
      plabel = "annealing/heuristic+1";
      pstrategy = Annealing { budget; space = Search.Stochastic.Heuristic };
      pseed = seed + 1;
    };
    {
      plabel = "annealing/edges";
      pstrategy = Annealing { budget; space = Search.Stochastic.Edges };
      pseed = seed;
    };
    {
      plabel = "sampling/heuristic";
      pstrategy = Sampling { budget; space = Search.Stochastic.Heuristic };
      pseed = seed;
    };
  ]

(* The strategy names the CLI and the tuning service accept; [budget]
   sizes the search strategies (and the RL episode count). *)
let strategy_of_string ~budget s : (strategy, string) result =
  match s with
  | "naive" -> Ok Naive
  | "greedy" -> Ok Greedy
  | "heuristic" -> Ok Heuristic
  | "sampling" -> Ok (Sampling { budget; space = Search.Stochastic.Heuristic })
  | "sampling-edges" ->
      Ok (Sampling { budget; space = Search.Stochastic.Edges })
  | "annealing" ->
      Ok (Annealing { budget; space = Search.Stochastic.Heuristic })
  | "annealing-edges" ->
      Ok (Annealing { budget; space = Search.Stochastic.Edges })
  | "rl" ->
      Ok
        (Rl_search
           {
             Rl.Perfllm.default_config with
             episodes = max 4 (budget / 24);
             max_steps = 20;
           })
  | "portfolio" -> Ok (Portfolio { budget })
  | "exhaustive" -> Ok Exhaustive
  | s -> Error (Printf.sprintf "unknown strategy %S" s)

(* ------------------------------------------------------------------ *)
(* The run context                                                     *)
(* ------------------------------------------------------------------ *)

(* Every cross-cutting knob of a run in one record; every entry point
   (portfolio members, optimize_best, libgen, the CLI, the bench
   harness) threads a [Ctx.t]. *)
module Ctx = struct
  type t = {
    seed : int;
    cache : Tuning.Cache.t option;
    warm_start : string list;
    jobs : int;
    obs : Obs.Trace.sink;
    metrics : Obs.Metrics.t option;
    guard : Robust.Guard.config;
    faults : Robust.Faults.config;
    surrogate : Surrogate.Model.t option;
    filter_ratio : float;
    dedup : bool;
    visited_dedup : bool;
    exhaustive_depth : int;
    checkpoint : string option;
    checkpoint_every : int;
    resume : bool;
    composites : string list;
  }

  let default =
    {
      seed = 1;
      cache = None;
      warm_start = [];
      jobs = 0;
      obs = Obs.Trace.null;
      metrics = None;
      guard = Robust.Guard.default;
      faults = Robust.Faults.none;
      surrogate = None;
      filter_ratio = 1.0;
      dedup = false;
      visited_dedup = false;
      exhaustive_depth = 3;
      checkpoint = None;
      checkpoint_every = 64;
      resume = false;
      composites = [];
    }

  let with_seed seed t = { t with seed }
  let with_cache cache t = { t with cache = Some cache }
  let with_warm_start warm_start t = { t with warm_start }
  let with_jobs jobs t = { t with jobs }
  let with_obs obs t = { t with obs }
  let with_metrics metrics t = { t with metrics = Some metrics }
  let with_guard guard t = { t with guard }
  let with_faults faults t = { t with faults }
  let with_surrogate surrogate t = { t with surrogate = Some surrogate }
  let with_filter_ratio filter_ratio t = { t with filter_ratio }
  let with_dedup dedup t = { t with dedup }
  let with_visited_dedup visited_dedup t = { t with visited_dedup }

  let with_exhaustive_depth exhaustive_depth t =
    { t with exhaustive_depth }

  let with_checkpoint ?every path t =
    {
      t with
      checkpoint = Some path;
      checkpoint_every =
        (match every with Some e -> e | None -> t.checkpoint_every);
    }

  let with_resume resume t = { t with resume }
  let with_composites composites t = { t with composites }
end

(* The action set of a run: the target's capabilities enriched with the
   context's composite macro-moves.  Search, replay-for-record and
   warm-start replay must all enumerate against the same caps, or a
   schedule found with composites would not replay when deposited. *)
let caps_of ~(ctx : Ctx.t) (target : target) =
  let base = Machine.caps target in
  match ctx.Ctx.composites with
  | [] -> base
  | names -> Transfo.Composites.enable ~names base

let rec optimize_ctx ~(ctx : Ctx.t) (strategy : strategy) (target : target)
    (prog : Ir.Prog.t) : outcome =
  let {
    Ctx.seed;
    cache;
    warm_start;
    jobs;
    obs;
    metrics;
    guard;
    faults;
    surrogate;
    filter_ratio;
    dedup;
    visited_dedup;
    exhaustive_depth;
    checkpoint;
    checkpoint_every;
    resume;
    composites = _;
  } =
    ctx
  in
  (* Crash-safe checkpointing (Search.Checkpoint): the search engines
     snapshot their full state at round/level boundaries and, with
     [resume], restore it and continue the exact uninterrupted
     trajectory.  The surrogate model rides along in [prerank]. *)
  let checkpoint_cfg =
    Option.map
      (fun path ->
        { Search.Checkpoint.path; every = checkpoint_every; resume })
      checkpoint
  in
  let caps = caps_of ~ctx target in
  let raw_objective p = Machine.time target p in
  (* Evaluation pipeline: model -> fault injection (tests/bench only;
     [Faults.none] is the identity) -> memoization.  The guard sits
     outermost, inside the search layer, so a quarantined evaluation's
     non-finite score never reaches the cache (memoize skips non-finite
     stores as a second line of defense). *)
  let faulty = Robust.Faults.wrap faults raw_objective in
  (* Cache keys are scoped by target: two targets time the same program
     differently, and one context (hence one cache) routinely spans
     several targets in a batch run (Libgen). *)
  let objective =
    match cache with
    | None -> faulty
    | Some c ->
        Tuning.Cache.memoize_scoped c
          ~scope:(Machine.Desc.target_name target)
          faulty
  in
  let guard = Robust.Guard.instrument ?metrics guard in
  let failures = ref 0 in
  (* Guarded single evaluation for the pass/RL strategies and the
     warm-start replay — same quarantine semantics as the search layer:
     failure scores +inf, is recorded as a [search.eval_error] event
     (i = -1) plus robust.* counters, and counts into the outcome. *)
  let guarded_time p =
    match Robust.Guard.eval ~cfg:guard objective p with
    | Ok t -> t
    | Error f ->
        incr failures;
        Robust.Guard.note ~obs ?metrics
          ~fields:[ Obs.Trace.int "i" (-1) ]
          f;
        infinity
  in
  let hits0, misses0 =
    match cache with
    | None -> (0, 0)
    | Some c -> (Tuning.Cache.hits c, Tuning.Cache.misses c)
  in
  (* jobs = 0 (the default) runs each stochastic method at batch 1 on
     the caller — the sequential algorithm, with no pool; jobs >= 1 runs
     rounds of [default_batch] on a pool of [jobs] domains, whose
     trajectory depends on the batch size but not on jobs (jobs = 1 and
     jobs = N give identical results). *)
  (* Surrogate wiring: candidates are only batched — hence rankable and
     dedupable — in rounds larger than one, so enabling either knob
     promotes a sequential run to a jobs = 1 pool (the
     caller-participating pool: no nested domains, safe inside
     portfolio/libgen workers).  The training group tag scopes ranking
     pairs to this (target, root): runtimes are only comparable within
     one such group. *)
  let prerank =
    match surrogate with
    | None -> None
    | Some m ->
        let group =
          Machine.Desc.target_name target
          ^ "|"
          ^ Tuning.Record.fingerprint prog
        in
        Some (Surrogate.Model.prerank ~filter_ratio ~group m)
  in
  (* the visited set needs rounds too, and it subsumes intra-batch
     dedup (a state must never be measured twice, whether its duplicate
     sits in the same round or an earlier one) *)
  let dedup = dedup || visited_dedup in
  (* checkpoints are written at round boundaries, so checkpointing
     promotes a sequential run to jobs = 1 as well *)
  let batched =
    jobs >= 1 || Option.is_some prerank || dedup || visited_dedup
    || Option.is_some checkpoint_cfg
  in
  (* An instrumented pool keeps per-worker busy time for [--stats]; the
     default stays clock-free.  The export happens inside [with_pool] —
     the pool must still be alive to be read. *)
  let stochastic run =
    let r =
      if batched then
        Parallel.Pool.with_pool ~instrument:(metrics <> None)
          ~jobs:(max jobs 1) (fun pool ->
            let r = run (Some pool) Search.Stochastic.default_batch in
            Option.iter (Parallel.Pool.export pool) metrics;
            r)
      else run None 1
    in
    failures := !failures + r.Search.Stochastic.failures;
    (r.best, r.best_time, r.best_moves, r.evals)
  in
  let base =
    Obs.Span.run ?metrics ~trace:obs "search" (fun () ->
        match strategy with
        | Naive ->
            let s = Search.Passes.naive caps prog in
            (s, guarded_time s, [], 1)
        | Greedy ->
            let s = Search.Passes.greedy caps prog in
            (s, guarded_time s, [], 1)
        | Heuristic ->
            let s = heuristic_pass_for target caps prog in
            (s, guarded_time s, [], 1)
        | Sampling { budget; space } ->
            stochastic (fun pool batch ->
                Search.Stochastic.random_sampling ~seed ~init:warm_start ~obs
                  ?metrics ~guard ~batch ?prerank ~dedup ~visited_dedup
                  ?checkpoint:checkpoint_cfg ?pool ~space ~budget caps
                  objective prog)
        | Annealing { budget; space } ->
            stochastic (fun pool batch ->
                Search.Stochastic.simulated_annealing ~seed ~init:warm_start
                  ~obs ?metrics ~guard ~batch ?prerank ~dedup ~visited_dedup
                  ?checkpoint:checkpoint_cfg ?pool ~space ~budget caps
                  objective prog)
        | Rl_search cfg ->
            (* The RL loop evaluates through the same guard: a failed
               episode step scores +inf instead of killing training. *)
            let r, _agent =
              Rl.Perfllm.optimize ~cfg ~init:warm_start ~seed caps
                guarded_time prog
            in
            (r.best, r.best_time, r.best_moves, r.evaluations)
        | Portfolio { budget } ->
            let o, _winner =
              optimize_portfolio_ctx
                ~ctx:{ ctx with Ctx.guard }
                ~members:(default_portfolio ~seed ~budget ())
                target prog
            in
            failures := !failures + o.failures;
            (o.schedule, o.time_s, o.moves, o.evaluations)
        | Exhaustive ->
            (* sequential and deterministic; depth comes from the
               context (Ctx.with_exhaustive_depth) *)
            let r =
              Search.Exhaustive.run ~obs ?metrics ~guard
                ?checkpoint:checkpoint_cfg ~depth:exhaustive_depth caps
                objective prog
            in
            failures := !failures + r.failures;
            (r.best, r.best_time, r.best_moves, r.evals))
  in
  (* Pass strategies cannot absorb a warm-start sequence themselves:
     replay it and keep whichever schedule is faster, so a warm run
     never finishes behind the database's recorded best. *)
  let schedule, time_s, moves, evaluations =
    let s, t, m, e = base in
    if warm_start = [] || m <> [] then base
    else
      Obs.Span.run ?metrics ~trace:obs "warm-start" (fun () ->
          let warm, applied =
            Search.Stochastic.replay_skipping caps prog warm_start
          in
          let wt = guarded_time warm in
          if wt < t then (warm, wt, applied, e + 1) else (s, t, m, e + 1))
  in
  let cache_hits, cache_misses =
    match cache with
    | None -> (0, 0)
    | Some c ->
        (Tuning.Cache.hits c - hits0, Tuning.Cache.misses c - misses0)
  in
  (match (cache, metrics) with
  | Some c, Some m -> Tuning.Cache.export c m
  | _ -> ());
  {
    schedule;
    time_s;
    moves;
    evaluations;
    cache_hits;
    cache_misses;
    failures = !failures;
  }

(* Race portfolio members across domains; each member runs its own
   sequential search (jobs = 0 inside workers), so a member's result is
   independent of how the race is scheduled.  The winner is the fastest
   schedule among the *surviving* members, ties resolved by member
   order — deterministic for any [jobs].

   Degradation: members run under [Parallel.Pool.map_result], so one
   member crashing (a strategy bug, a hostile budget) does not cancel
   the race — it becomes a [portfolio.member_error] event and a
   [robust.member_failures] count, and the winner is picked among the
   survivors.  Only when every member dies does the race raise
   [Portfolio_failed] with the per-member errors.  A dead member's
   partial trace buffer is dropped (only its error event is folded), so
   the merged stream's [search.eval_error] count still equals the
   summed [failures] of the survivors.

   The returned outcome carries the winner's schedule but the total
   evaluation count of the surviving members (what the race actually
   spent and can account for); cache counters are the winner's own;
   [failures] sums the survivors' quarantined evaluations. *)
and optimize_portfolio_ctx ~(ctx : Ctx.t)
    ~(members : portfolio_member list) (target : target)
    (prog : Ir.Prog.t) : outcome * string =
  let { Ctx.jobs; obs; metrics; _ } = ctx in
  let members = Array.of_list members in
  let n = Array.length members in
  if n = 0 then invalid_arg "optimize_portfolio_ctx: empty portfolio";
  Array.iter
    (fun m ->
      match m.pstrategy with
      | Portfolio _ -> invalid_arg "optimize_portfolio_ctx: nested portfolio"
      | _ -> ())
    members;
  (* Each member traces into its own buffer sink; the buffers are
     folded into [obs] in member order after the race, prefixed with a
     [portfolio.member] header — so the merged stream does not depend
     on race scheduling.  The metrics registry is shared (it is
     mutex-protected and its counters commute). *)
  let traced = Obs.Trace.enabled obs in
  let sinks =
    Array.init n (fun _ ->
        if traced then Obs.Trace.make_buffer () else Obs.Trace.null)
  in
  (* Each member runs its own sequential search (jobs = 0 inside the
     workers) under its own seed and trace buffer; everything else —
     cache, warm start, guard, faults, metrics — is the shared ctx. *)
  (* checkpointing is disabled inside the race: one checkpoint file
     cannot hold five members' states, and a member is cheap to rerun *)
  let run i =
    let m = members.(i) in
    optimize_ctx
      ~ctx:
        {
          ctx with
          Ctx.seed = m.pseed;
          obs = sinks.(i);
          jobs = 0;
          checkpoint = None;
          resume = false;
        }
      m.pstrategy target prog
  in
  let jobs = max 1 (min jobs n) in
  let instrument = metrics <> None in
  let results =
    Parallel.Pool.with_pool ~instrument ~jobs (fun pool ->
        let results =
          Parallel.Pool.map_result pool run (Array.init n (fun i -> i))
        in
        (match metrics with
        | Some m -> Parallel.Pool.export pool m
        | None -> ());
        results)
  in
  let dead =
    Array.to_list results
    |> List.mapi (fun i r -> (i, r))
    |> List.filter_map (fun (i, r) ->
           match r with
           | Ok _ -> None
           | Error e -> Some (members.(i).plabel, Printexc.to_string e))
  in
  (match (metrics, dead) with
  | Some m, _ :: _ ->
      Obs.Metrics.incr m ~by:(List.length dead) "robust.member_failures"
  | _ -> ());
  if List.length dead = n then raise (Portfolio_failed dead);
  let besti = ref (-1) in
  Array.iteri
    (fun i r ->
      match r with
      | Error _ -> ()
      | Ok (o : outcome) ->
          if !besti < 0 then besti := i
          else begin
            match results.(!besti) with
            | Ok b -> if o.time_s < b.time_s then besti := i
            | Error _ -> assert false
          end)
    results;
  let besti = !besti in
  let winner =
    match results.(besti) with Ok o -> o | Error _ -> assert false
  in
  if traced then
    Array.iteri
      (fun i r ->
        match r with
        | Ok (o : outcome) ->
            Obs.Trace.emit obs "portfolio.member" (fun () ->
                Obs.Trace.
                  [
                    str "label" members.(i).plabel;
                    num "time_s" o.time_s;
                    int "evals" o.evaluations;
                  ]);
            Obs.Trace.append ~into:obs sinks.(i)
        | Error e ->
            Obs.Trace.emit obs "portfolio.member_error" (fun () ->
                Obs.Trace.
                  [
                    str "label" members.(i).plabel;
                    str "error" (Printexc.to_string e);
                  ]))
      results;
  if traced then
    Obs.Trace.emit obs "portfolio.winner" (fun () ->
        Obs.Trace.
          [
            str "label" members.(besti).plabel; num "time_s" winner.time_s;
          ]);
  let sum_survivors f =
    Array.fold_left
      (fun acc r -> match r with Ok o -> acc + f o | Error _ -> acc)
      0 results
  in
  let total_evals = sum_survivors (fun o -> o.evaluations) in
  let total_failures = sum_survivors (fun o -> o.failures) in
  ( { winner with evaluations = total_evals; failures = total_failures },
    members.(besti).plabel )

(* One tuned request, ready to deposit: optimize under the context and
   build the replayed-and-retimed database record of the winner in the
   same call — the one deposit rule, shared by the serve daemon, the
   library generator and the CLI's optimize verb.  The record is [None]
   when the moves do not replay exactly under the run's caps, or when
   the replayed schedule would record a *slower* time than the outcome
   — depositing that would make a future warm start worse than cold
   (a pass strategy's schedule carries no move trace, so it records
   only when the root is at least as fast). *)
let optimize_recorded ~(ctx : Ctx.t) ~kernel ~target_name strategy
    (target : target) (prog : Ir.Prog.t) : outcome * Tuning.Record.t option
    =
  let o = optimize_ctx ~ctx strategy target prog in
  (* an empty move list is still recordable: it replays to the root, so
     a kernel whose naive form is already optimal warms up like any
     other instead of re-searching forever *)
  let record =
    match
      Tuning.Warmstart.record_of
        ~objective:(fun q -> Machine.time target q)
        ~caps:(caps_of ~ctx target) ~kernel ~target:target_name ~root:prog
        ~moves:o.moves ~evals:o.evaluations
    with
    | Error _ -> None
    | Ok r ->
        if r.Tuning.Record.best_time <= o.time_s *. (1. +. 1e-9) then Some r
        else None
  in
  (o, record)

(* Best-of: run a heuristic pass and a search, keep the winner — the
   usual production setting.  The pass runs sequentially (it is a
   single construction); only the search uses [ctx.jobs]. *)
let optimize_best ~(ctx : Ctx.t) ?(budget = 300) target prog =
  let h = optimize_ctx ~ctx:{ ctx with Ctx.jobs = 0 } Heuristic target prog in
  let s =
    optimize_ctx ~ctx
      (Annealing { budget; space = Search.Stochastic.Heuristic })
      target prog
  in
  if h.time_s <= s.time_s then h else s
