(* Stochastic schedule search (§4.2).

   Two search-space structures:
     - [`Edges]: the search graph mirrors the transformation graph; a
       candidate is grown by appending one applicable move to a parent.
     - [`Heuristic]: a candidate is a complete transformation *sequence*;
       neighbors are produced by modifying the sequence at an arbitrary
       point (replace / delete / insert a move) and replaying the rest,
       skipping moves that became inapplicable — the paper's
       "iteratively refined at arbitrary points" structure.  A run keeps
       one mutation-draw table: the moves offered after each prefix it
       has mutated at, so a repeated prefix (most of them: annealing
       keeps mutating its current state) is neither replayed nor
       re-enumerated.  Inside a run moves stay typed ([Moveref.t]):
       drawing, growing and replaying a child never prints or parses a
       describe string, and strings appear only at the run's
       boundaries — the warm start it is handed, its checkpoints and
       its result.

   Two methods:
     - weighted random sampling over all previously encountered
       candidates, with selection probability based on the *parent's*
       runtime (so children of weak candidates rarely get budget);
     - simulated annealing, whose cost is the candidate's own runtime.

   Both run through one engine, AutoTVM's batched measurement loop
   ([run_rounds]): a round draws [batch] parents, grows and measures
   their children, and folds the outcomes back in slot order.  Batch 1
   is the sequential algorithm, and the evaluation-saving stages
   (dedup, visited set, surrogate pre-ranking) are identities unless
   asked for.  Every budget slot is one step of the best-so-far curve
   recorded for the convergence comparison (Figure 12). *)

open Transform

type objective = Ir.Prog.t -> float

type space = Edges | Heuristic

(* A surrogate pre-ranking stage: [score] is a cheap learned predictor
   (higher = predicted faster) used to rank the distinct candidates of
   a round so only the top [filter_ratio] fraction pays for a real
   (simulator) evaluation; [observe] feeds every real measurement back
   as online training signal; [snapshot]/[restore] carry the model
   across a checkpoint.  The search layer treats all four as abstract
   closures — the concrete model lives in [lib/surrogate], which
   depends on this library, not the reverse. *)
type prerank = {
  score : Ir.Prog.t -> float;  (** higher = predicted faster *)
  observe : Ir.Prog.t -> float -> unit;
      (** called with every real measurement, in slot order *)
  filter_ratio : float;  (** fraction of distinct candidates kept, (0, 1] *)
  snapshot : unit -> Util.Json.t;  (** the model's state, for a checkpoint *)
  restore : Util.Json.t -> unit;  (** put a [snapshot] back on resume *)
}

type result = {
  best : Ir.Prog.t;
  best_time : float;
  best_moves : string list;
  curve : float array; (* best-so-far runtime after each budget slot *)
  evals : int; (* simulator evaluations actually performed *)
  skipped : int; (* slots filtered out by the surrogate (no evaluation) *)
  deduped : int; (* duplicate slots answered by a shared evaluation *)
  visited : int; (* slots whose canonical state was already evaluated *)
  failures : int; (* evaluations quarantined by the guard *)
}

(* Replay a sequence of steps from [prog], skipping steps whose move
   ([move step]) is not applicable at its point.  Returns the final
   program and the steps that actually applied.  Each step checks only
   its move's own site (Xforms.resolve_move): the instance lookup over
   Xforms.all would return, without rediscovering every other move of
   the state. *)
let replay_steps ~move ?(filter = fun (_ : Xforms.instance) -> true) caps prog
    steps =
  List.fold_left
    (fun (p, applied) step ->
      match Xforms.resolve_move ~filter caps p (move step) with
      | Some inst -> (inst.apply p, step :: applied)
      | None -> (p, applied))
    (prog, []) steps
  |> fun (p, applied) -> (p, List.rev applied)

let replay_moves ?filter caps prog moves =
  replay_steps ~move:Fun.id ?filter caps prog moves

(* The same over describe strings: a string that is not a move's
   canonical spelling names nothing, so it is skipped like an
   inapplicable move. *)
let replay_skipping ?filter caps prog names =
  let named name = Option.map (fun m -> (m, name)) (Xforms.named name) in
  let p, applied =
    replay_steps ~move:fst ?filter caps prog (List.filter_map named names)
  in
  (p, List.map snd applied)

(* Replay a recorded sequence exactly: every move must apply at its
   point.  A failure reports the step index, the path the failing
   string anchors to, and the nearest applicable alternatives of the
   same transformation.  The final program is validated once. *)
let replay_exact ?(filter = fun (_ : Xforms.instance) -> true) caps root
    names =
  let rec go step p = function
    | [] -> (
        match Ir.Validate.check p with
        | [] -> Ok p
        | errs ->
            Error
              ("replayed program is invalid: "
              ^ String.concat "; " (List.map Ir.Validate.error_to_string errs)
              ))
    | name :: rest -> (
        match Xforms.resolve ~filter caps p name with
        | Some inst -> go (step + 1) (inst.apply p) rest
        | None ->
            let offered = List.filter filter (Xforms.all caps p) in
            let mref = Moveref.of_describe name in
            let path_s =
              match Option.bind mref Moveref.anchor with
              | Some path -> Target.path_str path
              | None -> "(no path)"
            in
            let same_xname =
              match Option.map Moveref.xname mref with
              | Some xn ->
                  List.filter
                    (fun (i : Xforms.instance) -> Moveref.xname i.move = xn)
                    offered
              | None -> []
            in
            let pool = if same_xname = [] then offered else same_xname in
            let alts =
              List.filteri (fun k _ -> k < 3) (List.map Xforms.describe pool)
            in
            Error
              (Printf.sprintf
                 "step %d: move %S not applicable at %s; nearest applicable: %s"
                 step name path_s
                 (if alts = [] then "none" else String.concat ", " alts)))
  in
  if names = [] then Ok root else go 0 root names

(* The mutation-draw table of one run.  [mutate_with] draws its move from
   those offered at the mutation point, which it reaches by replaying
   the prefix of moves before it from the root.  A run's root, caps and
   filter are fixed and replay is deterministic, so equal prefixes reach
   the same program and offer the same moves: the table maps a prefix
   to the offered moves that pass the filter, in [Xforms.all] order, and
   a repeated prefix costs neither the replay nor the enumeration.  It
   holds typed moves only — no program, closure or instance — and never
   prints or parses a describe string.  It is not checkpointed: a
   resumed run starts empty.  Pool tasks share it under [lock]; a miss
   enumerates outside the lock, and two tasks racing on one prefix
   store equal arrays. *)
module Prefix = Hashtbl.Make (struct
  type t = Moveref.t list

  let equal = List.equal ( = )
  let hash = List.fold_left (fun h m -> (h * 31) + Hashtbl.hash m) 0
end)

type draws = { offered : Moveref.t array Prefix.t; lock : Mutex.t }

let new_draws () = { offered = Prefix.create 64; lock = Mutex.create () }

let offered_after ~filter caps root draws prefix =
  let find () = Prefix.find_opt draws.offered prefix in
  match Mutex.protect draws.lock find with
  | Some offered -> offered
  | None ->
      let p, _ = replay_moves ~filter caps root prefix in
      let fresh =
        Array.of_list
          (List.filter_map
             (fun (i : Xforms.instance) ->
               if filter i then Some i.move else None)
             (Xforms.all caps p))
      in
      Mutex.protect draws.lock (fun () ->
          match find () with
          | Some offered -> offered
          | None ->
              Prefix.add draws.offered prefix fresh;
              fresh)

(* One structural mutation of a move sequence: delete a move, or insert
   or replace one by a move offered at that point, drawn from [draws]. *)
let mutate_with ~filter caps draws rng prog (moves : Moveref.t list) =
  let n = List.length moves in
  let arr = Array.of_list moves in
  let sub pos len = Array.to_list (Array.sub arr pos len) in
  let draw_between prefix suffix =
    let offered = offered_after ~filter caps prog draws prefix in
    let k = Array.length offered in
    if k = 0 then moves
    else prefix @ [ offered.(Util.Rng.int rng k) ] @ suffix
  in
  let choice = Util.Rng.int rng 3 in
  if n = 0 || choice = 2 then begin
    (* insert a random applicable move at a random point *)
    let pos = if n = 0 then 0 else Util.Rng.int rng (n + 1) in
    draw_between (sub 0 pos) (sub pos (n - pos))
  end
  else if choice = 0 then begin
    (* delete a random move *)
    let pos = Util.Rng.int rng n in
    List.filteri (fun i _ -> i <> pos) moves
  end
  else begin
    (* replace a random move by another applicable at the same point *)
    let pos = Util.Rng.int rng n in
    draw_between (sub 0 pos) (sub (pos + 1) (n - pos - 1))
  end

(* A candidate keeps its moves typed: a run prints them only where it
   hands them out (its result, a checkpoint). *)
type candidate = {
  moves : Moveref.t list;
  prog : Ir.Prog.t;
  runtime : float;
  parent_runtime : float;
}

(* ------------------------------------------------------------------ *)
(* Guarded evaluation and quarantine                                   *)
(* ------------------------------------------------------------------ *)

(* A failed evaluation is quarantined instead of aborting the run: the
   candidate keeps its slot in the trajectory with runtime +inf, so it
   is never the best, never accepted by annealing, and (pushed with
   weight 0) never selected as a sampling parent.  [prog] is reset to
   the root so a quarantined entry carries no partially-transformed
   program. *)
let quarantined root parent_runtime =
  { moves = []; prog = root; runtime = infinity; parent_runtime }

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

(* Every emission site is guarded with [Obs.Trace.enabled] so an
   untraced run allocates neither events nor field-thunk closures.  All
   traced values (step indices, runtimes, move counts, temperature) are
   deterministic functions of (seed, batch) — wall-clock only ever
   enters through [dur_s] fields, which [Obs.Trace.strip_timing]
   removes; this is what makes --jobs 1 / --jobs N traces comparable. *)

let space_name = function Edges -> "edges" | Heuristic -> "heuristic"

let emit_start obs ~meth ~space ~budget ~seed ~root_time =
  if Obs.Trace.enabled obs then
    Obs.Trace.emit obs "search.start" (fun () ->
        Obs.Trace.
          [
            str "method" meth;
            str "space" (space_name space);
            int "budget" budget;
            int "seed" seed;
            num "root_time" root_time;
          ])

let emit_step obs ~i ~runtime ~best extra =
  if Obs.Trace.enabled obs then
    Obs.Trace.emit obs "search.step" (fun () ->
        Obs.Trace.int "i" i
        :: Obs.Trace.num "runtime" runtime
        :: Obs.Trace.num "best" best
        :: extra ())

let emit_best obs ~i (c : candidate) =
  if Obs.Trace.enabled obs then
    Obs.Trace.emit obs "search.best" (fun () ->
        Obs.Trace.
          [
            int "i" i;
            num "runtime" c.runtime;
            int "n_moves" (List.length c.moves);
          ])

(* Counter/gauge updates per evaluated step.  [accepted = None] for the
   sampling method (no acceptance notion): then only the step counter
   and the runtime histogram move.  Annealing passes [Some bool] and
   additionally maintains [search.accepted], [search.acceptance_rate]
   and [search.temperature]. *)
let note_step ?metrics ?accepted ?temp ~runtime () =
  match metrics with
  | None -> ()
  | Some m ->
      Obs.Metrics.incr m "search.steps";
      Obs.Metrics.observe m "search.runtime" runtime;
      (match accepted with
      | None -> ()
      | Some acc ->
          if acc then Obs.Metrics.incr m "search.accepted";
          let steps = Obs.Metrics.counter m "search.steps" in
          Obs.Metrics.set m "search.acceptance_rate"
            (float_of_int (Obs.Metrics.counter m "search.accepted")
            /. float_of_int (max steps 1)));
      match temp with
      | None -> ()
      | Some t -> Obs.Metrics.set m "search.temperature" t

(* A measured child folds into best-so-far, then into the step trace
   and counters; annealing adds its acceptance decision and
   temperature. *)
let record_step ?metrics ?accepted ?temp obs best ~slot (child : candidate) =
  if child.runtime < !best.runtime then begin
    best := child;
    emit_best obs ~i:slot child
  end;
  emit_step obs ~i:slot ~runtime:child.runtime ~best:!best.runtime (fun () ->
      match (accepted, temp) with
      | Some a, Some t -> Obs.Trace.[ bool "accepted" a; num "temp" t ]
      | _ -> []);
  note_step ?metrics ?accepted ?temp ~runtime:child.runtime ()

(* Produce a child candidate according to the space structure.  In the
   edges-structured space the child program is the parent program plus
   one move, so it is returned directly (no replay from the root). *)
let expand ?(filter = fun (_ : Xforms.instance) -> true) space caps draws rng
    root (parent : candidate) : Moveref.t list * Ir.Prog.t option =
  match space with
  | Edges -> (
      (* append one applicable move *)
      let insts = List.filter filter (Xforms.all caps parent.prog) in
      match insts with
      | [] -> (parent.moves, Some parent.prog)
      | _ ->
          let inst = List.nth insts (Util.Rng.int rng (List.length insts)) in
          (parent.moves @ [ inst.move ], Some (inst.apply parent.prog)))
  | Heuristic -> (mutate_with ~filter caps draws rng root parent.moves, None)

(* ------------------------------------------------------------------ *)
(* Prelude: root, warm start, failure accounting                       *)
(* ------------------------------------------------------------------ *)

(* Warm-start: replay a recorded move sequence from the root and return
   it as a candidate to seed the search with — tuning resumes from the
   database's best instead of restarting cold.  Its strings name moves
   by the canonical-spelling rule, once; only the moves that apply are
   kept.  Guarded like every other evaluation: a database sequence
   recorded by an older build may no longer replay, and that must
   degrade to a cold start, not a crash. *)
let warm_candidate ~guard ?filter caps objective root (init : string list) :
    (candidate option, Robust.Guard.failure) Stdlib.result =
  if init = [] then Ok None
  else
    Result.map Option.some
      (Robust.Guard.run ~cfg:guard
         ~cost:(fun c -> c.runtime)
         (fun () ->
           let p, moves =
             replay_moves ?filter caps root (List.filter_map Xforms.named init)
           in
           { moves; prog = p; runtime = objective p; parent_runtime = infinity })
         ())

(* The candidate pool and its selection weights live in growable buffers
   (amortized O(1) push) — a per-evaluation [Array.append] would make
   pool growth O(budget^2).  The weight of a candidate depends only on
   its parent's runtime, so it is computed once at push time;
   [weighted_index_n] samples over the live prefix without copying.
   Quarantined candidates are pushed with weight 0: they keep their
   trajectory slot but are never drawn as parents. *)
let make_pool root =
  let dummy =
    { moves = []; prog = root; runtime = infinity; parent_runtime = infinity }
  in
  let pool = Util.Dynarray.create ~capacity:64 dummy in
  let weights = Util.Dynarray.create ~capacity:64 0.0 in
  let push_weighted w c =
    Util.Dynarray.push pool c;
    Util.Dynarray.push weights w
  in
  (pool, weights, push_weighted)

let weight c = 1.0 /. Float.max c.parent_runtime 1e-12

let pick_parent rng pool weights =
  Util.Dynarray.get pool
    (Util.Rng.weighted_index_n rng
       (Util.Dynarray.unsafe_data weights)
       (Util.Dynarray.length weights))

(* A failure counter plus its recorder for the prelude.  Every
   quarantined evaluation becomes one [search.eval_error] event (the [i]
   field is -1 for the root evaluation, -2 for the warm-start replay;
   budget slots carry [slot] instead) and bumps the robust.* counters —
   so [result.failures] always equals the number of eval_error events
   the run traced. *)
let make_noter ?metrics obs =
  let failures = ref 0 in
  let note ~i f =
    incr failures;
    Robust.Guard.note ~obs ?metrics ~fields:[ Obs.Trace.int "i" i ] f
  in
  (failures, note)

(* Root failure degrades to an infinite root score: search still runs,
   any finite candidate immediately becomes best. *)
let guarded_root ~guard ~note objective root =
  match Robust.Guard.eval ~cfg:guard objective root with
  | Ok t -> t
  | Error f ->
      note ~i:(-1) f;
      infinity

let guarded_warm ~guard ~note ?filter caps objective root ~root_time init =
  match warm_candidate ~guard ?filter caps objective root init with
  | Ok None -> None
  | Ok (Some w) -> Some { w with parent_runtime = root_time }
  | Error f ->
      note ~i:(-2) f;
      None

(* ------------------------------------------------------------------ *)
(* The round loop                                                      *)
(* ------------------------------------------------------------------ *)

let default_batch = 8

(* AutoTVM's batched measurement loop.  Each round:

     1. prepares its slots on the submitting thread, in slot order:
        parent selection, then the slot's RNG — the search stream
        itself when the configured batch is 1 (exactly the sequential
        algorithm), one split-off stream per slot otherwise;
     2. builds the children on the pool (expansion + replay, pure) and,
        unless a stage below must first see the whole round, measures
        each one in the task that built it, so building overlaps the
        measurement latency;
     3. dedup ([dedup]): slots are grouped by canonical fingerprint
        ({!Canon.fingerprint}); each distinct state is measured once per
        round and duplicates share it ([search.batch_dedup]);
     4. visited set ([visited]): a state measured in an earlier round is
        never measured again ([search.visited_skip]);
     5. surrogate pre-ranking ([prerank]): only the top
        [filter_ratio] of the distinct states reach the simulator, the
        rest are skipped ([search.prerank]);
     6. measures the selected representatives on the pool (staged runs);
     7. folds every slot in slot order on the submitting thread.

   An absent stage is an identity: no fingerprint, no surrogate.* or
   canon.* counter, no event, and no clock read when untraced.  All
   randomness (parent selection, RNG splits, acceptance draws in
   [fold]) and every stage decision happens on the submitting thread in
   slot order, so the trajectory is a function of (seed, batch, model
   state) — jobs = 1 and jobs = N are identical, which the determinism
   tests pin.

   Building outside the guard preserves its semantics: replay is pure
   and draws no randomness, so an exception while building classifies
   with the same [rejected_of_exn] a guarded replay would produce, and
   {!Robust.Faults} only ever wraps the objective.

   [start]/[curve_init]/[counters_init] resume from a checkpointed round
   boundary; [round_end] fires after each round with the filled count,
   the curve and the (evals, skipped, deduped, visited) accounting so
   far — the checkpoint's safe point.  Returns the curve plus that
   accounting: budget = evals + skipped + deduped + visited +
   build-failures. *)

(* What one budget slot amounted to, folded in slot order. *)
type slot_outcome =
  | Evaluated of candidate  (** fresh measurement or shared duplicate *)
  | Failed of Robust.Guard.failure
      (** build or evaluation failure — quarantine *)
  | Skipped  (** surrogate-filtered: no measurement, not a failure *)
  | Visited
      (** canonical state already evaluated in an earlier round: no
          measurement, the visited set answered *)

(* Grow one child without measuring it: the (moves, program) pair ready
   for dedup/ranking.  Exceptions from a transform or replay classify
   exactly like they would under the guard. *)
let build_child ?filter space caps draws root (parent : candidate) task_rng :
    (Moveref.t list * Ir.Prog.t, Robust.Guard.failure) Stdlib.result =
  match
    match expand ?filter space caps draws task_rng root parent with
    | moves, Some p -> (moves, p)
    | moves, None ->
        let p, applied = replay_moves ?filter caps root moves in
        (applied, p)
  with
  | v -> Ok v
  | exception e -> Error (Robust.Guard.rejected_of_exn e)

let check_prerank = function
  | Some p when not (p.filter_ratio > 0. && p.filter_ratio <= 1.) ->
      invalid_arg "Stochastic: prerank filter_ratio must be in (0, 1]"
  | _ -> ()

(* Seed the online model with the measurements the prelude already
   paid for (root, warm-start replay). *)
let observe_seed prerank root ~root_time warm =
  match prerank with
  | None -> ()
  | Some p ->
      if Float.is_finite root_time then p.observe root root_time;
      (match warm with
      | Some w when Float.is_finite w.runtime -> p.observe w.prog w.runtime
      | _ -> ())

let run_rounds ?filter ?metrics ?pool ~obs ~rng ~batch ~budget ~guard ~dedup
    ~prerank ~visited ~space ~caps ~root ~objective ~start ~curve_init
    ~counters_init ~round_end ~parent ~fold () =
  if start < 0 || start > budget then
    invalid_arg "Stochastic: resume offset out of range";
  let traced = Obs.Trace.enabled obs in
  let map f xs =
    match pool with None -> Array.map f xs | Some p -> Parallel.Pool.map p f xs
  in
  let bump ?(by = 1) name =
    if by > 0 then
      match metrics with None -> () | Some m -> Obs.Metrics.incr m ~by name
  in
  let ratio = match prerank with None -> 1.0 | Some p -> p.filter_ratio in
  let want_fp = dedup || visited <> None in
  (* a stage that must see the whole round before anything is measured *)
  let staged = want_fp || ratio < 1.0 in
  let measure prog =
    let t0 = if traced then Obs.Span.now () else 0. in
    let r = Robust.Guard.eval ~cfg:guard objective prog in
    (r, if traced then Float.max 0. (Obs.Span.now () -. t0) else 0.)
  in
  let draws = new_draws () in
  let curve = Array.make budget infinity in
  Array.blit curve_init 0 curve 0 (min start (Array.length curve_init));
  let e0, s0, d0, v0 = counters_init in
  let n_evals = ref e0
  and n_skipped = ref s0
  and n_deduped = ref d0
  and n_visited = ref v0 in
  let filled = ref start in
  while !filled < budget do
    let b = min batch (budget - !filled) in
    (* 1. prepare — the only draws from the search stream before fold *)
    let prepared =
      Array.init b (fun _ ->
          let p = parent () in
          (p, if batch = 1 then rng else Util.Rng.split rng))
    in
    (* 2. build (and, unstaged, measure) on the pool *)
    let built =
      map
        (fun (parent, task_rng) ->
          match build_child ?filter space caps draws root parent task_rng with
          | Error _ as r -> (r, "", None)
          | Ok (_, p) as r ->
              ( r,
                (if want_fp then Canon.fingerprint p else ""),
                if staged then None else Some (measure p) ))
        prepared
    in
    let rep_of = Array.init b Fun.id in
    let visited_rep = Array.make b false in
    let measured =
      if not staged then Array.map (fun (_, _, m) -> m) built
      else begin
        let fps = Array.map (fun (_, fp, _) -> fp) built in
        let is_ok i = match built.(i) with Ok _, _, _ -> true | _ -> false in
        let n_ok = List.length (List.filter is_ok (List.init b Fun.id)) in
        (* 3. dedup: alpha-renamed / commutatively-reordered spellings of
           one state share a group; the first slot is its representative *)
        if dedup then begin
          let tbl = Hashtbl.create (2 * b) in
          for i = 0 to b - 1 do
            if is_ok i then
              match Hashtbl.find_opt tbl fps.(i) with
              | None -> Hashtbl.add tbl fps.(i) i
              | Some r -> rep_of.(i) <- r
          done
        end;
        let all_reps =
          List.filter (fun i -> rep_of.(i) = i && is_ok i) (List.init b Fun.id)
        in
        (* 4. visited filter, checked on the submitting thread *)
        (match visited with
        | None -> ()
        | Some set ->
            List.iter
              (fun i -> if Hashtbl.mem set fps.(i) then visited_rep.(i) <- true)
              all_reps);
        let reps = List.filter (fun i -> not visited_rep.(i)) all_reps in
        let n_reps = List.length reps in
        if want_fp then begin
          bump ~by:n_ok "canon.total";
          bump ~by:n_reps "canon.unique"
        end;
        if dedup then begin
          bump ~by:(n_ok - List.length all_reps) "surrogate.dedup_saved";
          if traced then
            Obs.Trace.emit obs "search.batch_dedup" (fun () ->
                Obs.Trace.
                  [
                    int "i" !filled;
                    int "unique" (List.length all_reps);
                    int "total" n_ok;
                  ])
        end;
        (* 5. pre-rank: keep the top-k distinct candidates; equal scores
           resolve by slot order, so selection is deterministic *)
        let selected =
          match prerank with
          | Some p when ratio < 1.0 ->
              let scored =
                List.map
                  (fun i ->
                    match built.(i) with
                    | Ok (_, prog), _, _ -> (i, p.score prog)
                    | Error _, _, _ -> assert false)
                  reps
              in
              let k =
                min n_reps
                  (max 1 (int_of_float (ceil (ratio *. float_of_int n_reps))))
              in
              let order =
                List.stable_sort
                  (fun (i1, s1) (i2, s2) ->
                    match compare (s2 : float) s1 with
                    | 0 -> compare (i1 : int) i2
                    | c -> c)
                  scored
              in
              bump ~by:n_reps "surrogate.scored";
              bump ~by:k "surrogate.kept";
              bump ~by:(n_reps - k) "surrogate.filtered";
              if traced then
                Obs.Trace.emit obs "search.prerank" (fun () ->
                    Obs.Trace.
                      [ int "i" !filled; int "scored" n_reps; int "kept" k ]);
              List.filteri (fun idx _ -> idx < k) order
              |> List.map fst |> List.sort compare
          | _ -> reps
        in
        (* 6. measure the selected representatives on the pool *)
        let selected = Array.of_list selected in
        let results =
          map
            (fun i ->
              match built.(i) with
              | Ok (_, prog), _, _ -> measure prog
              | Error _, _, _ -> assert false)
            selected
        in
        let m = Array.make b None in
        Array.iteri (fun j i -> m.(i) <- Some results.(j)) selected;
        (* quarantined evaluations stay unmarked (like the cache, which
           never stores non-finite scores) so they do not poison the
           visited set *)
        (match visited with
        | None -> ()
        | Some set ->
            Array.iteri
              (fun j i ->
                match results.(j) with
                | Ok _, _ -> Hashtbl.replace set fps.(i) ()
                | Error _, _ -> ())
              selected);
        m
      end
    in
    let n_measured =
      Array.fold_left
        (fun n m -> if Option.is_some m then n + 1 else n)
        0 measured
    in
    n_evals := !n_evals + n_measured;
    if prerank <> None then bump ~by:n_measured "surrogate.evals";
    (* 7. fold in slot order; every event of the round is emitted here *)
    for i = 0 to b - 1 do
      let slot = !filled + i in
      let parent, _ = prepared.(i) in
      let outcome =
        match built.(i) with
        | Error f, _, _ -> Failed f
        | Ok (moves, prog), _, _ -> (
            if visited_rep.(rep_of.(i)) then begin
              incr n_visited;
              if traced then
                Obs.Trace.emit obs "search.visited_skip" (fun () ->
                    Obs.Trace.[ int "slot" slot ]);
              Visited
            end
            else
              match measured.(rep_of.(i)) with
              | None ->
                  incr n_skipped;
                  Skipped
              | Some (Error f, _) ->
                  if i <> rep_of.(i) then incr n_deduped;
                  Failed f
              | Some (Ok runtime, dur) ->
                  if i = rep_of.(i) then begin
                    (match prerank with
                    | Some p -> p.observe prog runtime
                    | None -> ());
                    if traced then
                      Obs.Trace.emit obs "search.eval" (fun () ->
                          Obs.Trace.
                            [
                              int "slot" slot;
                              int "n_moves" (List.length moves);
                              num "runtime" runtime;
                              num "dur_s" dur;
                            ])
                  end
                  else incr n_deduped;
                  Evaluated
                    { moves; prog; runtime; parent_runtime = parent.runtime })
      in
      curve.(slot) <- fold slot parent outcome
    done;
    filled := !filled + b;
    round_end ~filled:!filled ~curve
      ~stats:(!n_evals, !n_skipped, !n_deduped, !n_visited)
  done;
  (curve, !n_evals, !n_skipped, !n_deduped, !n_visited)

(* Seed a fresh visited set with the states the prelude already
   measured (root, warm-start replay): children that land back on them
   must not pay a second simulation. *)
let make_visited ~visited_dedup root warm =
  if not visited_dedup then None
  else begin
    let set = Hashtbl.create 64 in
    Hashtbl.replace set (Canon.fingerprint root) ();
    (match warm with
    | Some w -> Hashtbl.replace set (Canon.fingerprint w.prog) ()
    | None -> ());
    Some set
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint fields                                                   *)
(* ------------------------------------------------------------------ *)

(* The engine checkpoints at round boundaries through {!Checkpoint}:
   rounds are its unit of determinism (parent selection, RNG splits and
   acceptance draws all happen on the submitting thread between them).
   Its fields are the whole search state: main RNG quadruple, candidate
   pool with selection weights, best-so-far, the annealing chain, the
   curve prefix, exact accounting, the visited set and the surrogate
   model.  Floats (runtimes can be +inf for quarantined slots) cross the
   file boundary as IEEE-754 bit patterns ({!Recover.Bits}). *)

let ck_corrupt fmt = Recover.Field.corrupt fmt
let ck_list = Recover.Field.list
let hex64 v = Util.Json.Str (Printf.sprintf "%Lx" v)

let ck_hex64 = function
  | Util.Json.Str s -> (
      match Int64.of_string_opt ("0x" ^ s) with
      | Some v -> v
      | None -> ck_corrupt "bad 64-bit hex word %S" s)
  | _ -> ck_corrupt "RNG state word is not a string"

let cand_fields (c : candidate) =
  [ ("moves", Checkpoint.moves (List.map Moveref.describe c.moves));
    ("rt", Recover.Bits.of_float c.runtime);
    ("prt", Recover.Bits.of_float c.parent_runtime) ]

(* Rebuild a candidate from its saved (moves, runtime, parent_runtime):
   the program replays from the root through the same [filter] the
   original run used — transform replays only, no objective call.
   Every saved move applied, so each string is a move's canonical
   spelling and names it. *)
let cand_of_json ?filter caps root json =
  let names = Recover.Field.str_list "moves" json in
  let runtime = Recover.Field.float_bits "rt" json in
  let parent_runtime = Recover.Field.float_bits "prt" json in
  let prog = Checkpoint.replayed (replay_exact ?filter caps root names) in
  { moves = List.filter_map Xforms.named names; prog; runtime; parent_runtime }

(* The round-loop fields of a checkpoint: filled count, curve prefix,
   RNG state and (evals, skipped, deduped, visited) accounting. *)
let round_of_json json =
  let filled = Recover.Field.int "filled" json in
  let curve =
    ck_list "curve" json
    |> List.map (fun v ->
           match Recover.Bits.to_float v with
           | Some f -> f
           | None -> ck_corrupt "curve entry is not a float bit pattern")
    |> Array.of_list
  in
  if Array.length curve <> filled then
    ck_corrupt "curve length %d does not match filled %d" (Array.length curve)
      filled;
  let rng =
    match ck_list "rng" json with
    | [ _; _; _; _ ] as words -> Array.of_list (List.map ck_hex64 words)
    | l -> ck_corrupt "RNG state has %d words, expected 4" (List.length l)
  in
  let counts =
    match ck_list "counts" json |> List.map Util.Json.to_int with
    | [ Some e; Some s; Some d; Some v ] -> (e, s, d, v)
    | _ -> ck_corrupt "malformed accounting counts"
  in
  (filled, curve, Util.Rng.of_state rng, counts)

(* ------------------------------------------------------------------ *)
(* The two methods                                                     *)
(* ------------------------------------------------------------------ *)

(* Where a run starts: the cold prelude's root and warm-start
   candidates, or a checkpoint payload — whose state already holds the
   prelude's effects (root evaluation, warm replay, start event, model
   seeding), so re-running it would re-pay evaluations and duplicate
   trace events. *)
type origin = Cold of candidate * candidate option | Resumed of Util.Json.t

(* The half of a run that differs between the methods, built once the
   origin is known: the best-so-far cell, a slot's parent (drawn on the
   submitting thread, in slot order), the method's reaction to a folded
   slot (failures are already noted), and its checkpoint fields. *)
type chain = {
  best : candidate ref;
  parent : unit -> candidate;
  on_slot : slot:int -> candidate -> slot_outcome -> unit;
  fields : unit -> (string * Util.Json.t) list;
}

let search ~meth ~seed ?filter ~init ~obs ?metrics ~guard ?pool ~batch
    ?prerank ~dedup ~visited_dedup ?checkpoint ~space ~budget caps
    (objective : objective) (root : Ir.Prog.t)
    (chain : Util.Rng.t -> Obs.Trace.sink -> origin -> chain) : result =
  if budget < 0 then invalid_arg "Stochastic: budget must be >= 0";
  if batch < 1 then invalid_arg "Stochastic: batch must be >= 1";
  check_prerank prerank;
  let meth = if batch > 1 then meth ^ "-parallel" else meth in
  let guard = Robust.Guard.instrument ?metrics guard in
  let ck, obs, resumed =
    Checkpoint.start ?metrics checkpoint obs
      ~identity:
        Obs.Trace.
          [ str "kind" "stochastic"; str "method" meth;
            str "space" (space_name space); int "seed" seed;
            int "budget" budget; int "batch" batch ]
  in
  let failures, note = make_noter ?metrics obs in
  let rng, origin, visited, start, curve_init, counters_init =
    match resumed with
    | None ->
        let rng = Util.Rng.create seed in
        let root_time = guarded_root ~guard ~note objective root in
        let root_cand =
          { moves = []; prog = root; runtime = root_time;
            parent_runtime = root_time }
        in
        emit_start obs ~meth ~space ~budget ~seed ~root_time;
        let warm =
          guarded_warm ~guard ~note ?filter caps objective root ~root_time
            init
        in
        observe_seed prerank root ~root_time warm;
        ( rng, Cold (root_cand, warm), make_visited ~visited_dedup root warm,
          0, [||], (0, 0, 0, 0) )
    | Some json ->
        let filled, curve, rng, counts = round_of_json json in
        failures := Recover.Field.int "failures" json;
        (match (prerank, Util.Json.member "model" json) with
        | Some p, Some model -> p.restore model
        | _ -> ());
        let visited =
          if not visited_dedup then None
          else begin
            let set = Hashtbl.create 64 in
            Checkpoint.add_fingerprints set "visited" json;
            Some set
          end
        in
        (rng, Resumed json, visited, filled, curve, counts)
  in
  let c = chain rng obs origin in
  let fields ~filled ~curve ~stats () =
    let e, s, d, v = stats in
    let open Util.Json in
    [ Obs.Trace.int "filled" filled;
      ("rng", Arr (Array.to_list (Array.map hex64 (Util.Rng.state rng)))) ]
    @ c.fields ()
    @ [ ("curve", Arr (List.init filled (fun i -> Recover.Bits.of_float curve.(i))));
        ("counts", Arr (List.map (fun x -> Num (float_of_int x)) [ e; s; d; v ]));
        Obs.Trace.int "failures" !failures;
        ("visited", Option.fold ~none:(Arr []) ~some:Checkpoint.fingerprints visited) ]
    @ Option.fold ~none:[] ~some:(fun p -> [ ("model", p.snapshot ()) ]) prerank
  in
  (* A run without a checkpoint has no safe-point work: its hook is a
     no-op, so the round loop allocates nothing for it.  A checkpointed
     run is due every [every] filled slots and at the end of the run. *)
  let round_end =
    match checkpoint with
    | None -> fun ~filled:_ ~curve:_ ~stats:_ -> ()
    | Some { Checkpoint.every; _ } ->
        let last = ref start in
        fun ~filled ~curve ~stats ->
          let due = filled - !last >= every || filled >= budget in
          if due then last := filled;
          Checkpoint.safe_point ck ~due ~finished:(filled >= budget)
            ~trace:(fun () ->
              let e, s, d, v = stats in
              Obs.Trace.[ int "filled" filled; int "evals" e; int "skipped" s;
                          int "deduped" d; int "visited" v ])
            (fields ~filled ~curve ~stats)
  in
  let fold slot parent outcome =
    (match outcome with
    | Failed f ->
        incr failures;
        Robust.Guard.note ~obs ?metrics ~fields:[ Obs.Trace.int "slot" slot ] f
    | Evaluated _ | Skipped | Visited -> ());
    c.on_slot ~slot parent outcome;
    !(c.best).runtime
  in
  let curve, evals, skipped, deduped, visited =
    run_rounds ?filter ?metrics ?pool ~obs ~rng ~batch ~budget ~guard ~dedup
      ~prerank ~visited ~space ~caps ~root ~objective ~start ~curve_init
      ~counters_init ~round_end ~parent:c.parent ~fold ()
  in
  let best = !(c.best) in
  {
    best = best.prog;
    best_time = best.runtime;
    best_moves = List.map Moveref.describe best.moves;
    curve;
    evals;
    skipped;
    deduped;
    visited;
    failures = !failures;
  }

(* Weighted random sampling: a slot's parent is drawn from every
   candidate encountered so far (as of the round start). *)
let random_sampling ?(seed = 1) ?filter ?(init = [])
    ?(obs = Obs.Trace.null) ?metrics ?(guard = Robust.Guard.default)
    ?(batch = 1) ?prerank ?(dedup = false) ?(visited_dedup = false)
    ?checkpoint ?pool ~(space : space) ~(budget : int) caps
    (objective : objective) (root : Ir.Prog.t) : result =
  search ~meth:"random-sampling" ~seed ?filter ~init ~obs ?metrics ~guard
    ?pool ~batch ?prerank ~dedup ~visited_dedup ?checkpoint ~space ~budget
    caps objective root (fun rng obs origin ->
      let cands, weights, push_weighted = make_pool root in
      let push c = push_weighted (weight c) c in
      let best =
        match origin with
        | Cold (root_cand, warm) -> (
            push root_cand;
            Option.iter push warm;
            match warm with
            | Some w when w.runtime < root_cand.runtime -> w
            | Some _ | None -> root_cand)
        | Resumed json ->
            (* exact saved weights, so the first resumed draw matches *)
            List.iter
              (fun e ->
                let c = cand_of_json ?filter caps root e in
                push_weighted (Recover.Field.float_bits "w" e) c)
              (Recover.Field.list "pool" json);
            cand_of_json ?filter caps root (Recover.Field.member "best" json)
      in
      let best = ref best in
      {
        best;
        parent = (fun () -> pick_parent rng cands weights);
        on_slot =
          (fun ~slot parent -> function
            | Failed _ -> push_weighted 0.0 (quarantined root parent.runtime)
            | Skipped | Visited -> ()
            | Evaluated child ->
                push child;
                record_step ?metrics obs best ~slot child);
        fields =
          (fun () ->
            let entry i =
              Util.Json.Obj
                (cand_fields (Util.Dynarray.get cands i)
                @ [ ("w", Recover.Bits.of_float (Util.Dynarray.get weights i)) ])
            in
            [ ("pool", Util.Json.Arr (List.init (Util.Dynarray.length cands) entry));
              ("best", Util.Json.Obj (cand_fields !best)) ]);
      })

(* Simulated annealing: every proposal of a round branches off the
   round-start chain state; acceptance, cooling and best-so-far fold in
   slot order.  The chain starts at temperature 0.5, which every slot
   multiplies by 0.995. *)
let simulated_annealing ?(seed = 1) ?filter ?(init = [])
    ?(obs = Obs.Trace.null) ?metrics ?(guard = Robust.Guard.default)
    ?(batch = 1) ?prerank ?(dedup = false)
    ?(visited_dedup = false) ?checkpoint ?pool ~(space : space)
    ~(budget : int) caps (objective : objective) (root : Ir.Prog.t) : result =
  search ~meth:"simulated-annealing" ~seed ?filter ~init ~obs ?metrics ~guard
    ?pool ~batch ?prerank ~dedup ~visited_dedup ?checkpoint ~space ~budget
    caps objective root (fun rng obs origin ->
      let current, best, temp =
        match origin with
        | Cold (root_cand, warm) ->
            let c =
              match warm with
              | Some w when w.runtime <= root_cand.runtime -> w
              | Some _ | None -> root_cand
            in
            (c, c, 0.5)
        | Resumed json ->
            let current =
              match Util.Json.member "current" json with
              | Some c -> cand_of_json ?filter caps root c
              | None -> ck_corrupt "annealing checkpoint missing chain state"
            in
            let temp =
              match Option.bind (Util.Json.member "temp" json) Recover.Bits.to_float with
              | Some t -> t
              | None -> ck_corrupt "annealing checkpoint missing temperature"
            in
            let best = Recover.Field.member "best" json in
            (current, cand_of_json ?filter caps root best, temp)
      in
      let current = ref current and best = ref best and temp = ref temp in
      {
        best;
        parent = (fun () -> !current);
        on_slot =
          (fun ~slot _parent outcome ->
            (match outcome with
            | Failed _ | Skipped | Visited ->
                (* quarantined, filtered out or already measured: never
                   accepted, no acceptance draw (the outcome is
                   deterministic, so the draw sequence is too) *)
                ()
            | Evaluated child ->
                let accept =
                  child.runtime <= !current.runtime
                  ||
                  let delta =
                    (child.runtime -. !current.runtime)
                    /. Float.max !current.runtime 1e-12
                  in
                  Util.Rng.float rng < exp (-.delta /. Float.max !temp 1e-6)
                in
                if accept then current := child;
                record_step ?metrics ~accepted:accept ~temp:!temp obs best
                  ~slot child);
            (* cooling always advances, so the temperature is a function
               of the step index alone *)
            temp := !temp *. 0.995);
        fields =
          (fun () ->
            (* an empty pool: both methods write one layout *)
            [ ("pool", Util.Json.Arr []);
              ("best", Util.Json.Obj (cand_fields !best));
              ("current", Util.Json.Obj (cand_fields !current));
              ("temp", Recover.Bits.of_float !temp) ]);
      })
