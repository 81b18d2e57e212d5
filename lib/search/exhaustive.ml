(* Exhaustive enumeration of the transformation graph (ROADMAP item 1).

   Breadth-first over move sequences from the root: level k holds the
   programs first reached by k moves.  Every applied instance is one
   [total] encounter; canonical-fingerprint dedup (Canon) collapses the
   spellings of one state, so each state is expanded and measured once
   — the TransForm discipline (222 generated instances, 8 unique).

   Because the frontier holds every not-yet-expanded state, an empty
   frontier before the depth bound means the entire reachable
   transformation graph has been enumerated: the best runtime found is
   then a global optimum over all schedules reachable from the root
   ([exhausted = true]), not merely over sequences of length <= depth.
   Either way, a run that was not truncated by [default_max_states]
   certifies the optimum over every schedule within [depth] moves
   ([certified = true]) — the provable baseline the stochastic engines
   and the DQN are calibrated against.

   The walk is sequential and deterministic: Xforms.all enumerates
   instances in a fixed order, levels are processed in discovery order,
   and nothing draws randomness.

   Two savings change no result, trace or checkpoint.
   A child whose exact structure (Ir.Prog.digest) was fingerprinted
   earlier in the run is an exact repeat, so its fingerprint is already
   in [seen] and it skips Canon.fingerprint (40% of the children of the
   Snitch micro-kernels' depth-3 walks are such copies).  And the states
   found at the depth bound are never expanded, so the last level keeps
   their move paths and drops their programs. *)

open Transform

type result = {
  best : Ir.Prog.t;
  best_time : float;
  best_moves : string list; (* replayable path of describe strings *)
  unique : int; (* distinct canonical states discovered (incl. root) *)
  total : int; (* state encounters: root + every instance application *)
  evals : int; (* guarded objective evaluations performed *)
  failures : int; (* applications or evaluations quarantined *)
  depth : int; (* requested bound *)
  reached_depth : int; (* deepest level actually expanded *)
  certified : bool; (* optimum proved over all schedules within depth *)
  exhausted : bool; (* frontier emptied: optimum proved globally *)
}

let default_max_states = 20_000

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume                                                 *)
(* ------------------------------------------------------------------ *)

(* The BFS checkpoints through {!Checkpoint} after every completed
   level: the frontier (as forward move paths — programs replay from the
   root), the seen fingerprint set, the best-so-far and exact accounting.
   A killed run resumed from its last checkpoint re-expands only the
   level it died in, so resume re-evaluates strictly fewer states than a
   cold restart (the checkpointed [evals] are never re-paid), and
   reaches the same certified optimum with the same trace suffix.  A
   frontier at the depth bound is restored as paths only, since nothing
   expands it.  The set of exact digests is not checkpointed: a resumed
   run starts it afresh and fingerprints more, with the same result. *)

let run ?filter ?(obs = Obs.Trace.null) ?metrics
    ?(guard = Robust.Guard.default) ?checkpoint ~(depth : int) caps
    (objective : Stochastic.objective) (root : Ir.Prog.t) : result =
  if depth < 0 then invalid_arg "Exhaustive.run: depth must be >= 0";
  let max_states = default_max_states in
  let guard = Robust.Guard.instrument ?metrics guard in
  let ck, obs, resumed =
    Checkpoint.start ?metrics checkpoint obs
      ~identity:
        Obs.Trace.
          [ str "kind" "exhaustive"; int "depth" depth;
            int "max_states" max_states ]
  in
  let traced = Obs.Trace.enabled obs in
  let filter = match filter with Some f -> f | None -> fun _ -> true in
  let failures = ref 0 in
  let note f =
    incr failures;
    Robust.Guard.note ~obs ?metrics f
  in
  let evals = ref 0 in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let unique = ref 1 and total = ref 1 in
  let best = ref root (* program *)
  and best_time = ref infinity
  and best_moves = ref [] in
  (* frontier: (program, forward move path), discovery order; the
     program is [None] at the depth bound, where nothing expands it *)
  let frontier = ref [] in
  let level = ref 0 in
  (match resumed with
  | None ->
      (* cold start: evaluate the root and emit the start event *)
      let root_time =
        incr evals;
        match Robust.Guard.eval ~cfg:guard objective root with
        | Ok t -> t
        | Error f ->
            note f;
            infinity
      in
      if traced then
        Obs.Trace.emit obs "search.start" (fun () ->
            Obs.Trace.
              [
                str "method" "exhaustive";
                int "depth" depth;
                int "max_states" max_states;
                num "root_time" root_time;
              ]);
      Hashtbl.replace seen (Canon.fingerprint root) ();
      best_time := root_time;
      frontier := [ (Some root, []) ]
  | Some json ->
      (* resume: restore the walk at its last completed level; the
         prelude (root evaluation, start event) already happened in the
         crashed run and lives inside the restored accounting *)
      level := Recover.Field.int "level" json;
      unique := Recover.Field.int "unique" json;
      total := Recover.Field.int "total" json;
      evals := Recover.Field.int "evals" json;
      failures := Recover.Field.int "failures" json;
      best_time := Recover.Field.float_bits "best_time" json;
      best_moves := Recover.Field.str_list "best_moves" json;
      let replay path =
        Checkpoint.replayed (Stochastic.replay_exact ~filter caps root path)
      in
      best := replay !best_moves;
      Checkpoint.add_fingerprints seen "seen" json;
      let path = function
        | Util.Json.Str s -> s
        | _ -> Recover.Field.corrupt "frontier path holds a non-string"
      in
      let expand = !level < depth in
      frontier :=
        List.map
          (function
            | Util.Json.Arr items ->
                let path = List.map path items in
                ((if expand then Some (replay path) else None), path)
            | _ -> Recover.Field.corrupt "frontier entry is not an array")
          (Recover.Field.list "frontier" json));
  (* exact digests of the states fingerprinted in this run *)
  let fingerprinted : (Digest.t, unit) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.replace fingerprinted (Ir.Prog.digest root) ();
  let truncated = ref false in
  while !level < depth && !frontier <> [] && not !truncated do
    incr level;
    let keep = !level < depth in
    let next = ref [] in
    (* An exact repeat is skipped; a new state is measured and joins the
       next level.  The digest is recorded before the lookup: once the
       walk truncates nothing is looked up again, so a recorded digest
       always has its fingerprint in [seen]. *)
    let visit moves (inst : Xforms.instance) q =
      let exact = Ir.Prog.digest q in
      if not (Hashtbl.mem fingerprinted exact) then begin
        Hashtbl.replace fingerprinted exact ();
        let fp = Canon.fingerprint q in
        if not (Hashtbl.mem seen fp) then begin
          if !unique >= max_states then truncated := true
          else begin
            Hashtbl.replace seen fp ();
            incr unique;
            let path = moves @ [ Xforms.describe inst ] in
            incr evals;
            (match Robust.Guard.eval ~cfg:guard objective q with
            | Ok t ->
                if t < !best_time then begin
                  best := q;
                  best_time := t;
                  best_moves := path;
                  if traced then
                    Obs.Trace.emit obs "search.best" (fun () ->
                        Obs.Trace.
                          [
                            int "i" (!unique - 1);
                            num "runtime" t;
                            int "n_moves" (List.length path);
                          ])
                end
            | Error f -> note f);
            next := ((if keep then Some q else None), path) :: !next
          end
        end
      end
    in
    List.iter
      (fun (p, moves) ->
        let p = Option.get p (* below the depth bound *) in
        let insts = List.filter filter (Xforms.all caps p) in
        List.iter
          (fun (inst : Xforms.instance) ->
            if not !truncated then begin
              incr total;
              match inst.apply p with
              | exception e -> note (Robust.Guard.rejected_of_exn e)
              | q -> visit moves inst q
            end)
          insts)
      !frontier;
    frontier := List.rev !next;
    if traced then
      Obs.Trace.emit obs "search.exhaustive_level" (fun () ->
          Obs.Trace.
            [
              int "level" !level;
              int "unique" !unique;
              int "total" !total;
              int "frontier" (List.length !frontier);
            ]);
    (* Levels are the BFS unit of determinism, so every completed level
       is a due checkpoint (the [every] cadence is for the stochastic
       engine's rounds).  A truncated level ended mid-expansion and is
       not a resumable state. *)
    if not !truncated then
      Checkpoint.safe_point ck ~due:true
        ~finished:(!level >= depth || !frontier = [])
        ~trace:(fun () -> Obs.Trace.[ int "filled" !level; int "evals" !evals ])
        (fun () ->
          Obs.Trace.
            [ int "level" !level; int "unique" !unique; int "total" !total;
              int "evals" !evals; int "failures" !failures ]
          @ [ ("best_time", Recover.Bits.of_float !best_time);
              ("best_moves", Checkpoint.moves !best_moves);
              ("seen", Checkpoint.fingerprints seen);
              ( "frontier",
                Util.Json.Arr (List.map (fun (_, p) -> Checkpoint.moves p) !frontier) ) ])
  done;
  let exhausted = !frontier = [] && not !truncated in
  let certified = not !truncated in
  (match metrics with
  | None -> ()
  | Some m ->
      Obs.Metrics.incr m ~by:!unique "canon.unique";
      Obs.Metrics.incr m ~by:!total "canon.total";
      Obs.Metrics.incr m ~by:!evals "search.steps");
  if traced then
    Obs.Trace.emit obs "search.exhaustive" (fun () ->
        Obs.Trace.
          [
            int "unique" !unique;
            int "total" !total;
            int "evals" !evals;
            int "depth" depth;
            int "reached_depth" !level;
            num "best" !best_time;
            bool "certified" certified;
            bool "exhausted" exhausted;
          ]);
  {
    best = !best;
    best_time = !best_time;
    best_moves = !best_moves;
    unique = !unique;
    total = !total;
    evals = !evals;
    failures = !failures;
    depth;
    reached_depth = !level;
    certified;
    exhausted;
  }
