(* Traced twins of the search engines: the same algorithms re-driven
   through the layers' public entry points, with a span around each
   call.  A twin must reproduce its engine's results exactly (every
   workload checks that) so its spans describe the run that was
   measured.

   - [exhaustive] mirrors Search.Exhaustive.run (no checkpoint, all
     instances, default state guard);
   - [anneal] mirrors the sequential heuristic-space
     Search.Stochastic.simulated_annealing without a warm start, at its
     default temperature schedule;
   - [replay] mirrors Search.Stochastic.replay_skipping, which is what
     Tuning.Warmstart.replay runs. *)

open Transform

let all caps p = Spans.span "transform.all" (fun () -> Xforms.all caps p)

let lookup insts name =
  Spans.span "transform.lookup" (fun () -> Xforms.lookup insts name)

let apply (inst : Xforms.instance) p =
  Spans.span "transform.apply" (fun () -> inst.apply p)

let fingerprint p = Spans.span "canon.fingerprint" (fun () -> Canon.fingerprint p)

(* The cost model, spanned per target: [tname] is the short name. *)
let model tname target p =
  Spans.span ("machine.time." ^ tname) (fun () -> Machine.time target p)

(* The objective the real engines see behind a Tuning.Cache: the
   cache's own span covers the lookup (and the fingerprint it keys on);
   the model span nests inside it on a miss. *)
let cached_model cache ~tname target =
  let memo =
    Tuning.Cache.memoize_scoped cache
      ~scope:(Machine.Desc.target_name target)
      (model tname target)
  in
  fun p -> Spans.span "tuning.cache" (fun () -> memo p)

let replay caps root names =
  let p, applied =
    List.fold_left
      (fun (p, applied) name ->
        match lookup (all caps p) name with
        | Some inst -> (apply inst p, name :: applied)
        | None -> (p, applied))
      (root, []) names
  in
  (p, List.rev applied)

(* Guarded evaluation: a raise or a non-finite score is a quarantine. *)
let guarded failures objective p =
  match objective p with
  | t when Float.is_finite t -> t
  | _ ->
      incr failures;
      infinity
  | exception _ ->
      incr failures;
      infinity

(* ------------------------------------------------------------------ *)
(* Exhaustive BFS                                                      *)
(* ------------------------------------------------------------------ *)

type bfs = {
  best_time : float;
  best_moves : string list;
  unique : int;
  total : int;
  evals : int;
  failures : int;
  certified : bool;
}

let exhaustive ~depth caps objective root =
  let max_states = Search.Exhaustive.default_max_states in
  let failures = ref 0 in
  let evals = ref 1 in
  let root_time = guarded failures objective root in
  let seen = Hashtbl.create 256 in
  Hashtbl.replace seen (fingerprint root) ();
  let unique = ref 1 and total = ref 1 in
  let best_time = ref root_time and best_moves = ref [] in
  let frontier = ref [ (root, []) ] in
  let level = ref 0 and truncated = ref false in
  while !level < depth && !frontier <> [] && not !truncated do
    incr level;
    let next = ref [] in
    List.iter
      (fun (p, moves) ->
        List.iter
          (fun (inst : Xforms.instance) ->
            if not !truncated then begin
              incr total;
              match apply inst p with
              | exception _ -> incr failures
              | q ->
                  let fp = fingerprint q in
                  if not (Hashtbl.mem seen fp) then begin
                    if !unique >= max_states then truncated := true
                    else begin
                      Hashtbl.replace seen fp ();
                      incr unique;
                      let path = moves @ [ Xforms.describe inst ] in
                      incr evals;
                      let t = guarded failures objective q in
                      if t < !best_time then begin
                        best_time := t;
                        best_moves := path
                      end;
                      next := (q, path) :: !next
                    end
                  end
            end)
          (all caps p))
      !frontier;
    frontier := List.rev !next
  done;
  {
    best_time = !best_time;
    best_moves = !best_moves;
    unique = !unique;
    total = !total;
    evals = !evals;
    failures = !failures;
    certified = not !truncated;
  }

(* ------------------------------------------------------------------ *)
(* Heuristic-space simulated annealing                                 *)
(* ------------------------------------------------------------------ *)

type candidate = { moves : string list; prog : Ir.Prog.t; runtime : float }

type annealed = {
  best : candidate;
  evaluations : int;
  anneal_failures : int;
}

(* One structural mutation of a move sequence: insert / delete /
   replace at a random point, drawing exactly what the engine draws. *)
let mutate caps rng root names =
  let n = List.length names in
  let arr = Array.of_list names in
  let sub a b = Array.to_list (Array.sub arr a b) in
  let insert_at prefix suffix =
    let p, _ = replay caps root prefix in
    match all caps p with
    | [] -> names
    | insts ->
        let inst = List.nth insts (Util.Rng.int rng (List.length insts)) in
        prefix @ [ Xforms.describe inst ] @ suffix
  in
  let choice = Util.Rng.int rng 3 in
  if n = 0 || choice = 2 then begin
    let pos = if n = 0 then 0 else Util.Rng.int rng (n + 1) in
    insert_at (sub 0 pos) (sub pos (n - pos))
  end
  else if choice = 0 then begin
    let pos = Util.Rng.int rng n in
    List.filteri (fun i _ -> i <> pos) names
  end
  else begin
    let pos = Util.Rng.int rng n in
    insert_at (sub 0 pos) (sub (pos + 1) (n - pos - 1))
  end

let anneal ~seed ~budget caps objective root =
  let t0 = 0.5 and cooling = 0.995 in
  let rng = Util.Rng.create seed in
  let failures = ref 0 in
  let root_time = guarded failures objective root in
  let current = ref { moves = []; prog = root; runtime = root_time } in
  let best = ref !current in
  let temp = ref t0 in
  for _ = 1 to budget do
    (match mutate caps rng root !current.moves with
    | exception _ -> incr failures
    | moves -> (
        match replay caps root moves with
        | exception _ -> incr failures
        | p, applied ->
            let runtime = guarded failures objective p in
            if Float.is_finite runtime then begin
              let child = { moves = applied; prog = p; runtime } in
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
              if child.runtime < !best.runtime then best := child
            end));
    temp := !temp *. cooling
  done;
  { best = !best; evaluations = budget; anneal_failures = !failures }
