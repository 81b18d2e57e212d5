(* The transformation engine: enumerates applicable moves, applies them,
   and keeps a non-destructive history so any move can be undone while
   later state is reconstructible (Table 1's "non-destructive
   transformations" requirement: programs are immutable values, a session
   records every intermediate state). *)

type session = {
  caps : Xforms.caps;
  initial : Ir.Prog.t;
  obs : Obs.Trace.sink;
  mutable current : Ir.Prog.t;
  mutable history : (Xforms.instance * Ir.Prog.t) list;
      (* most recent first; the stored program is the state *before* the
         move was applied *)
}

let start ?(obs = Obs.Trace.null) caps prog =
  { caps; initial = prog; obs; current = prog; history = [] }

let applicable session =
  let insts = Xforms.all session.caps session.current in
  if Obs.Trace.enabled session.obs then
    Obs.Trace.emit session.obs "engine.enumerate" (fun () ->
        [
          Obs.Trace.int "count" (List.length insts);
          Obs.Trace.int "depth" (List.length session.history);
        ]);
  insts

let apply session (inst : Xforms.instance) =
  let before = session.current in
  let after = inst.apply before in
  (match Ir.Validate.check after with
  | [] -> ()
  | errs ->
      let msgs = String.concat "; " (List.map Ir.Validate.error_to_string errs)
      in
      invalid_arg
        (Printf.sprintf "%s produced invalid program: %s"
           (Xforms.describe inst) msgs));
  session.history <- (inst, before) :: session.history;
  session.current <- after;
  if Obs.Trace.enabled session.obs then
    Obs.Trace.emit session.obs "engine.apply" (fun () ->
        [
          Obs.Trace.str "move" (Xforms.describe inst);
          Obs.Trace.int "depth" (List.length session.history);
        ]);
  after

(* Undo the most recent move. *)
let undo session =
  match session.history with
  | [] -> None
  | ((inst : Xforms.instance), before) :: rest ->
      session.history <- rest;
      session.current <- before;
      if Obs.Trace.enabled session.obs then
        Obs.Trace.emit session.obs "engine.undo" (fun () ->
            [
              Obs.Trace.str "move" (Xforms.describe inst);
              Obs.Trace.int "depth" (List.length session.history);
            ]);
      Some before

(* Undo the move [k] steps back (0 = most recent) while replaying every
   later move.  Returns [None] when some later move is no longer
   applicable after the removal — the engine refuses to produce an
   invalid program. *)
let undo_at session k =
  let hist = List.rev session.history in (* oldest first *)
  let n = List.length hist in
  if k < 0 || k >= n then None
  else begin
    let idx = n - 1 - k in
    let replay =
      List.filteri (fun i _ -> i <> idx) hist
    in
    try
      let state = ref session.initial in
      let new_hist = ref [] in
      List.iter
        (fun ((inst : Xforms.instance), _) ->
          let before = !state in
          let after = inst.apply before in
          Ir.Validate.check_exn after;
          new_hist := (inst, before) :: !new_hist;
          state := after)
        replay;
      session.history <- !new_hist;
      session.current <- !state;
      Some !state
    with
    (* only the expected staleness/validation failures mean "cannot
       remove"; anything else (Invalid_argument from an indexing bug,
       Not_found, ...) is a genuine error and must propagate *)
    | Xforms.Not_applicable _ | Ir.Prog.Invalid_path _
    | Ir.Validate.Invalid _ ->
      None
  end

let moves session = List.rev_map (fun (i, _) -> i) session.history

(* ------------------------------------------------------------------ *)
(* Composite transformations                                           *)
(* ------------------------------------------------------------------ *)

type transfo = {
  tname : string;
  targs : (string * string) list;
  expand :
    Xforms.caps ->
    Ir.Prog.t ->
    anchor:Ir.Types.path ->
    (Xforms.instance list, string) result;
}

let transfo_label t =
  if t.targs = [] then t.tname
  else
    t.tname ^ "("
    ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) t.targs)
    ^ ")"

let emit_refused session t anchor reason =
  if Obs.Trace.enabled session.obs then
    Obs.Trace.emit session.obs "transfo.refused" (fun () ->
        [
          Obs.Trace.str "transfo" (transfo_label t);
          Obs.Trace.str "anchor" (Target.path_str anchor);
          Obs.Trace.str "reason" reason;
        ])

(* Apply a composite at a resolved anchor.  [expand] pre-validates the
   whole sequence against intermediate states, and the history rollback
   below guarantees the "fully apply or cleanly refuse" contract even if
   a step goes stale between expansion and application. *)
let apply_anchored session ~anchor (t : transfo) :
    (Ir.Prog.t, Target.error) result =
  match t.expand session.caps session.current ~anchor with
  | Error reason ->
      emit_refused session t anchor reason;
      Error (Target.Refused { transfo = transfo_label t; anchor; reason })
  | Ok insts -> (
      let entry = List.length session.history in
      let refuse reason =
        while List.length session.history > entry do
          ignore (undo session)
        done;
        emit_refused session t anchor reason;
        Error (Target.Refused { transfo = transfo_label t; anchor; reason })
      in
      let rec go = function
        | [] -> Ok session.current
        | inst :: rest -> (
            match apply session inst with
            | _ -> go rest
            | exception Xforms.Not_applicable m -> refuse m
            | exception Invalid_argument m -> refuse m
            | exception Ir.Prog.Invalid_path p ->
                refuse ("path vanished: " ^ Target.path_str p))
      in
      go insts)

let apply_at session (sel : Target.t) (t : transfo) :
    (Ir.Prog.t, Target.error) result =
  match Target.resolve session.current sel with
  | Error e -> Error e
  | Ok anchor ->
      if Obs.Trace.enabled session.obs then
        Obs.Trace.emit session.obs "target.resolve" (fun () ->
            [
              Obs.Trace.str "selector" (Target.to_string sel);
              Obs.Trace.str "path" (Target.path_str anchor);
            ]);
      apply_anchored session ~anchor t
