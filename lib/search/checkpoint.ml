(* Crash-safe checkpointing of a search run (see checkpoint.mli).  The
   engines own their state fields; the identity check, the event count
   that splices traces, the save and the interrupt poll live here. *)

type config = { path : string; every : int; resume : bool }

type run = {
  cfg : config;
  metrics : Obs.Metrics.t option;
  obs : Obs.Trace.sink;  (* counting: each save records the count *)
  counted : unit -> int;
  events_base : int;  (* events emitted before the resumed save *)
  identity : (string * Util.Json.t) list;
}

type t = run option

let bump metrics name = Option.iter (fun m -> Obs.Metrics.incr m name) metrics

let check_identity payload (name, v) =
  match v with
  | Util.Json.Str s -> Recover.Field.check_str payload name s
  | _ -> Recover.Field.check_int payload name (Option.get (Util.Json.to_int v))

let start ?metrics ~identity cfg obs =
  match cfg with
  | None -> (None, obs, None)
  | Some cfg ->
      let obs, counted = Obs.Trace.counting obs in
      let resumed =
        if not (cfg.resume && Sys.file_exists cfg.path) then None
        else
          match Recover.Store.load ~path:cfg.path with
          | Error e -> raise (Recover.Error e)
          | Ok payload ->
              List.iter (check_identity payload) identity;
              bump metrics "checkpoint.resumes";
              Some payload
      in
      let events_base =
        Option.fold ~none:0 ~some:(Recover.Field.int "events") resumed
      in
      (Some { cfg; metrics; obs; counted; events_base; identity }, obs, resumed)

let save r ~trace fields =
  Obs.Trace.emit r.obs "checkpoint.write" trace;
  bump r.metrics "checkpoint.writes";
  let fields = fields () in
  let events = Obs.Trace.int "events" (r.events_base + r.counted ()) in
  Recover.Store.save ~path:r.cfg.path
    (Util.Json.Obj (r.identity @ fields @ [ events ]))

let safe_point t ~due ~finished ~trace fields =
  match t with
  | None -> ()
  | Some r ->
      if due then save r ~trace fields;
      if (not finished) && Recover.Interrupt.requested () then begin
        if not due then save r ~trace fields;
        raise (Recover.Interrupt.Interrupted (Some r.cfg.path))
      end

let strings l = Util.Json.Arr (List.map (fun s -> Util.Json.Str s) l)
let moves = strings

let replayed = function
  | Ok prog -> prog
  | Error msg ->
      Recover.Field.corrupt "checkpointed path does not replay: %s" msg

let fingerprints set =
  strings (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) set []))

let add_fingerprints set name payload =
  List.iter (fun fp -> Hashtbl.replace set fp ()) (Recover.Field.str_list name payload)
