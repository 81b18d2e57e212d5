(* Warm-started search: seed new tuning runs from the database's best
   recorded schedule. *)

(* The one rule for finding a pair's record: the fastest one whose
   fingerprint matches the root ([Db.query] is best-first). *)
let lookup (db : Db.t) ~kernel ~target ~fingerprint : Record.t option =
  List.find_opt
    (fun (r : Record.t) -> String.equal r.fingerprint fingerprint)
    (Db.query ~kernel ~target db)

let moves_for (db : Db.t) ~kernel ~target ~(root : Ir.Prog.t) : string list =
  match lookup db ~kernel ~target ~fingerprint:(Record.fingerprint root) with
  | Some r -> r.moves
  | None -> []

let replay caps prog moves = Search.Stochastic.replay_skipping caps prog moves

(* Build a record by replaying the winner: the stored best_time is the
   replayed schedule's modelled runtime, so the record is reproducible
   by construction (budget-0 warm-start lands exactly on it).  Script
   provenance is derived from the moves — deterministic, so a record
   built from a resumed or re-run search carries identical bytes. *)
let record_of ~objective ~caps ~kernel ~target ~root ~moves ~evals :
    (Record.t, string) result =
  match Search.Stochastic.replay_exact caps root moves with
  | Error msg -> Error ("record_of: " ^ msg)
  | Ok replayed -> (
      match Transfo.Script.of_moves ~kernel ~ktarget:target moves with
      | Error msg -> Error ("record_of: " ^ msg)
      | Ok script ->
          Ok
            (Record.make ~script:(Transfo.Script.to_string script) ~kernel
               ~target ~moves ~best_time:(objective replayed) ~evals ~root ()))
