(* Append-only tuning database over a JSONL file and its journal.

   In memory the store is a hashtable keyed by Record.key (fingerprint +
   target + move sequence); on disk it is one canonical JSON object per
   line in Record.compare_order, so save -> load -> save is
   byte-identical and diffs stay reviewable.  Deposits between two
   checkpoints live in the journal at [path ^ ".wal"]. *)

type t = {
  table : (string, Record.t) Hashtbl.t;
  mutable skipped : int; (* malformed lines tolerated by the last load *)
  mutable journaled : int; (* journal entries not yet checkpointed by us *)
}

let create () = { table = Hashtbl.create 64; skipped = 0; journaled = 0 }

let skipped_lines (db : t) = db.skipped
let journaled (db : t) = db.journaled
let journal path = path ^ ".wal"
let checkpoint_every = 64

let add (db : t) (r : Record.t) : [ `Inserted | `Improved | `Duplicate ] =
  let k = Record.key r in
  match Hashtbl.find_opt db.table k with
  | None ->
      Hashtbl.replace db.table k r;
      `Inserted
  | Some old ->
      if r.best_time < old.best_time then begin
        Hashtbl.replace db.table k r;
        `Improved
      end
      else `Duplicate

let size (db : t) = Hashtbl.length db.table

let records (db : t) : Record.t list =
  Hashtbl.fold (fun _ r acc -> r :: acc) db.table []
  |> List.sort Record.compare_order

let ( let* ) = Result.bind

(* Fold the file's lines into [db] and return the count of malformed
   lines — typically the torn final line of a writer killed mid-append —
   skipped rather than bricking the whole database (and with it every
   future warm start).  Raises [Sys_error] when the file is unreadable. *)
let read_lines (db : t) path =
  In_channel.with_open_text path (fun ic ->
      let rec loop skipped =
        match In_channel.input_line ic with
        | None -> skipped
        | Some line -> (
            match Record.of_json (String.trim line) with
            | Ok r ->
                ignore (add db r);
                loop skipped
            | Error _ when String.trim line = "" -> loop skipped
            | Error _ -> loop (skipped + 1))
      in
      loop 0)

(* Fold replayed journal entries (each a Record.to_json object) into
   [db], counting them as journaled. *)
let fold_journal (db : t) path = function
  | Error e -> Error (Recover.error_message e)
  | Ok (entries, _torn) ->
      List.fold_left
        (fun acc data ->
          let* () = acc in
          match Record.of_json (Util.Json.to_string data) with
          | Error msg -> Error (journal path ^ ": " ^ msg)
          | Ok r ->
              ignore (add db r);
              db.journaled <- db.journaled + 1;
              Ok ())
        (Ok ()) entries

(* A missing file costs one stat: [deposit] creates the file before it
   journals, so no journal is looked for next to a missing file.
   Skipped lines are also surfaced as one [db.skipped_lines] trace
   event on [obs], so every load — the CLI's, the serve daemon's, a
   bench harness's — reports corruption the same way instead of each
   caller inventing its own stderr warning. *)
let load ?(obs = Obs.Trace.null) (path : string) : (t, string) result =
  if not (Sys.file_exists path) then Ok (create ())
  else
    let db = create () in
    match read_lines db path with
    | exception Sys_error msg -> Error msg
    | skipped ->
        db.skipped <- skipped;
        if skipped > 0 then
          Obs.Trace.emit obs "db.skipped_lines" (fun () ->
              Obs.Trace.[ str "path" path; int "skipped" skipped ]);
        let* () = fold_journal db path (Recover.Journal.replay (journal path)) in
        Ok db

(* Crash-safe, concurrent-writer-safe checkpoint.

   Atomicity: the records are written to [path ^ ".tmp"] and renamed
   over [path] — rename is atomic on POSIX, so a reader (or a crash at
   any instruction) sees either the complete old file or the complete
   new one, never a truncated mix.  A stale tmp left by an interrupted
   earlier save is simply overwritten; on any failure mid-write the tmp
   is removed and the original is untouched.

   Concurrency: [save] first folds the file's records and the journal's
   entries through the same [add] improve/dedupe rules, so another
   writer's deposits survive — each key keeps the fastest record either
   side knew — and truncates the journal only after merging it, under
   the journal lock [deposit] also appends under.  A torn trailing line
   of the file is dropped: the intact records survive and the rewritten
   file is clean again.  An unreadable file or journal is not merged
   (and that journal is kept): save still persists this database's
   records rather than losing the run's work.  The merge also flows
   back into [db] itself, keeping the in-memory view consistent with
   what was written. *)
let save (db : t) (path : string) : unit =
  let checkpoint w =
    (try ignore (read_lines db path) with Sys_error _ -> ());
    let merged =
      Option.map (fun w -> fold_journal db path (Recover.Journal.read w)) w
    in
    Recover.Durable.write_file ~path (fun oc ->
        List.iter
          (fun r ->
            output_string oc (Record.to_json r);
            output_char oc '\n')
          (records db));
    (match (w, merged) with
    | Some w, Some (Ok ()) when Recover.Journal.size w > 0 ->
        Recover.Journal.reset w
    | _ -> ());
    db.journaled <- 0
  in
  if Sys.file_exists (journal path) then
    Recover.Journal.locked (journal path) (fun w -> checkpoint (Some w))
  else checkpoint None

let deposit ?file (db : t) (r : Record.t) =
  let verdict = add db r in
  (match (verdict, file) with
  | `Duplicate, _ | _, None -> ()
  | (`Inserted | `Improved), Some path ->
      let data = Result.get_ok (Util.Json.of_string (Record.to_json r)) in
      Recover.Journal.locked (journal path) (fun w ->
          if not (Sys.file_exists path) then
            Recover.Durable.write_string ~path "";
          Recover.Journal.append w data);
      db.journaled <- db.journaled + 1;
      if db.journaled >= checkpoint_every then save db path);
  verdict

let by_time (a : Record.t) (b : Record.t) =
  let c = compare a.best_time b.best_time in
  if c <> 0 then c else Record.compare_order a b

let query ?kernel ?target (db : t) : Record.t list =
  Hashtbl.fold
    (fun _ (r : Record.t) acc ->
      let keep =
        (match kernel with None -> true | Some k -> r.kernel = k)
        && match target with None -> true | Some t -> r.target = t
      in
      if keep then r :: acc else acc)
    db.table []
  |> List.sort by_time

let top_k (db : t) ~kernel ~target k : Record.t list =
  let matching = query ~kernel ~target db in
  List.filteri (fun i _ -> i < k) matching

let best (db : t) ~kernel ~target : Record.t option =
  match top_k db ~kernel ~target 1 with [] -> None | r :: _ -> Some r
