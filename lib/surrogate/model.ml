(* Online linear ranker with pairwise hinge loss.

   w · f(better) should exceed w · f(worse) by at least [margin]; when
   it doesn't, w moves along f(better) - f(worse) by [lr].  That is the
   whole model — no external deps, O(dim) per update, and deterministic,
   which the jobs-invariance guarantee of the filtered search engine
   depends on. *)

type config = { lr : float; margin : float; history : int }

let default_config = { lr = 0.05; margin = 0.01; history = 32 }

type sample = { g : string; f : float array; time : float }

type t = {
  cfg : config;
  w : float array;
  mutable n_updates : int;
  (* ring buffer of recent measurements for online pairing *)
  recent : sample option array;
  mutable pushed : int;
  lock : Mutex.t;
}

let schema_version = 1

let create ?(cfg = default_config) () =
  {
    cfg;
    w = Array.make Features.dim 0.0;
    n_updates = 0;
    recent = Array.make (max 1 cfg.history) None;
    pushed = 0;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let config t = t.cfg
let updates t = locked t (fun () -> t.n_updates)

let dot w f =
  let n = min (Array.length w) (Array.length f) in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (w.(i) *. f.(i))
  done;
  !acc

let score t f = locked t (fun () -> dot t.w f)
let score_prog t prog = score t (Features.extract prog)

(* Callers hold the lock. *)
let train_pair_unlocked t ~better ~worse =
  if dot t.w better -. dot t.w worse < t.cfg.margin then begin
    let n = min (Array.length better) (Array.length worse) in
    for i = 0 to min (Array.length t.w) n - 1 do
      t.w.(i) <- t.w.(i) +. (t.cfg.lr *. (better.(i) -. worse.(i)))
    done;
    t.n_updates <- t.n_updates + 1
  end

let train_pair t ~better ~worse =
  locked t (fun () -> train_pair_unlocked t ~better ~worse)

let observe t ~group ~features time =
  if Float.is_finite time && time > 0. then
    locked t (fun () ->
        (* pair the new measurement against every ring entry of the
           same group: times are only comparable within a group *)
        Array.iter
          (fun entry ->
            match entry with
            | Some s when s.g = group && s.time <> time ->
                if time < s.time then
                  train_pair_unlocked t ~better:features ~worse:s.f
                else train_pair_unlocked t ~better:s.f ~worse:features
            | _ -> ())
          t.recent;
        t.recent.(t.pushed mod Array.length t.recent) <-
          Some { g = group; f = features; time };
        t.pushed <- t.pushed + 1)

let observe_prog t ~group prog time =
  observe t ~group ~features:(Features.extract prog) time

(* ------------------------------------------------------------------ *)
(* Offline training from tuning-database records                       *)
(* ------------------------------------------------------------------ *)

type offline_stats = { records : int; used : int; groups : int; pairs : int }

(* A record is a training point only when its schedule is exactly the
   one it timed: its root is known and matches, its time is finite and
   positive, and every move replays. *)
let record_features ~root_of (r : Tuning.Record.t) =
  match root_of ~kernel:r.kernel ~target:r.target with
  | Some (root, caps)
    when String.equal r.fingerprint (Tuning.Record.fingerprint root)
         && Float.is_finite r.best_time
         && r.best_time > 0. ->
      Result.to_option
        (Result.map Features.extract
           (Search.Stochastic.replay_exact caps root r.moves))
  | _ -> None

let train_offline t ~root_of (records : Tuning.Record.t list) : offline_stats
    =
  (* every training point joins its (kernel, target) group; keys are
     processed sorted and points in record order, so training is a pure
     function of the record list *)
  let tbl : (string, (float array * float) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let keys = ref [] in
  let used = ref 0 in
  List.iter
    (fun (r : Tuning.Record.t) ->
      match record_features ~root_of r with
      | None -> ()
      | Some features ->
          incr used;
          let key = r.kernel ^ "|" ^ r.target in
          let prev =
            match Hashtbl.find_opt tbl key with
            | Some l -> l
            | None ->
                keys := key :: !keys;
                []
          in
          Hashtbl.replace tbl key ((features, r.best_time) :: prev))
    records;
  let pairs = ref 0 in
  let groups = ref 0 in
  locked t (fun () ->
      List.iter
        (fun key ->
          let points = List.rev (Hashtbl.find tbl key) in
          if List.length points > 1 then incr groups;
          List.iteri
            (fun i (fi, ti) ->
              List.iteri
                (fun j (fj, tj) ->
                  if j > i && ti <> tj then begin
                    incr pairs;
                    if ti < tj then
                      train_pair_unlocked t ~better:fi ~worse:fj
                    else train_pair_unlocked t ~better:fj ~worse:fi
                  end)
                points)
            points)
        (List.sort compare !keys));
  { records = List.length records; used = !used; groups = !groups;
    pairs = !pairs }

(* ------------------------------------------------------------------ *)
(* Canonical-JSON serialization                                        *)
(* ------------------------------------------------------------------ *)

let to_json_unlocked t : Util.Json.t =
  Util.Json.Obj
    [
      ("schema", Util.Json.Num (float_of_int schema_version));
      ("dim", Util.Json.Num (float_of_int (Array.length t.w)));
      ("lr", Util.Json.Num t.cfg.lr);
      ("margin", Util.Json.Num t.cfg.margin);
      ("history", Util.Json.Num (float_of_int t.cfg.history));
      ("updates", Util.Json.Num (float_of_int t.n_updates));
      ( "w",
        Util.Json.Arr
          (Array.to_list (Array.map (fun x -> Util.Json.Num x) t.w)) );
    ]

let to_json t : Util.Json.t = locked t (fun () -> to_json_unlocked t)

let of_json (j : Util.Json.t) : (t, string) result =
  let ( let* ) = Result.bind in
  let field name conv =
    match Option.bind (Util.Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "surrogate model: bad %S field" name)
  in
  let* schema = field "schema" Util.Json.to_int in
  if schema <> schema_version then
    Error (Printf.sprintf "surrogate model: unknown schema %d" schema)
  else
    let* d = field "dim" Util.Json.to_int in
    if d <> Features.dim then
      Error
        (Printf.sprintf
           "surrogate model: dimension %d does not match this build's \
            feature layout (%d)"
           d Features.dim)
    else
      let* lr = field "lr" Util.Json.to_float in
      let* margin = field "margin" Util.Json.to_float in
      let* history = field "history" Util.Json.to_int in
      let* n_updates = field "updates" Util.Json.to_int in
      let* w_list = field "w" Util.Json.to_list in
      let* w =
        let rec conv acc = function
          | [] -> Ok (List.rev acc)
          | x :: rest -> (
              match Util.Json.to_float x with
              | Some f -> conv (f :: acc) rest
              | None -> Error "surrogate model: non-numeric weight")
        in
        conv [] w_list
      in
      if List.length w <> d then
        Error "surrogate model: weight count does not match dim"
      else begin
        let t = create ~cfg:{ lr; margin; history } () in
        List.iteri (fun i x -> t.w.(i) <- x) w;
        t.n_updates <- n_updates;
        Ok t
      end

let save t path =
  Recover.Durable.write_string ~path (Util.Json.to_string (to_json t) ^ "\n")

let load path : (t, string) result =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let text = String.trim text in
      Result.bind (Util.Json.of_string text) of_json

(* ------------------------------------------------------------------ *)
(* Checkpoint snapshot / in-place restore                              *)
(* ------------------------------------------------------------------ *)

(* Unlike [to_json]/[of_json] (the stable on-disk model format), the
   checkpoint snapshot also carries the online pairing ring: a resumed
   search must pair future observations against exactly the same recent
   measurements the uninterrupted run would have, or its weights — and
   hence its filtering decisions — drift after the splice point. *)

let snapshot t : Util.Json.t =
  locked t (fun () ->
      let sample_json = function
        | None -> Util.Json.Null
        | Some s ->
            Util.Json.Obj
              [
                ("g", Util.Json.Str s.g);
                ( "f",
                  Util.Json.Arr
                    (Array.to_list
                       (Array.map (fun x -> Util.Json.Num x) s.f)) );
                ("time", Util.Json.Num s.time);
              ]
      in
      Util.Json.Obj
        [
          ("model", to_json_unlocked t);
          ("pushed", Util.Json.Num (float_of_int t.pushed));
          ( "recent",
            Util.Json.Arr (Array.to_list (Array.map sample_json t.recent)) );
        ])

let restore t (j : Util.Json.t) : (unit, string) result =
  let ( let* ) = Result.bind in
  let field name conv =
    match Option.bind (Util.Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "surrogate snapshot: bad %S field" name)
  in
  let* model_json =
    match Util.Json.member "model" j with
    | Some m -> Ok m
    | None -> Error "surrogate snapshot: missing \"model\""
  in
  let* m = of_json model_json in
  let* pushed = field "pushed" Util.Json.to_int in
  let* recent = field "recent" Util.Json.to_list in
  let sample_of = function
    | Util.Json.Null -> Ok None
    | Util.Json.Obj _ as s -> (
        let mem name conv = Option.bind (Util.Json.member name s) conv in
        match
          ( mem "g" Util.Json.to_str,
            mem "f" Util.Json.to_list,
            mem "time" Util.Json.to_float )
        with
        | Some g, Some f_list, Some time -> (
            let rec conv acc = function
              | [] -> Some (List.rev acc)
              | Util.Json.Num x :: rest -> conv (x :: acc) rest
              | _ -> None
            in
            match conv [] f_list with
            | Some fs ->
                Ok (Some { g; f = Array.of_list fs; time })
            | None -> Error "surrogate snapshot: non-numeric feature")
        | _ -> Error "surrogate snapshot: malformed ring sample")
    | _ -> Error "surrogate snapshot: malformed ring entry"
  in
  let* samples =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* s = sample_of e in
        Ok (s :: acc))
      (Ok []) recent
  in
  let samples = Array.of_list (List.rev samples) in
  locked t (fun () ->
      if Array.length m.w <> Array.length t.w then
        Error "surrogate snapshot: weight dimension mismatch"
      else if Array.length samples <> Array.length t.recent then
        Error "surrogate snapshot: ring size mismatch"
      else begin
        Array.blit m.w 0 t.w 0 (Array.length t.w);
        t.n_updates <- m.n_updates;
        Array.blit samples 0 t.recent 0 (Array.length samples);
        t.pushed <- pushed;
        Ok ()
      end)

let prerank ?(filter_ratio = 1.0) ~group t : Search.Stochastic.prerank =
  {
    Search.Stochastic.score = (fun p -> score t (Features.extract p));
    observe =
      (fun p time -> observe t ~group ~features:(Features.extract p) time);
    filter_ratio;
    snapshot = (fun () -> snapshot t);
    restore =
      (fun json ->
        match restore t json with
        | Ok () -> ()
        | Error e -> raise (Recover.Error (Recover.Corrupt e)));
  }
