(* The learned surrogate cost model: feature extraction, the online
   pairwise ranker, its byte-stable serialization, and the filtered
   search engine it drives.

   The properties that matter operationally:
   - embedding / feature extraction / scoring are pure functions of the
     program (the filtered engine's determinism rests on this);
   - a filtered + deduped search is jobs-invariant: same best, same
     accounting, byte-identical stripped traces for jobs = 1 and N;
   - every budget slot is accounted exactly once:
     evals + skipped + deduped + failures = budget;
   - model save / load round-trips byte-identically. *)

let target = Machine.Desc.Cpu Machine.Desc.xeon_e5_2695v4
let caps = Machine.caps target
let time p = Machine.time target p

(* A deterministic "random schedule" source: walk [steps] applicable
   transformations from a kernel root under a seeded RNG. *)
let roots : (unit -> Ir.Prog.t) array =
  [|
    (fun () -> Kernels.scale ~n:64);
    (fun () -> Kernels.axpy ~n:48);
    (fun () -> Kernels.softmax ~n:8 ~m:12);
    (fun () -> Kernels.reducemean ~n:6 ~m:10);
    (fun () -> Kernels.gemv ~m:8 ~n:6);
  |]

let walk ~root_idx ~seed ~steps : Ir.Prog.t =
  let rng = Util.Rng.create seed in
  let p = ref (roots.(root_idx mod Array.length roots) ()) in
  for _ = 1 to steps do
    match Transform.Xforms.all caps !p with
    | [] -> ()
    | insts ->
        let i = List.nth insts (Util.Rng.int rng (List.length insts)) in
        p := i.Transform.Xforms.apply !p
  done;
  !p

let arbitrary_walk =
  QCheck.make
    ~print:(fun (r, s, n) -> Printf.sprintf "root=%d seed=%d steps=%d" r s n)
    QCheck.Gen.(
      let* r = int_bound 100 in
      let* s = int_bound 10_000 in
      let* n = int_bound 6 in
      return (r, s, n))

let float_array_eq a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (x : float) y -> x = y) a b

(* ------------------------------------------------------------------ *)
(* Determinism of the feature pipeline                                 *)
(* ------------------------------------------------------------------ *)

let prop_embed_deterministic =
  QCheck.Test.make ~count:60 ~name:"Rl.Embed.embed is deterministic"
    arbitrary_walk (fun (r, s, n) ->
      let p = walk ~root_idx:r ~seed:s ~steps:n in
      let p' = walk ~root_idx:r ~seed:s ~steps:n in
      float_array_eq (Rl.Embed.embed p) (Rl.Embed.embed p'))

let prop_features_deterministic =
  QCheck.Test.make ~count:60
    ~name:"Features.extract is deterministic and fixed-width"
    arbitrary_walk (fun (r, s, n) ->
      let p = walk ~root_idx:r ~seed:s ~steps:n in
      let f = Surrogate.Features.extract p in
      Array.length f = Surrogate.Features.dim
      && float_array_eq f (Surrogate.Features.extract p))

let prop_score_deterministic =
  QCheck.Test.make ~count:40
    ~name:"surrogate score is a pure function of (model, program)"
    arbitrary_walk (fun (r, s, n) ->
      let p = walk ~root_idx:r ~seed:s ~steps:n in
      (* train two fresh models identically; they must score identically *)
      let train () =
        let m = Surrogate.Model.create () in
        Array.iteri
          (fun i root ->
            let q = root () in
            Surrogate.Model.observe_prog m ~group:"g" q
              (1e-6 *. float_of_int (i + 1)))
          roots;
        m
      in
      let m1 = train () and m2 = train () in
      Surrogate.Model.score_prog m1 p = Surrogate.Model.score_prog m2 p
      && Surrogate.Model.score_prog m1 p = Surrogate.Model.score_prog m1 p)

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let trained_model seed =
  let rng = Util.Rng.create seed in
  let m = Surrogate.Model.create () in
  for i = 0 to 20 do
    let p = walk ~root_idx:(Util.Rng.int rng 5) ~seed:(seed + i) ~steps:2 in
    Surrogate.Model.observe_prog m
      ~group:(if i mod 2 = 0 then "a" else "b")
      p
      (Util.Rng.float_range rng 1e-7 1e-3)
  done;
  m

let prop_roundtrip_bytes =
  QCheck.Test.make ~count:25
    ~name:"model to_json -> of_json -> to_json is byte-stable"
    QCheck.(small_int)
    (fun seed ->
      let m = trained_model seed in
      let s1 = Util.Json.to_string (Surrogate.Model.to_json m) in
      match Surrogate.Model.of_json (Surrogate.Model.to_json m) with
      | Error e -> QCheck.Test.fail_report e
      | Ok m' ->
          let s2 = Util.Json.to_string (Surrogate.Model.to_json m') in
          s1 = s2
          && Surrogate.Model.updates m' = Surrogate.Model.updates m)

let save_load_file () =
  let m = trained_model 7 in
  let file = Filename.temp_file "surrogate" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Surrogate.Model.save m file;
      let first = In_channel.with_open_bin file In_channel.input_all in
      Surrogate.Model.save m file;
      let second = In_channel.with_open_bin file In_channel.input_all in
      Alcotest.(check string) "same bytes on re-save" first second;
      match Surrogate.Model.load file with
      | Error e -> Alcotest.fail e
      | Ok m' ->
          Alcotest.(check int) "updates survive" (Surrogate.Model.updates m)
            (Surrogate.Model.updates m');
          Alcotest.(check string) "canonical form survives"
            (Util.Json.to_string (Surrogate.Model.to_json m))
            (Util.Json.to_string (Surrogate.Model.to_json m')))

let reject_bad_dim () =
  let m = Surrogate.Model.create () in
  let j = Surrogate.Model.to_json m in
  let j' =
    match j with
    | Util.Json.Obj fields ->
        Util.Json.Obj
          (List.map
             (function
               | "dim", _ -> ("dim", Util.Json.Num 3.0)
               | kv -> kv)
             fields)
    | _ -> Alcotest.fail "model json is not an object"
  in
  match Surrogate.Model.of_json j' with
  | Ok _ -> Alcotest.fail "accepted a model with a foreign dimension"
  | Error e ->
      Alcotest.(check bool) "error message is non-empty" true
        (String.length e > 0)

(* A record whose moves no longer replay exactly timed some other
   program: it must not become a training point for a partial replay. *)
let stale_record_skipped () =
  let e = Kernels.find_entry Kernels.table3 "relu" in
  let root = e.build_small () in
  let m = List.hd (Transform.Xforms.all caps root) in
  let record moves best_time =
    Tuning.Record.make ~kernel:e.label ~target:"x86" ~moves ~best_time
      ~evals:1 ~root ()
  in
  let good = record [ Transform.Xforms.describe m ] (time (m.apply root)) in
  let stale =
    record [ Transform.Xforms.describe m; "bogus(move)" ] (time root /. 2.)
  in
  let root_of ~kernel:_ ~target:_ = Some (root, caps) in
  Alcotest.(check bool) "the good record is a training point" true
    (Surrogate.Model.record_features ~root_of good <> None);
  Alcotest.(check bool) "the stale record is not" true
    (Surrogate.Model.record_features ~root_of stale = None);
  let stats =
    Surrogate.Model.train_offline (Surrogate.Model.create ()) ~root_of
      [ good; stale ]
  in
  Alcotest.(check int) "used" 1 stats.used;
  Alcotest.(check int) "pairs" 0 stats.pairs

(* ------------------------------------------------------------------ *)
(* The ranker learns                                                   *)
(* ------------------------------------------------------------------ *)

let ranker_learns () =
  (* two separable points: after enough pairs the model must rank the
     fast one above the slow one *)
  let fast = Surrogate.Features.extract (Kernels.scale ~n:64) in
  let slow = Surrogate.Features.extract (Kernels.softmax ~n:8 ~m:12) in
  let m = Surrogate.Model.create () in
  for _ = 1 to 50 do
    Surrogate.Model.train_pair m ~better:fast ~worse:slow
  done;
  Alcotest.(check bool) "updates happened" true
    (Surrogate.Model.updates m > 0);
  Alcotest.(check bool) "fast scores above slow" true
    (Surrogate.Model.score m fast > Surrogate.Model.score m slow)

let offline_deterministic () =
  let mk_records () =
    List.concat_map
      (fun (e : Kernels.entry) ->
        let root = e.build_small () in
        let t0 = time root in
        [
          Tuning.Record.make ~kernel:e.label ~target:"x86" ~moves:[]
            ~best_time:t0 ~evals:1 ~root ();
          Tuning.Record.make ~kernel:e.label ~target:"x86" ~moves:[]
            ~best_time:(t0 /. 2.) ~evals:1 ~root ();
        ])
      (List.filteri (fun i _ -> i < 4) Kernels.table3)
  in
  let root_of ~kernel ~target:_ =
    match Kernels.find_entry Kernels.table3 kernel with
    | e -> Some (e.build_small (), caps)
    | exception Invalid_argument _ -> None
  in
  let train () =
    let m = Surrogate.Model.create () in
    let stats = Surrogate.Model.train_offline m ~root_of (mk_records ()) in
    (m, stats)
  in
  let m1, s1 = train () in
  let m2, s2 = train () in
  Alcotest.(check int) "pairs found" s1.Surrogate.Model.pairs
    s2.Surrogate.Model.pairs;
  Alcotest.(check bool) "some pairs" true (s1.pairs > 0);
  Alcotest.(check string) "identical trained bytes"
    (Util.Json.to_string (Surrogate.Model.to_json m1))
    (Util.Json.to_string (Surrogate.Model.to_json m2))

(* ------------------------------------------------------------------ *)
(* The filtered engine                                                 *)
(* ------------------------------------------------------------------ *)

let run_filtered ?(ratio = 0.25) ?(dedup = true) ~jobs ~seed ~budget () =
  let model = trained_model 3 in
  let obs = Obs.Trace.make_buffer () in
  let prerank = Surrogate.Model.prerank ~filter_ratio:ratio ~group:"t" model in
  let r =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        Search.Stochastic.(
          random_sampling ~seed ~obs ~batch:default_batch ~pool ~prerank
            ~dedup ~space:Heuristic ~budget caps time
            (Kernels.softmax ~n:8 ~m:12)))
  in
  (r, List.map Obs.Trace.strip_timing (Obs.Trace.events obs), model)

let filtered_jobs_invariant () =
  let r1, t1, m1 = run_filtered ~jobs:1 ~seed:9 ~budget:32 () in
  let r4, t4, m4 = run_filtered ~jobs:4 ~seed:9 ~budget:32 () in
  Alcotest.(check (float 0.0)) "same best" r1.best_time r4.best_time;
  Alcotest.(check (list string)) "same moves" r1.best_moves r4.best_moves;
  Alcotest.(check int) "same evals" r1.evals r4.evals;
  Alcotest.(check int) "same skipped" r1.skipped r4.skipped;
  Alcotest.(check int) "same deduped" r1.deduped r4.deduped;
  Alcotest.(check string) "same trained model bytes"
    (Util.Json.to_string (Surrogate.Model.to_json m1))
    (Util.Json.to_string (Surrogate.Model.to_json m4));
  Alcotest.(check int) "same event count" (List.length t1)
    (List.length t4);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same stripped event"
        (Util.Json.to_string a) (Util.Json.to_string b))
    t1 t4

let slot_accounting () =
  let r, events, _ = run_filtered ~jobs:2 ~seed:5 ~budget:24 () in
  Alcotest.(check int) "evals + skipped + deduped + failures = budget" 24
    (r.evals + r.skipped + r.deduped + r.failures);
  Alcotest.(check bool) "filter actually skipped" true (r.skipped > 0);
  let names =
    List.filter_map
      (fun e -> Option.bind (Util.Json.member "ev" e) Util.Json.to_str)
      events
  in
  Alcotest.(check bool) "prerank events traced" true
    (List.mem "search.prerank" names);
  Alcotest.(check bool) "dedup events traced" true
    (List.mem "search.batch_dedup" names);
  (* one search.eval per fresh simulator evaluation, no more *)
  Alcotest.(check int) "search.eval events = evals" r.evals
    (List.length (List.filter (( = ) "search.eval") names))

let keep_all_matches_legacy () =
  (* filter_ratio 1.0 scores and trains but must not change the
     trajectory: identical best / moves / stripped trace to the plain
     batched engine *)
  let plain =
    let obs = Obs.Trace.make_buffer () in
    let r =
      Parallel.Pool.with_pool ~jobs:2 (fun pool ->
          Search.Stochastic.(
            random_sampling ~seed:9 ~obs ~batch:default_batch ~pool
              ~space:Heuristic ~budget:32 caps time
              (Kernels.softmax ~n:8 ~m:12)))
    in
    (r, List.map Obs.Trace.strip_timing (Obs.Trace.events obs))
  in
  let scored, t_scored, _ =
    run_filtered ~ratio:1.0 ~dedup:false ~jobs:2 ~seed:9 ~budget:32 ()
  in
  let plain_r, t_plain = plain in
  Alcotest.(check (float 0.0)) "same best" plain_r.best_time
    scored.best_time;
  Alcotest.(check (list string)) "same moves" plain_r.best_moves
    scored.best_moves;
  Alcotest.(check int) "keep-all skips nothing" 0 scored.skipped;
  Alcotest.(check int) "same stripped event count" (List.length t_plain)
    (List.length t_scored)

let bad_ratio_rejected () =
  let model = Surrogate.Model.create () in
  List.iter
    (fun ratio ->
      let prerank =
        Surrogate.Model.prerank ~filter_ratio:ratio ~group:"g" model
      in
      match
        Parallel.Pool.with_pool ~jobs:1 (fun pool ->
            Search.Stochastic.(
              random_sampling ~seed:1 ~batch:default_batch ~pool ~prerank
                ~space:Heuristic ~budget:8 caps time (Kernels.scale ~n:32)))
      with
      | _ -> Alcotest.failf "filter_ratio %g accepted" ratio
      | exception Invalid_argument _ -> ())
    [ 0.0; -0.5; 1.5 ]

let () =
  Alcotest.run "surrogate"
    [
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_embed_deterministic;
            prop_features_deterministic;
            prop_score_deterministic;
            prop_roundtrip_bytes;
          ] );
      ( "model",
        [
          Alcotest.test_case "save/load round-trips byte-identically" `Quick
            save_load_file;
          Alcotest.test_case "foreign feature dimension is rejected" `Quick
            reject_bad_dim;
          Alcotest.test_case "pairwise ranker separates a labeled pair"
            `Quick ranker_learns;
          Alcotest.test_case "offline training is deterministic" `Quick
            offline_deterministic;
          Alcotest.test_case "a record that does not replay is not trained on"
            `Quick stale_record_skipped;
        ] );
      ( "engine",
        [
          Alcotest.test_case "filtered search is jobs-invariant" `Quick
            filtered_jobs_invariant;
          Alcotest.test_case "every budget slot accounted exactly once"
            `Quick slot_accounting;
          Alcotest.test_case "keep-all filter matches the plain engine"
            `Quick keep_all_matches_legacy;
          Alcotest.test_case "filter_ratio outside (0,1] is rejected" `Quick
            bad_ratio_rejected;
        ] );
    ]
