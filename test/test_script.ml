(* Tests for the .pds schedule-script format: parse/print round-trips,
   typed parse and run errors, the of_moves conversion that upgrades
   recorded describe-string sequences to scripts (QCheck: random engine
   walks round-trip byte-identically through the format), and the
   acceptance gate — the hand-written example scripts reproduce the
   recorded Table-3 winners byte-for-byte. *)

open Machine
module Engine = Transform.Engine
module Xforms = Transform.Xforms
module Script = Transfo.Script
module Composites = Transfo.Composites

let target_x86 = Desc.Cpu Desc.xeon_e5_2695v4
let caps_x86 = Desc.caps_of target_x86

(* ------------------------------------------------------------------ *)
(* Concrete syntax                                                     *)
(* ------------------------------------------------------------------ *)

let literal =
  "pds 1\n# a worked example\nkernel softmax\ntarget x86\n"
  ^ "at size 256 & nested do split(factor=16)\n"
  ^ "do storage(buffer=acc, loc=stack)\n"
  ^ "at path [0,1] do tile_and_unroll(f=8, u=4) # trailing comment\n"
  ^ "at path [0,2] do split(factor=8)\n"

let parse_ok src =
  match Script.parse src with
  | Ok s -> s
  | Error e -> Alcotest.failf "parse failed: %s" e

let syntax_tests =
  [
    Alcotest.test_case "literal script parses with headers" `Quick (fun () ->
        let s = parse_ok literal in
        Alcotest.(check (option string)) "kernel" (Some "softmax") s.kernel;
        Alcotest.(check (option string)) "target" (Some "x86") s.ktarget;
        Alcotest.(check int) "statements" 4 (List.length s.stmts));
    Alcotest.test_case "print/parse is a fixpoint" `Quick (fun () ->
        let s = parse_ok literal in
        let printed = Script.to_string s in
        let s' = parse_ok printed in
        Alcotest.(check string) "fixpoint" printed (Script.to_string s');
        Alcotest.(check int) "same statement count"
          (List.length s.stmts) (List.length s'.stmts));
    Alcotest.test_case "statements keep their source lines" `Quick
      (fun () ->
        let s = parse_ok literal in
        Alcotest.(check (list int)) "1-based lines" [ 5; 6; 7; 8 ]
          (List.map fst s.stmts));
    Alcotest.test_case "comments and blank lines are skipped" `Quick
      (fun () ->
        let s = parse_ok "pds 1\n\n# nothing here\n\ndo unroll\n" in
        Alcotest.(check int) "one stmt" 1 (List.length s.stmts));
    Alcotest.test_case "malformed scripts are errors" `Quick (fun () ->
        List.iter
          (fun src ->
            match Script.parse src with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" src)
          [
            "";
            "at size 8 do split(factor=4)\n" (* missing header *);
            "pds 2\ndo unroll\n" (* future version *);
            "pds 1\nat size 8 split(factor=4)\n" (* 'at' without 'do' *);
            "pds 1\nat size 8 & do unroll\n" (* bad selector *);
            "pds 1\ndo split(factor)\n" (* arg without value *);
            "pds 1\ndo split(factor=4\n" (* unclosed args *);
          ]);
    Alcotest.test_case "move line is a parse error naming its line" `Quick
      (fun () ->
        let check src expect =
          match Script.parse src with
          | Error e -> Alcotest.(check string) "message" expect e
          | Ok _ -> Alcotest.failf "accepted %S" src
        in
        (* a move spells out the statement that replaces it *)
        check "pds 1\n# c\nmove parallelize([0])\n"
          "line 3: the 'move' statement was removed; write: at path [0] do \
           parallelize";
        check "pds 1\nmove split_scope([0,2] factor 8)  # old\n"
          "line 2: the 'move' statement was removed; write: at path [0,2] \
           do split(factor=8)";
        check "pds 1\ndo unroll\nmove weird()\n"
          "line 3: the 'move' statement was removed; write an 'at SELECTOR \
           do NAME(ARGS)' statement");
  ]

(* ------------------------------------------------------------------ *)
(* Running and typed run errors                                        *)
(* ------------------------------------------------------------------ *)

(* [0] scope 8; [0,0] init; [0,1] scope 8; [0,1,0] accumulate *)
let rowsum () =
  Ir.Parser.program
    ("x f32 [8, 8] heap\nz f32 [8] heap\ninputs: x\noutputs: z\n"
   ^ "8\n| z[{0}] = 0\n| 8\n| | z[{0}] = z[{0}] + x[{0},{1}]\n")

let run_tests =
  [
    Alcotest.test_case "a script applies end to end" `Quick (fun () ->
        let p = rowsum () in
        let s =
          parse_ok
            ("pds 1\nat size 8 & nested do split(factor=4)\n"
           ^ "at size 8 do parallelize\n")
        in
        match Script.run caps_x86 p s with
        | Ok (q, prov) ->
            Alcotest.(check int) "two atomic moves" 2 (List.length prov);
            (match Search.Stochastic.replay_exact caps_x86 p prov with
            | Ok q' ->
                Alcotest.(check string) "provenance replays identically"
                  (Ir.Printer.program q) (Ir.Printer.program q')
            | Error e -> Alcotest.fail e)
        | Error e -> Alcotest.fail (Script.run_error_to_string e));
    Alcotest.test_case "unknown statement name fails with its line" `Quick
      (fun () ->
        let s = parse_ok "pds 1\n# hi\ndo frobnicate\n" in
        match Script.run caps_x86 (rowsum ()) s with
        | Error { line; err = Target.Refused _; _ } ->
            Alcotest.(check int) "line" 3 line
        | Error { err; _ } -> Alcotest.fail (Target.error_to_string err)
        | Ok _ -> Alcotest.fail "ran an unknown transfo");
    Alcotest.test_case "ambiguous selector stops the script" `Quick
      (fun () ->
        let s = parse_ok "pds 1\nat size 8 do unroll\n" in
        match Script.run caps_x86 (rowsum ()) s with
        | Error { line = 2; err = Target.Ambiguous _; _ } -> ()
        | Error e -> Alcotest.fail (Script.run_error_to_string e)
        | Ok _ -> Alcotest.fail "ran an ambiguous statement");
    Alcotest.test_case "refused composite reports anchor and reason" `Quick
      (fun () ->
        let s = parse_ok "pds 1\nat path [0] do fuse_chain\n" in
        match Script.run caps_x86 (rowsum ()) s with
        | Error { err = Target.Refused { anchor; reason; _ }; _ } ->
            Alcotest.(check (list int)) "anchor" [ 0 ] anchor;
            Alcotest.(check bool) "reason" true (reason <> "")
        | Error e -> Alcotest.fail (Script.run_error_to_string e)
        | Ok _ -> Alcotest.fail "fused without a sibling");
  ]

(* ------------------------------------------------------------------ *)
(* of_moves: recorded sequences upgrade to scripts (QCheck)            *)
(* ------------------------------------------------------------------ *)

(* Satellite: random engine walks round-trip byte-identically through
   the script format — describes -> of_moves -> print -> parse -> run
   reproduces the walked-to program and its canonical fingerprint. *)
let roundtrip_qcheck =
  let entries = Kernels.table3 @ Kernels.snitch_micro in
  let caps = Composites.enable ~names:[ "all" ] caps_x86 in
  QCheck.Test.make ~count:40
    ~name:"script round-trip reproduces random walks byte-for-byte"
    QCheck.(pair (int_bound (List.length entries - 1)) (int_bound 9999))
    (fun (ki, seed) ->
      let entry = List.nth entries ki in
      let p = entry.Kernels.build_small () in
      let rng = Util.Rng.create seed in
      let session = Engine.start caps p in
      (* a short random walk; stop early when no moves remain *)
      (try
         for _ = 1 to 4 do
           match Engine.applicable session with
           | [] -> raise Exit
           | insts ->
               let i = List.nth insts (Util.Rng.int rng (List.length insts)) in
               ignore (Engine.apply session i)
         done
       with Exit -> ());
      let walked = session.Engine.current in
      let describes = List.map Xforms.describe (Engine.moves session) in
      match
        Result.bind (Script.of_moves ~kernel:entry.Kernels.label describes)
          (fun script -> Script.parse (Script.to_string script))
      with
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e
      | Ok script' -> (
          match Script.run caps p script' with
          | Error e ->
              QCheck.Test.fail_reportf "run failed on %s: %s"
                entry.Kernels.label
                (Script.run_error_to_string e)
          | Ok (q, _) ->
              Ir.Printer.program q = Ir.Printer.program walked
              && Canon.fingerprint q = Canon.fingerprint walked))

let of_moves_tests =
  [
    Alcotest.test_case "parseable moves become targeted statements" `Quick
      (fun () ->
        let moves = [ "split_scope([0,1] factor 4)"; "parallelize([0])" ] in
        (match Script.of_moves ~kernel:"rowsum" moves with
        | Ok s ->
            Alcotest.(check (list string)) "statements"
              [ "at path [0,1] do split(factor=4)"; "at path [0] do parallelize" ]
              (List.map (fun (_, st) -> Script.stmt_to_string st) s.stmts)
        | Error e -> Alcotest.fail e);
        (* the first string that is not a move is named *)
        match Script.of_moves (moves @ [ "weird()"; "bogus" ]) with
        | Error e ->
            Alcotest.(check string) "error" "of_moves: \"weird()\" is not a move" e
        | Ok s -> Alcotest.failf "accepted a non-move:\n%s" (Script.to_string s));
    Alcotest.test_case "of_moves output runs to the replayed program"
      `Quick (fun () ->
        let p = rowsum () in
        let moves = [ "split_scope([0,1] factor 4)"; "parallelize([0])" ] in
        let expect =
          match Search.Stochastic.replay_exact caps_x86 p moves with
          | Ok q -> q
          | Error e -> Alcotest.fail e
        in
        match
          Script.run caps_x86 p (Result.get_ok (Script.of_moves moves))
        with
        | Ok (q, _) ->
            Alcotest.(check string) "byte-identical"
              (Ir.Printer.program expect) (Ir.Printer.program q)
        | Error e -> Alcotest.fail (Script.run_error_to_string e));
  ]

(* ------------------------------------------------------------------ *)
(* Acceptance: the example scripts reproduce recorded Table-3 winners  *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let acceptance kernel script_file () =
  let entry = Kernels.find_entry Kernels.table3 kernel in
  let p = entry.Kernels.build () in
  let ctx = Perfdojo.Ctx.(default |> with_seed 1) in
  let outcome =
    Perfdojo.optimize_ctx ~ctx
      (Perfdojo.Annealing { budget = 64; space = Search.Stochastic.Heuristic })
      target_x86 p
  in
  let caps = Perfdojo.caps_of ~ctx target_x86 in
  let script =
    match Script.parse (read_file script_file) with
    | Ok s -> s
    | Error e -> Alcotest.failf "%s: %s" script_file e
  in
  match Script.run caps p script with
  | Error e -> Alcotest.fail (Script.run_error_to_string e)
  | Ok (q, prov) -> (
      Alcotest.(check string)
        "script reproduces the search winner byte-for-byte"
        (Ir.Printer.program outcome.Perfdojo.schedule)
        (Ir.Printer.program q);
      Alcotest.(check string) "canonical fingerprints agree"
        (Tuning.Record.fingerprint outcome.Perfdojo.schedule)
        (Tuning.Record.fingerprint q);
      (* the winner deposits with script provenance that parses *)
      match
        Tuning.Warmstart.record_of
          ~objective:(Machine.time target_x86)
          ~caps ~kernel ~target:"x86" ~root:p ~moves:prov
          ~evals:outcome.Perfdojo.evaluations
      with
      | Error e -> Alcotest.fail e
      | Ok r -> (
          match r.Tuning.Record.script with
          | None -> Alcotest.fail "record lacks script provenance"
          | Some text -> (
              match Script.parse text with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "stored script unparseable: %s" e)))

let acceptance_tests =
  [
    Alcotest.test_case "matmul_x86.pds matches the recorded best" `Slow
      (acceptance "matmul" "../examples/schedules/matmul_x86.pds");
    Alcotest.test_case "softmax_x86.pds matches the recorded best" `Slow
      (acceptance "softmax" "../examples/schedules/softmax_x86.pds");
  ]

let () =
  Alcotest.run "script"
    [
      ("syntax", syntax_tests);
      ("run", run_tests);
      ("of_moves", of_moves_tests);
      ("of_moves-qcheck", [ QCheck_alcotest.to_alcotest roundtrip_qcheck ]);
      ("acceptance", acceptance_tests);
    ]
