(* Tests for the combinator targeting DSL and the composite engine:
   selector resolution against known programs, concrete-syntax
   round-trips (including a QCheck sweep over random selector trees),
   typed ambiguity/no-match errors, all-or-nothing composite
   application, macro-move enumeration and the enriched replay
   diagnostics. *)

open Machine
module Engine = Transform.Engine
module Xforms = Transform.Xforms
module Composites = Transfo.Composites

let target_cpu = Desc.Cpu Desc.avx512_cpu
let caps_cpu = Desc.caps_of target_cpu

(* [0] scope 8; [0,0] init stmt; [0,1] scope 8 (reduction);
   [0,1,0] accumulate stmt. *)
let rowsum () =
  Ir.Parser.program
    ("x f32 [8, 8] heap\nz f32 [8] heap\ninputs: x\noutputs: z\n"
   ^ "8\n| z[{0}] = 0\n| 8\n| | z[{0}] = z[{0}] + x[{0},{1}]\n")

let path = Alcotest.(list int)
let paths = Alcotest.(list (list int))

(* ------------------------------------------------------------------ *)
(* Resolution                                                          *)
(* ------------------------------------------------------------------ *)

let resolution_tests =
  let open Target in
  let p = rowsum () in
  let all sel = resolve_all p sel in
  [
    Alcotest.test_case "scopes in preorder" `Quick (fun () ->
        Alcotest.check paths "scopes" [ [ 0 ]; [ 0; 1 ] ] (all cScope));
    Alcotest.test_case "stmts in preorder" `Quick (fun () ->
        Alcotest.check paths "stmts"
          [ [ 0; 0 ]; [ 0; 1; 0 ] ]
          (all (cStmt ())));
    Alcotest.test_case "size is ambiguous across equal loops" `Quick
      (fun () ->
        match resolve p (cSize 8) with
        | Error (Ambiguous { matches; _ }) ->
            Alcotest.check paths "both scopes" [ [ 0 ]; [ 0; 1 ] ] matches
        | Ok _ | Error _ -> Alcotest.fail "expected Ambiguous");
    Alcotest.test_case "conjunction disambiguates" `Quick (fun () ->
        match resolve p (cSize 8 &&& cNested) with
        | Ok anchor -> Alcotest.check path "inner loop" [ 0; 1 ] anchor
        | Error e -> Alcotest.fail (error_to_string e));
    Alcotest.test_case "cNth picks by preorder index" `Quick (fun () ->
        match resolve p (cNth 1 (cStmt ())) with
        | Ok anchor -> Alcotest.check path "second stmt" [ 0; 1; 0 ] anchor
        | Error e -> Alcotest.fail (error_to_string e));
    Alcotest.test_case "writes propagates to enclosing scopes" `Quick
      (fun () ->
        (* both stmts and both scopes write z somewhere below *)
        Alcotest.(check int) "matches" 4 (List.length (all (cWrites "z")));
        Alcotest.check paths "stmt writers"
          [ [ 0; 0 ]; [ 0; 1; 0 ] ]
          (all (cStmt ~writes:"z" ())));
    Alcotest.test_case "reads names the consumer" `Quick (fun () ->
        match resolve p (cStmt () &&& cReads "x") with
        | Ok anchor -> Alcotest.check path "accumulate" [ 0; 1; 0 ] anchor
        | Error e -> Alcotest.fail (error_to_string e));
    Alcotest.test_case "depth counts enclosing scopes" `Quick (fun () ->
        Alcotest.check paths "depth 1"
          [ [ 0; 0 ]; [ 0; 1 ] ]
          (all (cDepth 1)));
    Alcotest.test_case "under requires a proper ancestor" `Quick (fun () ->
        Alcotest.check paths "below the root loop"
          [ [ 0; 0 ]; [ 0; 1 ]; [ 0; 1; 0 ] ]
          (all (cUnder (cSize 8))));
    Alcotest.test_case "for matches the printed header" `Quick (fun () ->
        Alcotest.(check int) "two headers" 2 (List.length (all (cFor "8"))));
    Alcotest.test_case "no match is typed" `Quick (fun () ->
        match resolve p (cSize 99) with
        | Error (No_match _) -> ()
        | Ok _ | Error _ -> Alcotest.fail "expected No_match");
    Alcotest.test_case "path is the exact escape hatch" `Quick (fun () ->
        match resolve p (cPath [ 0; 1 ]) with
        | Ok anchor -> Alcotest.check path "exact" [ 0; 1 ] anchor
        | Error e -> Alcotest.fail (error_to_string e));
    Alcotest.test_case "disjunction unions matches" `Quick (fun () ->
        Alcotest.(check int) "scopes + stmts" 4
          (List.length (all (cScope ||| cStmt ()))));
    Alcotest.test_case "cAnnot rejects unknown names" `Quick (fun () ->
        match cAnnot "bogus" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

(* ------------------------------------------------------------------ *)
(* Concrete syntax                                                     *)
(* ------------------------------------------------------------------ *)

let syntax_tests =
  let open Target in
  let p = rowsum () in
  let roundtrip sel =
    match parse (to_string sel) with
    | Error e -> Alcotest.failf "reparse of %S failed: %s" (to_string sel) e
    | Ok sel' ->
        Alcotest.(check string)
          ("round-trip of " ^ to_string sel)
          (to_string sel) (to_string sel');
        Alcotest.check paths
          ("same matches for " ^ to_string sel)
          (resolve_all p sel) (resolve_all p sel')
  in
  [
    Alcotest.test_case "printed selectors reparse equivalently" `Quick
      (fun () ->
        List.iter roundtrip
          [
            cAll;
            cSize 8 &&& cNested;
            cNth 1 (cStmt ());
            cStmt ~writes:"z" ();
            cUnder (cSize 8) &&& cReads "x";
            (cScope ||| cStmt ()) &&& cDepth 1;
            cPath [ 0; 1; 0 ];
            cPath [];
            cFor "320:b/300";
            cFor "weird (header)";
            cAnnot "vec" ||| cAnnot "par";
          ]);
    Alcotest.test_case "grammar accepts the documented spellings" `Quick
      (fun () ->
        List.iter
          (fun (src, expect) ->
            match parse src with
            | Ok sel ->
                Alcotest.check paths src expect (resolve_all p sel)
            | Error e -> Alcotest.failf "%s: %s" src e)
          [
            ("size 8 & nested", [ [ 0; 1 ] ]);
            ("stmt & writes z #1", [ [ 0; 1; 0 ] ]);
            ("(scope | stmt) & depth 1", [ [ 0; 0 ]; [ 0; 1 ] ]);
            ("path [0,1]", [ [ 0; 1 ] ]);
            ("under (size 8) & stmt", [ [ 0; 0 ]; [ 0; 1; 0 ] ]);
            ("for \"8\"", [ [ 0 ]; [ 0; 1 ] ]);
          ]);
    Alcotest.test_case "malformed selectors are errors" `Quick (fun () ->
        List.iter
          (fun src ->
            match parse src with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" src)
          [
            ""; "size"; "size x"; "annot bogus"; "path [0,"; "path 0";
            "size 8 &"; "(size 8"; "size 8 ) "; "frobnicate";
            "size 8 trailing";
          ]);
  ]

(* Random selector trees must print to parseable text that reparses to
   the same canonical spelling — the property the script format leans
   on. *)
let selector_qcheck =
  let open QCheck in
  let open Target in
  let leaf =
    Gen.oneof
      [
        Gen.return cAll;
        Gen.return cNested;
        Gen.return (cStmt ());
        Gen.return cScope;
        Gen.map cSize Gen.small_nat;
        Gen.map cDepth (Gen.int_bound 4);
        Gen.map cPath (Gen.list_size (Gen.int_bound 3) (Gen.int_bound 5));
        Gen.map cFor
          (Gen.oneofl [ "8"; "320:b/300"; "64:v"; "odd word"; "q\"q" ]);
        Gen.map cWrites (Gen.oneofl [ "z"; "x"; "acc" ]);
        Gen.map cReads (Gen.oneofl [ "z"; "x" ]);
        Gen.map cAnnot
          (Gen.oneofl [ "seq"; "unroll"; "par"; "vec"; "frep" ]);
      ]
  in
  let rec tree n =
    if n = 0 then leaf
    else
      Gen.oneof
        [
          leaf;
          Gen.map2 ( &&& ) (tree (n - 1)) (tree (n - 1));
          Gen.map2 ( ||| ) (tree (n - 1)) (tree (n - 1));
          Gen.map cUnder (tree (n - 1));
          Gen.map2 cNth (Gen.int_bound 3) (tree (n - 1));
        ]
  in
  QCheck.Test.make ~count:200 ~name:"selector print/parse round-trip"
    (QCheck.make ~print:to_string (tree 3))
    (fun sel ->
      match parse (to_string sel) with
      | Ok sel' -> to_string sel' = to_string sel
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Composites: all-or-nothing application                              *)
(* ------------------------------------------------------------------ *)

let composite_tests =
  let open Target in
  [
    Alcotest.test_case "apply_at surfaces ambiguity" `Quick (fun () ->
        let session = Engine.start caps_cpu (rowsum ()) in
        match Engine.apply_at session (cSize 8) (Composites.fuse_chain ()) with
        | Error (Ambiguous _) ->
            Alcotest.(check int) "no history" 0
              (List.length (Engine.moves session))
        | Ok _ | Error _ -> Alcotest.fail "expected Ambiguous");
    Alcotest.test_case "refusal leaves the session untouched" `Quick
      (fun () ->
        let p = rowsum () in
        let session = Engine.start caps_cpu p in
        (* the root loop has no following sibling to fuse with *)
        match
          Engine.apply_at session (cPath [ 0 ]) (Composites.fuse_chain ())
        with
        | Error (Refused { reason; _ }) ->
            Alcotest.(check bool) "reason given" true (reason <> "");
            Alcotest.(check string) "program unchanged"
              (Ir.Printer.program p)
              (Ir.Printer.program session.Engine.current);
            Alcotest.(check int) "no history" 0
              (List.length (Engine.moves session))
        | Ok _ -> Alcotest.fail "fuse_chain applied with no sibling"
        | Error e -> Alcotest.fail (error_to_string e));
    Alcotest.test_case "tile_and_unroll lands as one step" `Quick (fun () ->
        let session = Engine.start caps_cpu (rowsum ()) in
        match
          Engine.apply_at session
            (cSize 8 &&& cNested)
            (Composites.tile_and_unroll ~f:4 ~u:4)
        with
        | Ok q ->
            Alcotest.(check int) "two atomic moves" 2
              (List.length (Engine.moves session));
            Alcotest.(check (list string)) "validates" []
              (List.map Ir.Validate.error_to_string (Ir.Validate.check q))
        | Error e -> Alcotest.fail (error_to_string e));
    Alcotest.test_case "bad arguments refuse before touching state" `Quick
      (fun () ->
        (match Composites.find "tile_and_unroll" with
        | None -> Alcotest.fail "tile_and_unroll not registered"
        | Some c -> (
            (match c.Composites.make [ ("f", "8") ] with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "accepted missing u");
            match c.Composites.make [ ("f", "8"); ("u", "x") ] with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "accepted non-integer u"));
        (* divisibility is an expand-time condition: the transfo builds
           but cleanly refuses, leaving the session untouched *)
        let p = rowsum () in
        let session = Engine.start caps_cpu p in
        match
          Engine.apply_at session
            (cSize 8 &&& cNested)
            (Composites.tile_and_unroll ~f:8 ~u:3)
        with
        | Error (Refused { reason; _ }) ->
            Alcotest.(check string) "reason" "f must be a multiple of u"
              reason;
            Alcotest.(check string) "unchanged"
              (Ir.Printer.program p)
              (Ir.Printer.program session.Engine.current)
        | Ok _ -> Alcotest.fail "applied with u not dividing f"
        | Error e -> Alcotest.fail (error_to_string e));
    Alcotest.test_case "script-name resolution covers atomics" `Quick
      (fun () ->
        (match Composites.resolve "split" [ ("factor", "4") ] with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        (match Composites.resolve "storage" [ ("buffer", "z"); ("loc", "stack") ]
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        match Composites.resolve "frobnicate" [] with
        | Error msg ->
            Alcotest.(check bool) "error names the registry" true
              (String.length msg > 0)
        | Ok _ -> Alcotest.fail "resolved unknown name");
  ]

(* ------------------------------------------------------------------ *)
(* Macro-moves in the search action set                                *)
(* ------------------------------------------------------------------ *)

let macro_tests =
  [
    Alcotest.test_case "enable adds composite instances" `Quick (fun () ->
        let p = rowsum () in
        let plain = Xforms.all caps_cpu p in
        let enriched =
          Xforms.all (Composites.enable ~names:[ "all" ] caps_cpu) p
        in
        let macros =
          List.filter
            (fun (i : Xforms.instance) ->
              Transform.Moveref.xname i.move = "composite")
            enriched
        in
        Alcotest.(check bool) "strictly more moves" true
          (List.length enriched > List.length plain);
        Alcotest.(check bool) "macros present" true (macros <> []);
        (* atomic moves survive unchanged *)
        Alcotest.(check int) "atomics kept"
          (List.length plain)
          (List.length enriched - List.length macros));
    Alcotest.test_case "macro describes parse as composite moverefs" `Quick
      (fun () ->
        let p = rowsum () in
        let enriched =
          Xforms.all (Composites.enable ~names:[ "all" ] caps_cpu) p
        in
        List.iter
          (fun (i : Xforms.instance) ->
            if Transform.Moveref.xname i.move = "composite" then
              match Transform.Moveref.of_describe (Xforms.describe i) with
              | Some (Transform.Moveref.Composite _) -> ()
              | Some _ | None ->
                  Alcotest.failf "macro describe unparseable: %s"
                    (Xforms.describe i))
          enriched);
    Alcotest.test_case "macro application validates" `Quick (fun () ->
        let p = rowsum () in
        let enriched =
          Xforms.all (Composites.enable ~names:[ "all" ] caps_cpu) p
        in
        match
          List.find_opt
            (fun (i : Xforms.instance) ->
              Transform.Moveref.xname i.move = "composite")
            enriched
        with
        | None -> Alcotest.fail "no macro offered"
        | Some i ->
            let q = i.apply p in
            Alcotest.(check (list string)) "valid" []
              (List.map Ir.Validate.error_to_string (Ir.Validate.check q)));
    Alcotest.test_case "named subset restricts the offering" `Quick
      (fun () ->
        let p = rowsum () in
        let only_fuse =
          Xforms.all (Composites.enable ~names:[ "fuse_chain" ] caps_cpu) p
        in
        List.iter
          (fun (i : Xforms.instance) ->
            if Transform.Moveref.xname i.move = "composite" then
              match Transform.Moveref.of_describe (Xforms.describe i) with
              | Some (Transform.Moveref.Composite { cname; _ }) ->
                  Alcotest.(check string) "only fuse_chain" "fuse_chain" cname
              | _ -> Alcotest.fail "unparseable macro")
          only_fuse);
  ]

(* ------------------------------------------------------------------ *)
(* Enriched replay diagnostics                                         *)
(* ------------------------------------------------------------------ *)

let replay_tests =
  [
    Alcotest.test_case "replay errors carry step, path, alternatives" `Quick
      (fun () ->
        let p = rowsum () in
        match
          Search.Stochastic.replay_exact caps_cpu p
            [ "parallelize([0])"; "parallelize([0])" ]
        with
        | Ok _ -> Alcotest.fail "replayed an inapplicable move"
        | Error msg ->
            let contains affix s =
              let n = String.length affix and m = String.length s in
              let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
              go 0
            in
            let has needle =
              Alcotest.(check bool)
                (Printf.sprintf "%S mentions %S" msg needle)
                true (contains needle msg)
            in
            has "step 1";
            has "parallelize([0])";
            has "[0]";
            has "nearest applicable");
    Alcotest.test_case "successful replay is unchanged" `Quick (fun () ->
        let p = rowsum () in
        match
          Search.Stochastic.replay_exact caps_cpu p [ "parallelize([0])" ]
        with
        | Ok q ->
            Alcotest.(check bool) "applied" true
              (Ir.Printer.program q <> Ir.Printer.program p)
        | Error e -> Alcotest.fail e);
  ]

let () =
  Alcotest.run "target"
    [
      ("resolution", resolution_tests);
      ("syntax", syntax_tests);
      ("syntax-qcheck", [ QCheck_alcotest.to_alcotest selector_qcheck ]);
      ("composites", composite_tests);
      ("macros", macro_tests);
      ("replay", replay_tests);
    ]
