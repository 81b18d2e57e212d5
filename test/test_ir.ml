(* Tests for the IR core: index algebra, printing/parsing round trips,
   structural validation. *)

open Ir.Types

let ix = Ir.Index.iter

let index_tests =
  [
    Alcotest.test_case "normalize merges terms" `Quick (fun () ->
        let i = Ir.Index.normalize [ (2, 0); (3, 0); (1, 1) ] 5 in
        Alcotest.(check string) "repr" "5*{0}+{1}+5" (Ir.Index.to_string i));
    Alcotest.test_case "normalize drops zero coeffs" `Quick (fun () ->
        let i = Ir.Index.normalize [ (2, 0); (-2, 0) ] 0 in
        Alcotest.(check bool) "const" true (Ir.Index.is_const i);
        Alcotest.(check string) "repr" "0" (Ir.Index.to_string i));
    Alcotest.test_case "add and scale" `Quick (fun () ->
        let i = Ir.Index.add (ix 0) (Ir.Index.scale 4 (ix 1)) in
        Alcotest.(check int) "coeff0" 1 (Ir.Index.coeff_of 0 i);
        Alcotest.(check int) "coeff1" 4 (Ir.Index.coeff_of 1 i));
    Alcotest.test_case "subst implements tiling remap" `Quick (fun () ->
        (* {0} -> 4*{0} + {1}, deeper refs shift *)
        let remap d =
          if d = 0 then Ir.Index.add (ix ~coeff:4 0) (ix 1)
          else ix (d + 1)
        in
        let i = Ir.Index.normalize [ (1, 0); (2, 1) ] 3 in
        let i' = Ir.Index.subst remap i in
        Alcotest.(check string) "repr" "4*{0}+{1}+2*{2}+3"
          (Ir.Index.to_string i'));
    Alcotest.test_case "eval" `Quick (fun () ->
        let i = Ir.Index.normalize [ (4, 0); (1, 1) ] (-2) in
        Alcotest.(check int) "value" (4 * 3) (Ir.Index.eval [| 3; 2 |] i + 0)
        |> ignore;
        Alcotest.(check int) "value" 12 (Ir.Index.eval [| 3; 2 |] i));
    Alcotest.test_case "value_range" `Quick (fun () ->
        let i = Ir.Index.normalize [ (1, 0); (1, 1) ] 0 in
        let lo, hi = Ir.Index.value_range (fun d -> [| 4; 3 |].(d)) i in
        Alcotest.(check (pair int int)) "range" (0, 5) (lo, hi));
    Alcotest.test_case "shift_depths" `Quick (fun () ->
        let i = Ir.Index.normalize [ (1, 0); (1, 2) ] 0 in
        let i' = Ir.Index.shift_depths ~from:1 ~delta:1 i in
        Alcotest.(check string) "repr" "{0}+{3}" (Ir.Index.to_string i'));
  ]

(* [Ir.Index.normalize] as it was before it merged depth-sorted terms,
   verbatim, with [add], [scale] and [subst] rebuilt on it: the oracle
   the normal form must keep equalling. *)
let normalize_oracle (terms : (int * int) list) offset : index =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (c, d) ->
      let prev = try Hashtbl.find tbl d with Not_found -> 0 in
      Hashtbl.replace tbl d (prev + c))
    terms;
  let terms =
    Hashtbl.fold (fun d c acc -> if c = 0 then acc else (c, d) :: acc) tbl []
  in
  let terms = List.sort (fun (_, d1) (_, d2) -> compare d1 d2) terms in
  { terms; offset }

let add_oracle a b =
  normalize_oracle (a.terms @ b.terms) (a.offset + b.offset)

let scale_oracle k a =
  normalize_oracle (List.map (fun (c, d) -> (c * k, d)) a.terms) (k * a.offset)

let subst_oracle f a =
  List.fold_left
    (fun acc (c, d) -> add_oracle acc (scale_oracle c (f d)))
    (normalize_oracle [] a.offset) a.terms

(* Term lists over five depths with zero and negative coefficients,
   repeated depths, and terms whose negations are in the same list, so
   whole depths cancel. *)
let qcheck_normal_form =
  let terms =
    QCheck.Gen.(
      let term = pair (int_range (-3) 3) (int_bound 4) in
      let* base = list_size (int_bound 6) term in
      let* cancelled = list_size (int_bound 3) term in
      shuffle_l
        (base @ cancelled @ List.map (fun (c, d) -> (-c, d)) cancelled))
  in
  let print_terms l =
    String.concat ";" (List.map (fun (c, d) -> Printf.sprintf "%d*{%d}" c d) l)
  in
  QCheck.Test.make ~count:1000
    ~name:"normalize, add, scale and subst equal the Hashtbl normal form"
    (QCheck.make
       ~print:(fun (t1, t2, off, k) ->
         Printf.sprintf "[%s] [%s] offset %d k %d" (print_terms t1)
           (print_terms t2) off k)
       QCheck.Gen.(quad terms terms (int_range (-5) 5) (int_range (-3) 3)))
    (fun (t1, t2, off, k) ->
      let a = Ir.Index.normalize t1 off and b = Ir.Index.normalize t2 (-off) in
      let a' = normalize_oracle t1 off and b' = normalize_oracle t2 (-off) in
      (* a depth substitution whose images overlap and cancel *)
      let image d = (1, (d + 1) mod 5) :: (k, d) :: t2 in
      let f d = Ir.Index.normalize (image d) d
      and f' d = normalize_oracle (image d) d in
      a = a' && b = b'
      && Ir.Index.add a b = add_oracle a' b'
      && Ir.Index.scale k a = scale_oracle k a'
      && Ir.Index.subst f a = subst_oracle f' a')

let roundtrip_kernel (e : Kernels.entry) () =
  let p = e.build_small () in
  let text = Ir.Printer.program p in
  let p' = Ir.Parser.program text in
  let text' = Ir.Printer.program p' in
  Alcotest.(check string) ("round trip " ^ e.label) text text';
  (* structural equality of the whole program *)
  Alcotest.(check bool) "structurally equal" true (p = p')

let roundtrip_tests =
  List.map
    (fun (e : Kernels.entry) ->
      Alcotest.test_case ("roundtrip " ^ e.label) `Quick (roundtrip_kernel e))
    (Kernels.table3 @ Kernels.snitch_micro)

let parse_tests =
  [
    Alcotest.test_case "scope flags parse" `Quick (fun () ->
        let text =
          "x f32 [8, 4] heap\n" ^ "z f32 [8, 4] heap\n" ^ "inputs: x\n"
          ^ "outputs: z\n" ^ "8:p\n" ^ "| 4:v\n"
          ^ "| | z[{0},{1}] = x[{0},{1}] * 2\n"
        in
        let p = Ir.Parser.program text in
        match p.body with
        | [ Scope s1 ] -> (
            Alcotest.(check bool) "par" true (s1.annot = Par);
            match s1.body with
            | [ Scope s2 ] -> Alcotest.(check bool) "vec" true (s2.annot = Vec)
            | _ -> Alcotest.fail "bad structure")
        | _ -> Alcotest.fail "bad structure");
    Alcotest.test_case "guarded scope parses" `Quick (fun () ->
        let text =
          "x f32 [300] heap\nz f32 [300] heap\ninputs: x\noutputs: z\n"
          ^ "320:b/300\n| z[{0}] = x[{0}] * 2\n"
        in
        let p = Ir.Parser.program text in
        match p.body with
        | [ Scope s ] ->
            Alcotest.(check int) "size" 320 s.size;
            Alcotest.(check (option int)) "guard" (Some 300) s.guard
        | _ -> Alcotest.fail "bad structure");
    Alcotest.test_case "reuse dim and alias list parse" `Quick (fun () ->
        let text =
          "t f32 [8, 4:N] stack -> t1, t2\n"
          ^ "z f32 [8, 4] heap\ninputs: t1\noutputs: z\n" ^ "8\n" ^ "| 4\n"
          ^ "| | z[{0},{1}] = t1[{0},{1}] + t2[{0},{1}]\n"
        in
        let p = Ir.Parser.program text in
        let b = Ir.Prog.buffer_by_name p "t" in
        Alcotest.(check (list bool)) "reuse" [ false; true ] b.reuse;
        Alcotest.(check (list string)) "arrays" [ "t1"; "t2" ] b.arrays);
    Alcotest.test_case "idx() expression parses" `Quick (fun () ->
        let text =
          "z f32 [4, 4] heap\ninputs: \noutputs: z\n4\n| 4\n"
          ^ "| | z[{0},{1}] = idx(4*{0}+{1})\n"
        in
        let p = Ir.Parser.program text in
        let s =
          match p.body with
          | [ Scope { body = [ Scope { body = [ Stmt s ]; _ } ]; _ } ] -> s
          | _ -> Alcotest.fail "bad structure"
        in
        match s.rhs with
        | IterVal i ->
            Alcotest.(check string) "idx" "4*{0}+{1}" (Ir.Index.to_string i)
        | _ -> Alcotest.fail "expected IterVal");
    Alcotest.test_case "reject malformed stmt" `Quick (fun () ->
        Alcotest.check_raises "parse error"
          (Ir.Parser.Parse_error "statement must start with destination: \"= x\"")
          (fun () -> ignore (Ir.Parser.parse_stmt_line "= x")));
  ]

let validate_tests =
  [
    Alcotest.test_case "all kernels validate" `Quick (fun () ->
        List.iter
          (fun (e : Kernels.entry) ->
            match Ir.Validate.check (e.build_small ()) with
            | [] -> ()
            | errs ->
                Alcotest.failf "%s: %s" e.label
                  (String.concat "; "
                     (List.map Ir.Validate.error_to_string errs)))
          (Kernels.table3 @ Kernels.snitch_micro));
    Alcotest.test_case "catches out-of-bounds access" `Quick (fun () ->
        let p : Ir.Prog.t =
          {
            buffers = [ buffer "x" F32 [ 4 ]; buffer "z" F32 [ 4 ] ];
            inputs = [ "x" ];
            outputs = [ "z" ];
            body =
              [
                scope 4
                  [
                    Stmt
                      {
                        dst = { array = "z"; idx = [ Ir.Index.iter 0 ] };
                        rhs =
                          Ref
                            {
                              array = "x";
                              idx =
                                [ Ir.Index.normalize [ (1, 0) ] 1 (* {0}+1 *) ];
                            };
                      };
                  ];
              ];
          }
        in
        Alcotest.(check bool) "invalid" false (Ir.Validate.is_valid p));
    Alcotest.test_case "catches unknown array" `Quick (fun () ->
        let p : Ir.Prog.t =
          {
            buffers = [ buffer "z" F32 [ 4 ] ];
            inputs = [];
            outputs = [ "z" ];
            body =
              [
                scope 4
                  [
                    Stmt
                      {
                        dst = { array = "z"; idx = [ Ir.Index.iter 0 ] };
                        rhs = Ref { array = "ghost"; idx = [ Ir.Index.iter 0 ] };
                      };
                  ];
              ];
          }
        in
        Alcotest.(check bool) "invalid" false (Ir.Validate.is_valid p));
    Alcotest.test_case "catches deep depth reference" `Quick (fun () ->
        let p : Ir.Prog.t =
          {
            buffers = [ buffer "z" F32 [ 4 ] ];
            inputs = [];
            outputs = [ "z" ];
            body =
              [
                scope 4
                  [
                    Stmt
                      {
                        dst = { array = "z"; idx = [ Ir.Index.iter 0 ] };
                        rhs = IterVal (Ir.Index.iter 3);
                      };
                  ];
              ];
          }
        in
        Alcotest.(check bool) "invalid" false (Ir.Validate.is_valid p));
    Alcotest.test_case "flops counts arithmetic" `Quick (fun () ->
        let p = Kernels.matmul ~m:2 ~k:3 ~n:4 in
        (* 2*4 inits contribute 0 flops, 2*4*3 iterations of add+mul *)
        Alcotest.(check int) "flops" (2 * 4 * 3 * 2) (Ir.Prog.total_flops p));
  ]

let path_tests =
  [
    Alcotest.test_case "node_at / depth_of_path" `Quick (fun () ->
        let p = Kernels.matmul ~m:2 ~k:3 ~n:4 in
        (match Ir.Prog.node_at p [ 0 ] with
        | Scope s -> Alcotest.(check int) "m loop" 2 s.size
        | Stmt _ -> Alcotest.fail "expected scope");
        (match Ir.Prog.node_at p [ 0; 0; 1 ] with
        | Scope s -> Alcotest.(check int) "k loop" 3 s.size
        | Stmt _ -> Alcotest.fail "expected scope");
        Alcotest.(check int) "depth of k loop" 2
          (Ir.Prog.depth_of_path p [ 0; 0; 1 ]));
    Alcotest.test_case "rewrite_at splices" `Quick (fun () ->
        let p = Kernels.relu ~n:2 ~m:3 in
        let p' = Ir.Prog.rewrite_at p [ 0 ] (fun n -> [ n; n ]) in
        Alcotest.(check int) "two copies" 2 (List.length p'.body));
    Alcotest.test_case "enclosing_sizes" `Quick (fun () ->
        let p = Kernels.matmul ~m:2 ~k:3 ~n:4 in
        let sizes = Ir.Prog.enclosing_sizes p [ 0; 0; 1; 0 ] in
        Alcotest.(check (list int)) "sizes" [ 2; 4; 3 ] (Array.to_list sizes));
    Alcotest.test_case "a path that addresses no node raises with that path"
      `Quick (fun () ->
        (* [0] m loop, [0,0] n loop, [0,0,0] init statement, [0,0,1] k
           loop: the bad paths are empty, out of range or negative at the
           last or an inner level, or step into a statement *)
        let p = Kernels.matmul ~m:2 ~k:3 ~n:4 in
        let bad =
          [ []; [ 1 ]; [ -1 ]; [ 0; 9 ]; [ 0; -1 ]; [ 9; 0 ]; [ -1; 0 ];
            [ 0; 9; 0 ]; [ 0; -1; 0 ]; [ 0; 0; 0; 0 ]; [ 0; 0; 2; 0 ] ]
        in
        let show path =
          "[" ^ String.concat "," (List.map string_of_int path) ^ "]"
        in
        List.iter
          (fun path ->
            let raises name f =
              match f () with
              | () -> Alcotest.failf "%s %s returned" name (show path)
              | exception Ir.Prog.Invalid_path q ->
                  Alcotest.(check (list int))
                    (name ^ " " ^ show path ^ " carries the path")
                    path q
            in
            raises "node_at" (fun () -> ignore (Ir.Prog.node_at p path));
            raises "rewrite_at" (fun () ->
                ignore (Ir.Prog.rewrite_at p path (fun n -> [ n; n ])));
            raises "depth_of_path" (fun () ->
                ignore (Ir.Prog.depth_of_path p path));
            raises "enclosing_sizes" (fun () ->
                ignore (Ir.Prog.enclosing_sizes p path)))
          bad);
  ]

(* Property: printing then parsing preserves program structure for random
   transformed variants.  (Random programs come from applying random
   transformations to kernels, giving realistic diversity.) *)
let qcheck_roundtrip =
  let gen_prog =
    QCheck.Gen.(
      let* kidx = int_bound (List.length Kernels.table3 - 1) in
      let e = List.nth Kernels.table3 kidx in
      let* steps = int_bound 4 in
      let* seed = int_bound 1_000_000 in
      let rng = Util.Rng.create seed in
      let caps = Transform.Xforms.cpu_caps () in
      let prog = ref (e.build_small ()) in
      for _ = 1 to steps do
        let insts = Transform.Xforms.all caps !prog in
        if insts <> [] then begin
          let i = Util.Rng.int rng (List.length insts) in
          prog := (List.nth insts i).apply !prog
        end
      done;
      return !prog)
  in
  QCheck.Test.make ~count:50 ~name:"print/parse roundtrip on transformed programs"
    (QCheck.make gen_prog)
    (fun p ->
      let text = Ir.Printer.program p in
      let p' = Ir.Parser.program text in
      p = p')

let () =
  Alcotest.run "ir"
    [
      ( "index",
        index_tests @ [ QCheck_alcotest.to_alcotest qcheck_normal_form ] );
      ("roundtrip", roundtrip_tests);
      ("parse", parse_tests);
      ("validate", validate_tests);
      ("paths", path_tests);
      ("qcheck", [ QCheck_alcotest.to_alcotest qcheck_roundtrip ]);
    ]
