(* Transformation tests.  The central property mirrors the paper's own
   validation methodology (§2.2): every transformation instance offered by
   applicability discovery, applied at its location, must produce a valid
   program that is numerically equivalent to the original. *)

open Transform

let caps_cpu = Xforms.cpu_caps ()
let caps_gpu = Xforms.gpu_caps ()
let caps_snitch = Xforms.snitch_caps ()

let check_equiv ?(tol = 1e-4) label reference transformed =
  (match Ir.Validate.check transformed with
  | [] -> ()
  | errs ->
      Alcotest.failf "%s: invalid after transform: %s" label
        (String.concat "; " (List.map Ir.Validate.error_to_string errs)));
  match Interp.equivalent ~tol reference transformed with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" label e

(* Apply every applicable instance (one step from the root) and verify. *)
let exhaustive_one_step caps (e : Kernels.entry) () =
  let p = e.build_small () in
  let insts = Xforms.all caps p in
  Alcotest.(check bool)
    (e.label ^ " has applicable transforms")
    true (insts <> []);
  List.iter
    (fun (i : Xforms.instance) ->
      let p' = i.apply p in
      check_equiv (e.label ^ " / " ^ Xforms.describe i) p p')
    insts

let one_step_suites =
  List.concat_map
    (fun (caps, cname) ->
      List.map
        (fun (e : Kernels.entry) ->
          Alcotest.test_case
            (Printf.sprintf "%s one-step (%s)" e.label cname)
            `Quick
            (exhaustive_one_step caps e))
        (Kernels.table3 @ Kernels.snitch_micro))
    [ (caps_cpu, "cpu"); (caps_gpu, "gpu"); (caps_snitch, "snitch") ]

(* Random multi-step walks: semantics must be preserved along any path in
   the transformation graph. *)
let qcheck_random_walk caps cname =
  let entries = Array.of_list (Kernels.table3 @ Kernels.snitch_micro) in
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "random %s walk preserves semantics" cname)
    QCheck.(pair (int_bound (Array.length entries - 1)) small_int)
    (fun (kidx, seed) ->
      let e = entries.(kidx) in
      let p0 = e.Kernels.build_small () in
      let rng = Util.Rng.create (seed + 1) in
      let steps = 1 + Util.Rng.int rng 6 in
      let p = ref p0 in
      for _ = 1 to steps do
        let insts = Xforms.all caps !p in
        if insts <> [] then begin
          let i = List.nth insts (Util.Rng.int rng (List.length insts)) in
          p := i.apply !p
        end
      done;
      Ir.Validate.is_valid !p
      && Interp.equivalent ~tol:1e-4 p0 !p = Ok ())

(* -------------------------------------------------------------------- *)
(* Targeted behaviour tests                                              *)
(* -------------------------------------------------------------------- *)

let find_by_name insts name =
  List.filter (fun (i : Xforms.instance) -> Moveref.xname i.move = name) insts

let split_tests =
  [
    Alcotest.test_case "split rewrites indices" `Quick (fun () ->
        let p = Kernels.relu ~n:8 ~m:4 in
        let p' = Xforms.apply_split [ 0 ] 0 4 p in
        let text = Ir.Printer.body p' in
        Alcotest.(check bool) "outer 2" true
          (String.length text > 0 && String.sub text 0 1 = "2");
        (* the statement must now reference 4*{0}+{1} *)
        Alcotest.(check bool) "remapped index" true
          (let re = "4*{0}+{1}" in
           let rec contains s sub i =
             i + String.length sub <= String.length s
             && (String.sub s i (String.length sub) = sub
                || contains s sub (i + 1))
           in
           contains text re 0);
        check_equiv "split" p p');
    Alcotest.test_case "split offered only for divisors" `Quick (fun () ->
        let p = Kernels.relu ~n:6 ~m:7 in
        let insts = find_by_name (Xforms.all caps_cpu p) "split_scope" in
        List.iter
          (fun (i : Xforms.instance) ->
            (* applying must never raise *)
            ignore (i.apply p))
          insts;
        (* size 7 is prime: no split of the inner loop may be offered *)
        Alcotest.(check bool) "no factor of 7" true
          (List.for_all
             (fun (i : Xforms.instance) ->
               match i.move with
               | Moveref.Split (0 :: _ :: _, _) -> false
               | _ -> true)
             insts));
  ]

let fusion_tests =
  [
    Alcotest.test_case "fusion legality matches Figure 5" `Quick (fun () ->
        (* two N-loops: producer then consumer; fusable *)
        let text =
          "x f32 [6] heap\nt f32 [6] heap\nz f32 [6] heap\n"
          ^ "inputs: x\noutputs: z\n" ^ "6\n| t[{0}] = x[{0}] * 2\n"
          ^ "6\n| z[{0}] = t[{0}] + 1\n"
        in
        let p = Ir.Parser.program text in
        let joins = find_by_name (Xforms.all caps_cpu p) "join_scopes" in
        Alcotest.(check int) "one fusion candidate" 1 (List.length joins);
        let p' = (List.hd joins).apply p in
        check_equiv "fused" p p';
        (* after fusion, reuse of t's dimension becomes applicable *)
        let reuses = find_by_name (Xforms.all caps_cpu p') "reuse_dims" in
        Alcotest.(check bool) "reuse offered after fusion" true
          (List.exists
             (fun (i : Xforms.instance) -> i.move = Moveref.Reuse_dims ("t", 0))
             reuses);
        let p'' =
          (List.find
             (fun (i : Xforms.instance) -> i.move = Moveref.Reuse_dims ("t", 0))
             reuses)
            .apply p'
        in
        check_equiv "fused+reused" p p'');
    Alcotest.test_case "reuse_dims NOT offered before fusion" `Quick
      (fun () ->
        let text =
          "x f32 [6] heap\nt f32 [6] heap\nz f32 [6] heap\n"
          ^ "inputs: x\noutputs: z\n" ^ "6\n| t[{0}] = x[{0}] * 2\n"
          ^ "6\n| z[{0}] = t[{0}] + 1\n"
        in
        let p = Ir.Parser.program text in
        let reuses = find_by_name (Xforms.all caps_cpu p) "reuse_dims" in
        Alcotest.(check bool) "no reuse of t" true
          (List.for_all
             (fun (i : Xforms.instance) ->
               i.move <> Moveref.Reuse_dims ("t", 0))
             reuses));
    Alcotest.test_case "fusion rejected for misaligned accesses" `Quick
      (fun () ->
        (* consumer reads t[{0}+1]: iteration i of the second loop needs a
           value the first loop produces at iteration i+1 *)
        let text =
          "x f32 [6] heap\nt f32 [7] heap\nz f32 [6] heap\n"
          ^ "inputs: x, t\noutputs: z\n" ^ "6\n| t[{0}] = x[{0}] * 2\n"
          ^ "6\n| z[{0}] = t[{0}+1] + 1\n"
        in
        let p = Ir.Parser.program text in
        let joins = find_by_name (Xforms.all caps_cpu p) "join_scopes" in
        Alcotest.(check int) "no fusion" 0 (List.length joins));
    Alcotest.test_case "fusion rejected across scalar accumulator" `Quick
      (fun () ->
        (* first loop accumulates into s, second reads s: fusing would
           expose partial sums *)
        let text =
          "x f32 [6] heap\ns f32 [1] heap\nz f32 [6] heap\n"
          ^ "inputs: x\noutputs: z\n" ^ "s[0] = 0\n"
          ^ "6\n| s[0] = s[0] + x[{0}]\n"
          ^ "6\n| z[{0}] = x[{0}] / s[0]\n"
        in
        let p = Ir.Parser.program text in
        let joins = find_by_name (Xforms.all caps_cpu p) "join_scopes" in
        Alcotest.(check int) "no fusion" 0 (List.length joins));
    Alcotest.test_case "fission undoes fusion" `Quick (fun () ->
        let p = Kernels.softmax ~n:3 ~m:4 in
        let fissions = find_by_name (Xforms.all caps_cpu p) "fission" in
        Alcotest.(check bool) "fission offered" true (fissions <> []);
        List.iter
          (fun (i : Xforms.instance) -> check_equiv "fission" p (i.apply p))
          fissions);
  ]

let interchange_tests =
  [
    Alcotest.test_case "interchange elementwise loops" `Quick (fun () ->
        let p = Kernels.relu ~n:4 ~m:6 in
        let insts = find_by_name (Xforms.all caps_cpu p) "interchange" in
        Alcotest.(check int) "offered once" 1 (List.length insts);
        let p' = (List.hd insts).apply p in
        check_equiv "interchange" p p';
        (* sizes swapped *)
        match p'.body with
        | [ Ir.Types.Scope s ] -> Alcotest.(check int) "outer is m" 6 s.size
        | _ -> Alcotest.fail "structure");
    Alcotest.test_case "interchange matmul reduction loops" `Quick (fun () ->
        (* c[i,j] += a[i,k]*b[k,j] : all three orders are valid thanks to
           commutative-reduction handling *)
        let p = Kernels.matmul ~m:3 ~k:4 ~n:5 in
        (* isolate k loop under n loop: path [0;0;1] is the k scope, but
           interchange applies to a scope whose only child is a scope;
           n's body is [init; k-loop], so first fission the n loop *)
        let fissions = find_by_name (Xforms.all caps_cpu p) "fission" in
        Alcotest.(check bool) "fission offered" true (fissions <> []);
        let p' = (List.hd fissions).apply p in
        check_equiv "fissioned matmul" p p';
        let inters = find_by_name (Xforms.all caps_cpu p') "interchange" in
        List.iter
          (fun (i : Xforms.instance) ->
            check_equiv ("interchange " ^ Xforms.describe i) p (i.apply p'))
          inters);
    Alcotest.test_case "dependent iteration blocks interchange" `Quick
      (fun () ->
        (* z[{0},{1}] = z[{0}-1,{1}] * y: loop-carried on the outer loop
           with offset: interchange must not be offered after wrapping ...
           construct directly: two nested loops where inner stmt reads the
           previous outer iteration *)
        let text =
          "y f32 [4, 4] heap\nz f32 [5, 4] heap\n"
          ^ "inputs: y, z\noutputs: z\n" ^ "4\n| 4\n"
          ^ "| | z[{0}+1,{1}] = z[{0},{1}] * y[{0},{1}]\n"
        in
        let p = Ir.Parser.program text in
        let inters = find_by_name (Xforms.all caps_cpu p) "interchange" in
        (* interchange of these two loops is actually safe: distance is
           (1, 0), carried only by the outer loop -- our conservative rule
           must reject it since indices are not lockstep *)
        Alcotest.(check int) "rejected" 0 (List.length inters));
  ]

let annotation_tests =
  [
    Alcotest.test_case "vectorize after matching split" `Quick (fun () ->
        let p = Kernels.add ~n:4 ~m:32 in
        (* split m by 8, then the inner loop is vectorizable *)
        let p' = Xforms.apply_split [ 0; 0 ] 1 8 p in
        let vecs = find_by_name (Xforms.all caps_cpu p') "vectorize" in
        Alcotest.(check bool) "offered" true (vecs <> []);
        let p'' = (List.hd vecs).apply p' in
        check_equiv "vectorized" p p'');
    Alcotest.test_case "vectorize not offered on strided access" `Quick
      (fun () ->
        (* transpose-style access: x[{1},{0}] is strided in the inner
           loop; only the loop where both accesses are contiguous may be
           vectorized *)
        let text =
          "x f32 [8, 8] heap\nz f32 [8, 8] heap\n"
          ^ "inputs: x\noutputs: z\n" ^ "8\n| 8\n"
          ^ "| | z[{0},{1}] = x[{1},{0}] + 1\n"
        in
        let p = Ir.Parser.program text in
        let vecs = find_by_name (Xforms.all caps_gpu p) "vectorize" in
        Alcotest.(check int) "none" 0 (List.length vecs));
    Alcotest.test_case "reduction loop is not parallelizable" `Quick
      (fun () ->
        let p = Kernels.vecsum ~n:8 in
        let pars = find_by_name (Xforms.all caps_cpu p) "parallelize" in
        Alcotest.(check int) "none" 0 (List.length pars));
    Alcotest.test_case "row loop of softmax is parallelizable" `Quick
      (fun () ->
        let p = Kernels.softmax ~n:4 ~m:8 in
        let pars = find_by_name (Xforms.all caps_cpu p) "parallelize" in
        Alcotest.(check bool) "offered" true
          (List.exists
             (fun (i : Xforms.instance) -> i.move = Moveref.Parallelize [ 0 ])
             pars);
        let inst =
          List.find
            (fun (i : Xforms.instance) -> i.move = Moveref.Parallelize [ 0 ])
            pars
        in
        check_equiv "parallelized" p (inst.apply p));
    Alcotest.test_case "gpu mapping discipline" `Quick (fun () ->
        let p = Kernels.add ~n:8 ~m:16 in
        let grids = find_by_name (Xforms.all caps_gpu p) "gpu_map" in
        (* only grid mappings offered initially *)
        Alcotest.(check bool) "grid offered" true
          (List.exists
             (fun (i : Xforms.instance) ->
               match i.move with Moveref.Gpu (_, "grid") -> true | _ -> false)
             grids);
        let grid =
          List.find
            (fun (i : Xforms.instance) -> i.move = Moveref.Gpu ([ 0 ], "grid"))
            grids
        in
        let p' = grid.apply p in
        check_equiv "grid" p p';
        let blocks = find_by_name (Xforms.all caps_gpu p') "gpu_map" in
        Alcotest.(check bool) "block offered under grid" true
          (List.exists
             (fun (i : Xforms.instance) ->
               match i.move with Moveref.Gpu (_, "block") -> true | _ -> false)
             blocks));
    Alcotest.test_case "unannotate reverses annotations" `Quick (fun () ->
        let p = Kernels.relu ~n:8 ~m:8 in
        let par =
          (List.find
             (fun (i : Xforms.instance) -> i.move = Moveref.Parallelize [ 0 ])
             (Xforms.all caps_cpu p))
            .apply p
        in
        let unns = find_by_name (Xforms.all caps_cpu par) "unannotate" in
        Alcotest.(check int) "one annotated scope" 1 (List.length unns);
        let back = (List.hd unns).apply par in
        Alcotest.(check bool) "round trip" true (back = p));
    Alcotest.test_case "warp mapping only inside blocks" `Quick (fun () ->
        let p = Kernels.bmm ~b:8 ~m:16 ~k:8 ~n:32 in
        let warp_insts q =
          List.filter
            (fun (i : Xforms.instance) ->
              match i.move with Moveref.Gpu (_, "warp") -> true | _ -> false)
            (Xforms.all caps_gpu q)
        in
        Alcotest.(check int) "no warp at root" 0 (List.length (warp_insts p));
        let grid =
          List.find
            (fun (i : Xforms.instance) -> i.move = Moveref.Gpu ([ 0 ], "grid"))
            (Xforms.all caps_gpu p)
        in
        let p1 = grid.apply p in
        let block =
          List.find
            (fun (i : Xforms.instance) ->
              i.move = Moveref.Gpu ([ 0; 0 ], "block"))
            (Xforms.all caps_gpu p1)
        in
        let p2 = block.apply p1 in
        let ws = warp_insts p2 in
        Alcotest.(check bool) "warp offered under block" true (ws <> []);
        List.iter
          (fun (i : Xforms.instance) ->
            check_equiv ("warp " ^ Xforms.describe i) p (i.apply p2))
          ws);
    Alcotest.test_case "pad_scope masks correctly" `Quick (fun () ->
        let p = Kernels.relu ~n:5 ~m:3 in
        let pads = find_by_name (Xforms.all caps_gpu p) "pad_scope" in
        Alcotest.(check bool) "offered" true (pads <> []);
        List.iter
          (fun (i : Xforms.instance) ->
            check_equiv ("pad " ^ Xforms.describe i) p (i.apply p))
          pads);
    Alcotest.test_case "snitch ssr then frep" `Quick (fun () ->
        let p = Kernels.dot ~n:16 in
        let ssrs = find_by_name (Xforms.all caps_snitch p) "enable_ssr" in
        Alcotest.(check bool) "ssr offered" true (ssrs <> []);
        let p' = (List.hd ssrs).apply p in
        check_equiv "ssr" p p';
        let freps = find_by_name (Xforms.all caps_snitch p') "enable_frep" in
        Alcotest.(check bool) "frep offered after ssr" true (freps <> []);
        let p'' = (List.hd freps).apply p' in
        check_equiv "frep" p p'';
        (* frep is never offered without ssr *)
        let freps0 = find_by_name (Xforms.all caps_snitch p) "enable_frep" in
        Alcotest.(check int) "no frep without ssr" 0 (List.length freps0));
  ]

let storage_tests =
  [
    Alcotest.test_case "set_storage skips io buffers" `Quick (fun () ->
        let p = Kernels.softmax ~n:3 ~m:4 in
        let insts = find_by_name (Xforms.all caps_cpu p) "set_storage" in
        Alcotest.(check bool) "some offered" true (insts <> []);
        List.iter
          (fun (i : Xforms.instance) ->
            Alcotest.(check bool)
              ("not io: " ^ Xforms.describe i)
              false
              (match i.move with
              | Moveref.Set_storage (b, _) -> b = "x" || b = "z"
              | _ -> true);
            check_equiv ("storage " ^ Xforms.describe i) p (i.apply p))
          insts);
    Alcotest.test_case "layout reorder preserves semantics" `Quick (fun () ->
        let p = Kernels.softmax ~n:3 ~m:4 in
        let insts = find_by_name (Xforms.all caps_cpu p) "reorder_buffer_dims"
        in
        Alcotest.(check bool) "offered for e" true
          (List.exists
             (fun (i : Xforms.instance) ->
               match i.move with
               | Moveref.Reorder_dims (b, _) -> b.[0] = 'e'
               | _ -> false)
             insts);
        List.iter
          (fun (i : Xforms.instance) ->
            check_equiv ("layout " ^ Xforms.describe i) p (i.apply p))
          insts);
  ]

let split_reduction_tests =
  [
    Alcotest.test_case "offered for scalar reductions only" `Quick (fun () ->
        (* vecsum's loop carries a scalar accumulator: offered *)
        let p = Kernels.vecsum ~n:16 in
        let insts = find_by_name (Xforms.all caps_cpu p) "split_reduction" in
        Alcotest.(check bool) "offered" true (insts <> []);
        List.iter
          (fun (i : Xforms.instance) ->
            check_equiv ("split_reduction " ^ Xforms.describe i) p (i.apply p))
          insts;
        (* elementwise kernels have no reduction: not offered *)
        let q = Kernels.relu ~n:16 ~m:16 in
        Alcotest.(check int) "not offered" 0
          (List.length (find_by_name (Xforms.all caps_cpu q) "split_reduction")));
    Alcotest.test_case "max reduction uses -inf identity" `Quick (fun () ->
        let text =
          "x f32 [16] heap\nz f32 [1] heap\ninputs: x\noutputs: z\n"
          ^ "z[0] = -inf\n16\n| z[0] = max(z[0], x[{0}])\n"
        in
        let p = Ir.Parser.program text in
        let insts = find_by_name (Xforms.all caps_cpu p) "split_reduction" in
        Alcotest.(check bool) "offered" true (insts <> []);
        List.iter
          (fun (i : Xforms.instance) ->
            check_equiv ("max " ^ Xforms.describe i) p (i.apply p))
          insts);
    Alcotest.test_case "partials break the dependency chain" `Quick
      (fun () ->
        (* on Snitch, dot with split_reduction + unrolled partials must
           beat the greedy (chained) version *)
        let sn = Machine.Desc.snitch_cluster in
        let p = Kernels.dot ~n:1024 in
        let g = Search.Passes.greedy caps_snitch p in
        let h = Search.Passes.heuristic caps_snitch p in
        let frac q = Machine.Snitch_sim.peak_fraction sn q in
        Alcotest.(check bool)
          (Printf.sprintf "heuristic %.3f > greedy %.3f" (frac h) (frac g))
          true
          (frac h > frac g));
    Alcotest.test_case "fresh partial buffer does not collide" `Quick
      (fun () ->
        let text =
          "x f32 [16] heap\nz f32 [1] heap\nz__part f32 [4] heap\n"
          ^ "inputs: x, z__part\noutputs: z\n" ^ "z[0] = 0\n16\n"
          ^ "| z[0] = z[0] + x[{0}]\n"
        in
        let p = Ir.Parser.program text in
        let insts = find_by_name (Xforms.all caps_cpu p) "split_reduction" in
        List.iter
          (fun (i : Xforms.instance) ->
            let p' = i.apply p in
            Ir.Validate.check_exn p';
            check_equiv "fresh name" p p')
          insts);
    Alcotest.test_case "unroll replication is bounded" `Quick (fun () ->
        (* after unrolling one 16-loop, unrolling an enclosing 16-loop
           would replicate 256x > bound: not offered *)
        let p = Kernels.relu ~n:16 ~m:16 in
        let u1 =
          List.find
            (fun (i : Xforms.instance) -> i.move = Moveref.Unroll [ 0; 0 ])
            (Xforms.all caps_cpu p)
        in
        let p' = u1.apply p in
        let remaining = find_by_name (Xforms.all caps_cpu p') "unroll" in
        Alcotest.(check bool) "outer unroll now too big" true
          (List.for_all
             (fun (i : Xforms.instance) -> i.move <> Moveref.Unroll [ 0 ])
             remaining));
  ]

let engine_tests =
  [
    Alcotest.test_case "session applies and undoes" `Quick (fun () ->
        let p = Kernels.relu ~n:4 ~m:8 in
        let s = Engine.start caps_cpu p in
        let insts = Engine.applicable s in
        ignore (Engine.apply s (List.hd insts));
        Alcotest.(check bool) "changed" true (s.current <> p);
        (match Engine.undo s with
        | Some p' -> Alcotest.(check bool) "restored" true (p' = p)
        | None -> Alcotest.fail "undo failed");
        Alcotest.(check bool) "current restored" true (s.current = p));
    Alcotest.test_case "undo_at removes middle move" `Quick (fun () ->
        (* split twice, then undo the first split while keeping the
           second: non-destructive history in action *)
        let p = Kernels.relu ~n:8 ~m:8 in
        let s = Engine.start caps_cpu p in
        let split_of m =
          List.find (fun (i : Xforms.instance) -> i.move = m)
            (Engine.applicable s)
        in
        (* first split the inner (m) loop, then the outer (n) loop; the
           outer split's location is unaffected when the first move is
           removed, so replay succeeds *)
        ignore (Engine.apply s (split_of (Moveref.Split ([ 0; 0 ], 2))));
        ignore (Engine.apply s (split_of (Moveref.Split ([ 0 ], 2))));
        let two = s.current in
        (match Engine.undo_at s 1 with
        | Some p' ->
            Alcotest.(check bool) "different from two-split state" true
              (p' <> two);
            check_equiv "after undo_at" p p'
        | None -> Alcotest.fail "undo_at failed");
        (* removing a move whose successors depended on it is refused *)
        let s2 = Engine.start caps_cpu p in
        let split2_of m =
          List.find (fun (i : Xforms.instance) -> i.move = m)
            (Engine.applicable s2)
        in
        ignore (Engine.apply s2 (split2_of (Moveref.Split ([ 0 ], 2))));
        ignore (Engine.apply s2 (split2_of (Moveref.Split ([ 0; 0; 0 ], 2))));
        Alcotest.(check bool) "dependent removal refused" true
          (Engine.undo_at s2 1 = None));
    Alcotest.test_case "replay by move names" `Quick (fun () ->
        let p = Kernels.relu ~n:4 ~m:8 in
        let s = Engine.start caps_cpu p in
        ignore (Engine.apply s (List.hd (Engine.applicable s)));
        ignore (Engine.apply s (List.hd (Engine.applicable s)));
        let names = List.map Xforms.describe (Engine.moves s) in
        match Search.Stochastic.replay_exact caps_cpu p names with
        | Ok p' -> Alcotest.(check bool) "same result" true (p' = s.current)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "undo_at refuses a later move whose path vanished"
      `Quick (fun () ->
        (* without the fission softmax has one top-level scope, so the
           split at [1,0] addresses no node: removing the fission must be
           refused, not replay the split as a no-op *)
        let e =
          List.find (fun (e : Kernels.entry) -> e.label = "softmax")
            Kernels.table3
        in
        let s = Engine.start caps_cpu (e.build ()) in
        let play name =
          match Xforms.resolve caps_cpu s.current name with
          | Some i -> ignore (Engine.apply s i)
          | None -> Alcotest.failf "%s is not offered" name
        in
        play "fission([0] at 5)";
        play "split_scope([1,0] factor 64)";
        let current = s.current and history = s.history in
        Alcotest.(check bool) "refused" true (Engine.undo_at s 1 = None);
        Alcotest.(check bool) "program unchanged" true (s.current == current);
        Alcotest.(check bool) "history unchanged" true (s.history == history));
  ]

(* -------------------------------------------------------------------- *)
(* The move vocabulary and its wire format                               *)
(* -------------------------------------------------------------------- *)

let walk_caps =
  List.map
    (fun tname -> Machine.caps (List.assoc tname Machine.Desc.known_targets))
    [ "x86"; "snitch"; "gh200" ]

(* Seeded random walks of [states] states from every kernel's root on
   every walk target: each visited state as [(caps, p, offered)], where
   [offered] is [all caps p].  The walk draws by index, so it pins the
   order of [all]. *)
let walk_states ?(composites = false) ~states entries =
  List.concat
    (List.mapi
       (fun ti caps ->
         let caps =
           if composites then Transfo.Composites.enable ~names:[ "all" ] caps
           else caps
         in
         List.concat
           (List.mapi
              (fun ki (e : Kernels.entry) ->
                let rng = Util.Rng.create ((31 * ki) + ti + 1) in
                let rec go k p acc =
                  let insts = Xforms.all caps p in
                  let acc = (caps, p, insts) :: acc in
                  if k = 1 || insts = [] then List.rev acc
                  else
                    let i =
                      List.nth insts (Util.Rng.int rng (List.length insts))
                    in
                    go (k - 1) (i.apply p) acc
                in
                go states (e.build ()) [])
              entries))
       walk_caps)

let atomic_visits =
  lazy (walk_states ~states:13 (Kernels.table3 @ Kernels.snitch_micro))

let composite_visits =
  lazy (walk_states ~composites:true ~states:3 Kernels.snitch_micro)

let offered visits = List.map (fun (_, _, insts) -> insts) (Lazy.force visits)
let atomic_walks = lazy (offered atomic_visits)
let composite_walks = lazy (offered composite_visits)

let walk_digest walks =
  Digest.to_hex
    (Digest.string
       (String.concat "\n\n"
          (List.map
             (fun insts -> String.concat "\n" (List.map Xforms.describe insts))
             walks)))

(* [lookup]'s rule spelled out: the oracle the parse-once lookup must
   reproduce. *)
let lookup_oracle ~filter insts name =
  List.find_opt
    (fun (i : Xforms.instance) -> filter i && Xforms.describe i = name)
    insts

(* Spellings that [Moveref.of_describe] may accept but that are not
   canonical: a doubled space, ["[0, 4]"], ["[ 0]"]. *)
let respellings d =
  List.filter_map
    (fun (c, by) ->
      Option.map
        (fun k ->
          String.sub d 0 k ^ by
          ^ String.sub d (k + 1) (String.length d - k - 1))
        (String.index_opt d c))
    [ (' ', "  "); (',', ", "); ('[', "[ ") ]

(* Every composite macro-move offered along the composite walks. *)
let composite_moves =
  lazy
    (Array.of_list
       (List.concat_map
          (List.filter
              (fun (i : Xforms.instance) ->
                match i.move with Moveref.Composite _ -> true | _ -> false))
          (Lazy.force composite_walks)))

let lookup_filters =
  [|
    (fun (_ : Xforms.instance) -> true);
    (fun (i : Xforms.instance) ->
      match i.move with Moveref.Split _ -> false | _ -> true);
    (fun (i : Xforms.instance) -> Hashtbl.hash (Xforms.describe i) mod 2 = 0);
  |]

let qcheck_lookup =
  let states =
    lazy
      (Array.of_list (Lazy.force atomic_walks @ Lazy.force composite_walks))
  in
  let composites = composite_moves and filters = lookup_filters in
  QCheck.Test.make ~count:500
    ~name:"lookup is the first filtered instance with that describe"
    QCheck.(
      quad (int_bound 100_000) (int_bound 100_000) (int_bound 10_000)
        (int_bound 2))
    (fun (si, oi, k, fi) ->
      let states = Lazy.force states and composites = Lazy.force composites in
      let nth l = Xforms.describe (List.nth l (k mod List.length l)) in
      let insts = states.(si mod Array.length states) in
      let others = states.(oi mod Array.length states) in
      let own = if insts = [] then [] else [ nth insts ] in
      let names =
        own
        @ (if others = [] then [] else [ nth others ])
        @ [ Xforms.describe composites.(k mod Array.length composites) ]
      in
      let filter = filters.(fi) in
      let same a b =
        match (a, b) with
        | Some a, Some b -> a == b
        | None, None -> true
        | _ -> false
      in
      List.for_all
        (fun name ->
          same
            (Xforms.lookup ~filter insts name)
            (lookup_oracle ~filter insts name))
        names
      && List.for_all
           (fun name -> Option.is_none (Xforms.lookup insts name))
           (List.concat_map respellings own))

(* [resolve] checks the move's own site; the oracle, [lookup] over
   [all], runs every finder (so a finder that raised on a walk state
   fails here too).  Names come from the state, from another state
   (mostly inapplicable), from composites (which an atomic-only state
   never offers) and as non-canonical respellings. *)
let qcheck_resolve =
  let visits =
    lazy
      (Array.of_list (Lazy.force atomic_visits @ Lazy.force composite_visits))
  in
  QCheck.Test.make ~count:500 ~name:"resolve finds what lookup over all finds"
    QCheck.(
      quad (int_bound 100_000) (int_bound 100_000) (int_bound 10_000)
        (int_bound 2))
    (fun (si, oi, k, fi) ->
      let visits = Lazy.force visits
      and composites = Lazy.force composite_moves in
      let nth l = Xforms.describe (List.nth l (k mod List.length l)) in
      let caps, p, insts = visits.(si mod Array.length visits) in
      let _, _, others = visits.(oi mod Array.length visits) in
      let own = if insts = [] then [] else [ nth insts ] in
      let names =
        own
        @ (if others = [] then [] else [ nth others ])
        @ [ Xforms.describe composites.(k mod Array.length composites) ]
        @ List.concat_map respellings own
      in
      let filter = lookup_filters.(fi) in
      let move = Option.map (fun (i : Xforms.instance) -> i.move) in
      let program =
        Option.map (fun (i : Xforms.instance) ->
            Ir.Printer.program (i.apply p))
      in
      List.for_all
        (fun name ->
          let r = Xforms.resolve ~filter caps p name
          and l = Xforms.lookup ~filter (Xforms.all caps p) name in
          move r = move l && program r = program l)
        names)

(* The law at anchors no finder visits.  Each drawn move is re-anchored:
   a path-anchored or sibling move to a sibling, the parent, a child, an
   out-of-range last or inner index, a negative last or inner index and
   [[]]; a buffer move to every other buffer, an unknown buffer, and a
   dimension of -1, the rank and beyond.  Most copies name no offered
   move, so [resolve] must refuse them exactly as [lookup] over [all]
   does (and raise nothing); the rest must find the same move and
   program. *)
let reanchored (p : Ir.Prog.t) (m : Moveref.t) : Moveref.t list =
  let paths q =
    let last = List.length q - 1 in
    let set k v = List.mapi (fun j x -> if j = k then v else x) q in
    let parent = List.filteri (fun j _ -> j < last) q in
    [ []; parent; q @ [ 0 ]; set last (List.nth q last + 1);
      set last (List.nth q last - 1); set last 1000; set last (-1);
      (if last > 0 then set 0 1000 else 1000 :: q);
      (if last > 0 then set 0 (-1) else -1 :: q) ]
  in
  let rank b =
    match
      List.find_opt (fun (x : Ir.Types.buffer) -> x.bname = b) p.buffers
    with
    | Some x -> List.length x.shape
    | None -> 0
  in
  (* the other buffers and an unknown one; dimensions out of range *)
  let buffers b =
    let others =
      List.filter_map
        (fun (x : Ir.Types.buffer) ->
          if x.bname = b then None else Some x.bname)
        p.buffers
    in
    let rank = rank b in
    (others @ [ "no_such_buffer" ], [ -1; rank - 1; rank; rank + 1 ])
  in
  match m with
  | Split (q, f) -> List.map (fun q -> Moveref.Split (q, f)) (paths q)
  | Join q -> List.map (fun q -> Moveref.Join q) (paths q)
  | Fission (q, k) ->
      List.map (fun q -> Moveref.Fission (q, k)) (paths q)
      @ [ Fission (q, 0); Fission (q, -1); Fission (q, 1000) ]
  | Interchange q -> List.map (fun q -> Moveref.Interchange q) (paths q)
  | Reorder q -> List.map (fun q -> Moveref.Reorder q) (paths q)
  | Unroll q -> List.map (fun q -> Moveref.Unroll q) (paths q)
  | Vectorize q -> List.map (fun q -> Moveref.Vectorize q) (paths q)
  | Parallelize q -> List.map (fun q -> Moveref.Parallelize q) (paths q)
  | Gpu (q, dim) -> List.map (fun q -> Moveref.Gpu (q, dim)) (paths q)
  | Pad (q, k) -> List.map (fun q -> Moveref.Pad (q, k)) (paths q)
  | Unannotate q -> List.map (fun q -> Moveref.Unannotate q) (paths q)
  | Ssr q -> List.map (fun q -> Moveref.Ssr q) (paths q)
  | Frep q -> List.map (fun q -> Moveref.Frep q) (paths q)
  | Split_reduction (q, k) ->
      List.map (fun q -> Moveref.Split_reduction (q, k)) (paths q)
  | Reuse_dims (b, d) ->
      let names, dims = buffers b in
      List.map (fun n -> Moveref.Reuse_dims (n, d)) names
      @ List.map (fun d -> Moveref.Reuse_dims (b, d)) dims
  | Set_storage (b, loc) ->
      let names, _ = buffers b in
      List.map (fun n -> Moveref.Set_storage (n, loc)) names
  | Reorder_dims (b, i) ->
      let names, dims = buffers b in
      List.map (fun n -> Moveref.Reorder_dims (n, i)) names
      @ List.map (fun i -> Moveref.Reorder_dims (b, i)) dims
  | Composite _ -> []

(* Every offered atomic move of the walks, grouped by transformation:
   each draw takes one move of every family. *)
let moves_by_family =
  lazy
    (let tbl = Hashtbl.create 17 in
     List.iter
       (fun (caps, p, (insts : Xforms.instance list)) ->
         List.iter
           (fun (i : Xforms.instance) ->
             let x = Moveref.xname i.move in
             Hashtbl.replace tbl x
               ((caps, p, insts, i.move)
               :: Option.value ~default:[] (Hashtbl.find_opt tbl x)))
           insts)
       (Lazy.force atomic_visits);
     Hashtbl.fold (fun x ms acc -> (x, Array.of_list ms) :: acc) tbl []
     |> List.sort (fun (x, _) (y, _) -> String.compare x y))

let qcheck_reanchored =
  QCheck.Test.make ~count:100
    ~name:"resolve refuses re-anchored moves exactly like lookup over all"
    QCheck.(pair (int_bound 100_000) (int_bound 2))
    (fun (k, fi) ->
      let families = Lazy.force moves_by_family in
      if List.length families <> 17 then
        QCheck.Test.fail_reportf "the walks offer %d families: %s"
          (List.length families) (String.concat ", " (List.map fst families));
      let filter = lookup_filters.(fi) in
      let move = Option.map (fun (i : Xforms.instance) -> i.move) in
      List.for_all
        (fun (_, ms) ->
          let caps, p, insts, m = ms.(k mod Array.length ms) in
          let program =
            Option.map (fun (i : Xforms.instance) ->
                Ir.Printer.program (i.apply p))
          in
          List.for_all
            (fun m' ->
              let name = Moveref.describe m' in
              let r = Xforms.resolve_move ~filter caps p m'
              and l = Xforms.lookup ~filter insts name in
              (move r = move l && program r = program l)
              || QCheck.Test.fail_reportf "%s: resolve %s, lookup %s" name
                   (Option.fold ~none:"None" ~some:Xforms.describe r)
                   (Option.fold ~none:"None" ~some:Xforms.describe l))
            (m :: reanchored p m))
        families)

(* The law across targets.  Every atomic move offered on one walk
   target's states is resolved under each other target's caps on the
   same program, and must agree with [lookup] over [all] under those
   caps.  The law tests above re-resolve only under the caps that
   offered the move; here a family the other caps switch off (gh200's
   gpu_map under x86, x86's parallelize under snitch, snitch's ssr under
   gh200) must resolve to nothing, as [all] offers nothing of it. *)
let cross_target_resolve () =
  let refused = Hashtbl.create 8 in
  List.iter
    (fun (caps, p, insts) ->
      List.iter
        (fun other ->
          (* the walk hands each state its target's own caps value *)
          if other != caps then begin
            let offered = Xforms.all other p in
            let move = Option.map (fun (i : Xforms.instance) -> i.move) in
            let program =
              Option.map (fun (i : Xforms.instance) ->
                  Ir.Prog.digest (i.apply p))
            in
            List.iter
              (fun (i : Xforms.instance) ->
                let name = Xforms.describe i in
                let r = Xforms.resolve_move other p i.move
                and l = Xforms.lookup offered name in
                if move r <> move l || program r <> program l then
                  Alcotest.failf "%s: resolve %s, lookup %s" name
                    (Option.fold ~none:"None" ~some:Xforms.describe r)
                    (Option.fold ~none:"None" ~some:Xforms.describe l);
                if Option.is_none l then
                  Hashtbl.replace refused (Moveref.xname i.move) ())
              insts
          end)
        walk_caps)
    (Lazy.force atomic_visits);
  (* every family some target switches off is refused somewhere *)
  List.iter
    (fun x ->
      if not (Hashtbl.mem refused x) then
        Alcotest.failf "no %s move was refused under another target" x)
    [ "gpu_map"; "parallelize"; "vectorize"; "split_reduction"; "enable_ssr";
      "enable_frep" ]

(* -------------------------------------------------------------------- *)
(* Dependence checks against the earlier rules                           *)
(* -------------------------------------------------------------------- *)

(* The program with two non-interface buffers of one dtype and shape
   merged into one buffer that lists both arrays, so that those arrays
   alias; [None] when it has no such pair.  No kernel aliases arrays, so
   only this variant reaches an alias class of two arrays. *)
let aliased (p : Ir.Prog.t) : Ir.Prog.t option =
  let io (b : Ir.Types.buffer) =
    List.exists (fun a -> List.mem a p.inputs || List.mem a p.outputs) b.arrays
  in
  let rec pick = function
    | [] -> None
    | (b1 : Ir.Types.buffer) :: rest -> (
        match
          List.find_opt
            (fun (b2 : Ir.Types.buffer) ->
              b2.dtype = b1.dtype && b2.shape = b1.shape)
            rest
        with
        | Some b2 -> Some (b1, b2)
        | None -> pick rest)
  in
  Option.map
    (fun ((b1 : Ir.Types.buffer), (b2 : Ir.Types.buffer)) ->
      let merge (b : Ir.Types.buffer) =
        if b == b1 then Some { b1 with arrays = b1.arrays @ b2.arrays }
        else if b == b2 then None
        else Some b
      in
      { p with buffers = List.filter_map merge p.buffers })
    (pick (List.filter (fun b -> not (io b)) p.buffers))

(* Every dependence check at every site of a program, as (site, live
   check, oracle check): [parallel_safe] and [parallel_reduction_safe]
   at every scope, [interchange_safe] at every single-child scope,
   [fission_safe] at every split point, [nodes_independent] at every
   adjacent sibling pair in both orders (a consumer before its producer
   is an anti-dependence that no kernel's own order shows), [fusion_safe]
   at every adjacent scope pair and
   [reuse_safe] at every buffer dimension (and one past each end). *)
let dep_checks (p : Ir.Prog.t) : (string * (unit -> bool) * (unit -> bool)) list
    =
  let open Ir.Types in
  let checks = ref [] in
  let add site live oracle = checks := (site, live, oracle) :: !checks in
  let siblings parent depth body =
    let arr = Array.of_list body in
    for i = 0 to Array.length arr - 2 do
      let site = Printf.sprintf "%s %d" (Target.path_str parent) i in
      let n1 = arr.(i) and n2 = arr.(i + 1) in
      add ("nodes_independent " ^ site)
        (fun () -> Dep.nodes_independent p n1 n2)
        (fun () -> Dep_oracle.nodes_independent p n1 n2);
      add ("nodes_independent swapped " ^ site)
        (fun () -> Dep.nodes_independent p n2 n1)
        (fun () -> Dep_oracle.nodes_independent p n2 n1);
      match (n1, n2) with
      | Scope s1, Scope s2 ->
          add ("fusion_safe " ^ site)
            (fun () -> Dep.fusion_safe p ~depth s1.body s2.body)
            (fun () -> Dep_oracle.fusion_safe p ~depth s1.body s2.body)
      | _ -> ()
    done
  in
  siblings [] 0 p.body;
  Ir.Prog.iter_nodes
    (fun path node ->
      match node with
      | Stmt _ -> ()
      | Scope sc ->
          let depth = List.length path - 1 and site = Target.path_str path in
          siblings path (depth + 1) sc.body;
          add ("parallel_safe " ^ site)
            (fun () -> Dep.parallel_safe p ~depth sc.body)
            (fun () -> Dep_oracle.parallel_safe p ~depth sc.body);
          add ("parallel_reduction_safe " ^ site)
            (fun () -> Dep.parallel_reduction_safe p ~depth sc.body)
            (fun () -> Dep_oracle.parallel_reduction_safe p ~depth sc.body);
          (match sc.body with
          | [ Scope inner ] ->
              add ("interchange_safe " ^ site)
                (fun () -> Dep.interchange_safe p ~depth inner.body)
                (fun () -> Dep_oracle.interchange_safe p ~depth inner.body)
          | _ -> ());
          List.iteri
            (fun k _ ->
              if k > 0 then begin
                let part1 = List.filteri (fun j _ -> j < k) sc.body
                and part2 = List.filteri (fun j _ -> j >= k) sc.body in
                add (Printf.sprintf "fission_safe %s at %d" site k)
                  (fun () -> Dep.fission_safe p ~depth part1 part2)
                  (fun () -> Dep_oracle.fission_safe p ~depth part1 part2)
              end)
            sc.body)
    p;
  List.iter
    (fun (b : buffer) ->
      for dim = -1 to List.length b.shape do
        add (Printf.sprintf "reuse_safe %s %d" b.bname dim)
          (fun () -> Dep.reuse_safe p b ~dim)
          (fun () -> Dep_oracle.reuse_safe p b ~dim)
      done)
    p.buffers;
  List.rev !checks

let outcome f =
  match f () with b -> Ok b | exception e -> Error (Printexc.to_string e)

(* The checks of [p] on which the live rules and the oracle disagree. *)
let dep_disagreements p =
  List.filter_map
    (fun (site, live, oracle) ->
      if outcome live = outcome oracle then None else Some site)
    (dep_checks p)

let dep_entries = Array.of_list (Kernels.table3 @ Kernels.snitch_micro)

let qcheck_dep_oracle =
  QCheck.Test.make ~count:100
    ~name:"every dependence check decides what the earlier rules decide"
    QCheck.(
      triple
        (int_bound (Array.length dep_entries - 1))
        (int_bound (List.length walk_caps - 1))
        small_int)
    (fun (ki, ti, seed) ->
      let e = dep_entries.(ki) and caps = List.nth walk_caps ti in
      let rng = Util.Rng.create (seed + 1) in
      let rec go k p =
        let states = p :: Option.to_list (aliased p) in
        List.iter
          (fun q ->
            match dep_disagreements q with
            | [] -> ()
            | sites ->
                QCheck.Test.fail_reportf "%s: %s on\n%s" e.label
                  (String.concat ", " sites) (Ir.Printer.program q))
          states;
        let insts = Xforms.all caps p in
        if k > 0 && insts <> [] then
          go (k - 1)
            ((List.nth insts (Util.Rng.int rng (List.length insts))).apply p)
      in
      go (Util.Rng.int rng 9) (e.build ());
      true)

let dep_tests =
  [
    QCheck_alcotest.to_alcotest qcheck_dep_oracle;
    Alcotest.test_case "the aliased variant changes some decisions" `Quick
      (fun () ->
        (* without this the oracle property could pass on variants whose
           merged arrays never meet in one check *)
        let decisions p =
          List.map (fun (site, live, _) -> (site, outcome live)) (dep_checks p)
        in
        let changed =
          List.filter
            (fun (e : Kernels.entry) ->
              let p = e.build () in
              match aliased p with
              | None -> false
              | Some q ->
                  let before = decisions p in
                  List.exists
                    (fun (site, d) ->
                      match List.assoc_opt site before with
                      | Some d' -> d <> d'
                      | None -> false)
                    (decisions q))
            (Array.to_list dep_entries)
        in
        Alcotest.(check bool) "some kernel's checks see the alias" true
          (changed <> []));
  ]

let move_tests =
  [
    Alcotest.test_case "offered move lists are byte-identical" `Quick
      (fun () ->
        Alcotest.(check string) "atomic walks"
          "2ccaf60aa02cfc6978b2168e1a888023"
          (walk_digest (Lazy.force atomic_walks));
        Alcotest.(check string) "composite walks"
          "b32a45886479af029a5785ab142b9bc7"
          (walk_digest (Lazy.force composite_walks)));
    Alcotest.test_case "every offered move round-trips its describe" `Quick
      (fun () ->
        List.iter
          (List.iter
              (fun (i : Xforms.instance) ->
                if Moveref.of_describe (Xforms.describe i) <> Some i.move then
                  Alcotest.failf "%s does not parse back" (Xforms.describe i)))
          (Lazy.force atomic_walks @ Lazy.force composite_walks));
    QCheck_alcotest.to_alcotest qcheck_lookup;
    QCheck_alcotest.to_alcotest qcheck_resolve;
    Alcotest.test_case "an atomic script statement expands to its own move"
      `Quick (fun () ->
        (* the script surface of a move ([split(factor=16)] at its
           anchor) resolves through Composites.find_atomic: it must find
           exactly the offered atomic move, never a macro-move *)
        List.iter
          (fun (caps, p, insts) ->
            List.iter
              (fun (i : Xforms.instance) ->
                let anchor, sname, args = Moveref.script_stmt i.move in
                let expanded =
                  Result.bind (Transfo.Composites.resolve sname args)
                    (fun (t : Engine.transfo) ->
                      t.expand caps p ~anchor:(Option.value anchor ~default:[]))
                in
                match expanded with
                | Ok [ j ] when j.move = i.move -> ()
                | Ok js ->
                    Alcotest.failf "%s expands to [%s]" (Xforms.describe i)
                      (String.concat "; " (List.map Xforms.describe js))
                | Error e -> Alcotest.failf "%s: %s" (Xforms.describe i) e)
              insts)
          (Lazy.force atomic_visits));
    QCheck_alcotest.to_alcotest qcheck_reanchored;
    Alcotest.test_case
      "a move resolves to nothing under caps that switch its family off"
      `Quick cross_target_resolve;
  ]

let () =
  Alcotest.run "transform"
    [
      ("moves", move_tests);
      ("dep", dep_tests);
      ("one-step-exhaustive", one_step_suites);
      ("split", split_tests);
      ("fusion", fusion_tests);
      ("interchange", interchange_tests);
      ("annotations", annotation_tests);
      ("storage", storage_tests);
      ("split-reduction", split_reduction_tests);
      ("engine", engine_tests);
      ( "qcheck",
        [
          QCheck_alcotest.to_alcotest (qcheck_random_walk caps_cpu "cpu");
          QCheck_alcotest.to_alcotest (qcheck_random_walk caps_gpu "gpu");
          QCheck_alcotest.to_alcotest (qcheck_random_walk caps_snitch "snitch");
        ] );
    ]
