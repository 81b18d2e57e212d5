(* Tests for the framework baselines: every policy must produce valid,
   semantics-preserving schedules, and the modelled behaviours the paper
   attributes to each framework must hold. *)

module Desc = Machine.Desc

let x86 = Desc.Cpu Desc.xeon_e5_2695v4
let gh = Desc.Gpu Desc.gh200
let snitch = Desc.Snitch Desc.snitch_cluster

let check_schedule label reference (s : Baselines.scheduled) =
  (match Ir.Validate.check s.prog with
  | [] -> ()
  | errs ->
      Alcotest.failf "%s/%s invalid: %s" s.framework label
        (String.concat "; " (List.map Ir.Validate.error_to_string errs)));
  match Interp.equivalent ~tol:1e-4 reference s.prog with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s/%s: %s" s.framework label e

let semantics_tests =
  let schedules target =
    [
      ("pytorch", fun ~label:_ p -> Baselines.pytorch target p);
      ("jax", fun ~label:_ p -> Baselines.jax target p);
      ("onnxruntime", fun ~label:_ p -> Baselines.onnxruntime target p);
      ("onednn", fun ~label:_ p -> Baselines.onednn target p);
      ("pluto", fun ~label p -> Baselines.pluto ~label target p);
      ("tvm", fun ~label p -> Baselines.tvm ~budget:30 ~label target p);
    ]
  in
  List.concat_map
    (fun (tname, target) ->
      List.map
        (fun (fname, sched) ->
          Alcotest.test_case
            (Printf.sprintf "%s schedules are valid on %s" fname tname)
            `Quick
            (fun () ->
              List.iter
                (fun (e : Kernels.entry) ->
                  let p = e.build_small () in
                  check_schedule e.label p (sched ~label:e.label p))
                [
                  Kernels.find_entry Kernels.table3 "softmax";
                  Kernels.find_entry Kernels.table3 "mul";
                  Kernels.find_entry Kernels.table3 "matmul";
                ]))
        (schedules target))
    [ ("x86", x86); ("gh200", gh) ]

let behaviour_tests =
  [
    Alcotest.test_case "pytorch does not fuse across operators" `Quick
      (fun () ->
        let p = Kernels.softmax ~n:512 ~m:128 in
        let s = Baselines.pytorch x86 p in
        Alcotest.(check int) "dispatch per nest" 1 s.dispatches;
        (* softmax body is one outer nest: count stays 1; swiglu has 3 *)
        let sw = Baselines.pytorch x86 (Kernels.swiglu ~m:16 ~k:16 ~n:16) in
        Alcotest.(check int) "three dispatches" 3 sw.dispatches);
    Alcotest.test_case "jax fuses elementwise chains" `Quick (fun () ->
        (* two chained elementwise nests collapse to one dispatch *)
        let text =
          "x f32 [64] heap\nt f32 [64] heap\nz f32 [64] heap\n"
          ^ "inputs: x\noutputs: z\n64\n| t[{0}] = x[{0}] * 2\n"
          ^ "64\n| z[{0}] = t[{0}] + 1\n"
        in
        let p = Ir.Parser.program text in
        Alcotest.(check int) "pytorch: 2" 2 (Baselines.pytorch x86 p).dispatches;
        Alcotest.(check int) "jax: 1" 1 (Baselines.jax x86 p).dispatches);
    Alcotest.test_case "tvm fails deterministically on batchnorm/swiglu"
      `Quick (fun () ->
        List.iter
          (fun label ->
            let e = Kernels.find_entry Kernels.table3 label in
            let s = Baselines.tvm ~budget:10 ~label gh (e.build_small ()) in
            Alcotest.(check bool)
              (label ^ " has no valid schedule")
              true
              (s.verdict = Baselines.No_valid_schedule))
          [ "batchnorm 2"; "swiglu" ];
        (* determinism *)
        let v1 = (Baselines.tvm ~budget:10 ~label:"swiglu" gh
                    (Kernels.swiglu ~m:4 ~k:4 ~n:4)).verdict in
        let v2 = (Baselines.tvm ~budget:10 ~label:"swiglu" gh
                    (Kernels.swiglu ~m:4 ~k:4 ~n:4)).verdict in
        Alcotest.(check bool) "deterministic" true (v1 = v2));
    Alcotest.test_case "tvm template excludes storage moves" `Quick
      (fun () ->
        let caps = Machine.caps x86 in
        let p = Kernels.softmax ~n:8 ~m:8 in
        List.iter
          (fun (i : Transform.Xforms.instance) ->
            if Baselines.tvm_template i then
              Alcotest.(check bool)
                (Transform.Moveref.xname i.move ^ " allowed")
                false
                (List.mem (Transform.Moveref.xname i.move)
                   [ "set_storage"; "reuse_dims"; "reorder_buffer_dims";
                     "pad_scope"; "enable_ssr"; "enable_frep" ]))
          (Transform.Xforms.all caps p));
    Alcotest.test_case "pluto flags layernorm as invalid" `Quick (fun () ->
        let e = Kernels.find_entry Kernels.table3 "layernorm 1" in
        let s = Baselines.pluto ~label:"layernorm 1" x86 (e.build_small ()) in
        Alcotest.(check bool) "failed validation" true
          (s.verdict = Baselines.Failed_validation);
        let s2 = Baselines.pluto ~label:"matmul" x86
            (Kernels.matmul ~m:4 ~k:4 ~n:4) in
        Alcotest.(check bool) "matmul fine" true (s2.verdict = Baselines.Valid));
    Alcotest.test_case "handwritten snitch uses the extensions" `Quick
      (fun () ->
        let caps = Machine.caps snitch in
        let s = Baselines.handwritten_snitch caps (Kernels.scale ~n:256) in
        let has_ssr =
          Ir.Prog.fold_nodes
            (fun acc _ n ->
              acc
              ||
              match n with Ir.Types.Scope sc -> sc.ssr | Ir.Types.Stmt _ -> false)
            false s.prog
        in
        Alcotest.(check bool) "ssr used" true has_ssr;
        check_schedule "scale" (Kernels.scale ~n:256) s);
    Alcotest.test_case "dispatch overhead charged per extra kernel" `Quick
      (fun () ->
        let p = Kernels.swiglu ~m:16 ~k:16 ~n:16 in
        let s = Baselines.pytorch x86 p in
        let base = Machine.time x86 s.prog in
        let total = Baselines.time x86 s in
        Alcotest.(check bool) "overhead added" true (total > base));
  ]

(* Every deterministic pass and baseline schedule, on every kernel and
   three targets: one digest of the printed schedules per producer, so
   a change in how any of them picks its moves shows here. *)
let golden_schedules =
  let pass f ~label:_ _ caps p = f caps p in
  let sched f ~label:_ target _ p = (f target p : Baselines.scheduled).prog in
  [
    ("naive", "96e2dee8e5ea69c4d4557ab577caa99f", pass Search.Passes.naive);
    ("greedy", "4c67ca0235d1b6b0671acf6046be4fea", pass Search.Passes.greedy);
    ( "heuristic",
      "acf49a0a83de932063d5a4006cc66e3b",
      pass Search.Passes.heuristic );
    ( "cpu_heuristic",
      "19dba800817e25e99d55ca6c2c8dc4a1",
      pass (fun caps p -> Search.Passes.cpu_heuristic caps p) );
    ( "gpu_heuristic",
      "a4c82897a2c9d88a41d4fe13b5da0723",
      pass (fun caps p -> Search.Passes.gpu_heuristic caps p) );
    ( "gpu_heuristic ~score",
      "c87c805b7746e510ed523f306873af98",
      fun ~label:_ target caps p ->
        Search.Passes.gpu_heuristic ~score:(Machine.time target) caps p );
    ("pytorch", "292b9804098e706651313656c37e35b6", sched Baselines.pytorch);
    ("jax", "780a1b4d13eb2f2ff838c8c347c929f4", sched Baselines.jax);
    ( "onnxruntime",
      "501c04bae373ce32c998779bf1612638",
      sched Baselines.onnxruntime );
    ("onednn", "19dba800817e25e99d55ca6c2c8dc4a1", sched Baselines.onednn);
    ( "pluto",
      "face16b421f8ba1069dfbf3328a7de4a",
      fun ~label target _ p -> (Baselines.pluto ~label target p).prog );
    ( "tvm",
      "eb1397eff247caa1111fb80e3bdff098",
      fun ~label target _ p -> (Baselines.tvm ~budget:24 ~label target p).prog
    );
    ( "handwritten_snitch",
      "9ed43661b6080417583adda7fd2988bf",
      fun ~label:_ _ caps p -> (Baselines.handwritten_snitch caps p).prog );
  ]

let schedule_digest produce =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.concat_map
             (fun target ->
               let caps = Machine.caps target in
               List.map
                 (fun (e : Kernels.entry) ->
                   Ir.Printer.program
                     (produce ~label:e.label target caps (e.build ())))
                 (Kernels.table3 @ Kernels.snitch_micro))
             [ x86; snitch; gh ])))

let golden_tests =
  [
    Alcotest.test_case "every pass and baseline schedule is unchanged" `Quick
      (fun () ->
        List.iter
          (fun (name, digest, produce) ->
            Alcotest.(check string) name digest (schedule_digest produce))
          golden_schedules);
  ]

let () =
  Alcotest.run "baselines"
    [
      ("semantics", semantics_tests);
      ("behaviour", behaviour_tests);
      ("golden", golden_tests);
    ]
