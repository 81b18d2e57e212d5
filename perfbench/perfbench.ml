(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the workload's end-to-end metrics with tracing
   off; --trace 1 runs the same work untraced once and then through the
   traced twins, and reports the per-layer ledger.  The last stdout
   line is the JSON result.  See RATIONALE.md. *)

open Harness

let workloads =
  [
    ("certify_micro", (Certify.measure, Certify.trace));
    ("libgen_suite", (Libgen_suite.measure, Libgen_suite.trace));
    ("serve_zipf", (Serve_zipf.measure, Serve_zipf.trace));
  ]

(* Every layer entry point a twin spans, on any workload: each traced
   run reports all of them (zero calls off its path). *)
let layers =
  [
    "transform.all";
    "transform.lookup";
    "transform.apply";
    "canon.fingerprint";
    "machine.time.x86";
    "machine.time.snitch";
    "machine.time.gh200";
    "tuning.cache";
    "tuning.record_of";
    "tuning.db_load";
    "tuning.db_query";
    "tuning.root_keys";
    "tuning.db_save";
    "codegen.program";
    "serve.protocol";
    "serve.frame";
    "serve.submit.optimize";
    "serve.submit.query";
    "serve.submit.generate";
    "recover.journal";
  ]

(* Workload-specific ledger entries, zero where a workload has none. *)
let extra_layer_metrics =
  [ ("canon.unique_ratio", "ratio"); ("tuning.cache.hit_ratio", "ratio") ]

let min_coverage = 0.90

let traced_outcome (t : traced) =
  let per_layer, coverage = Spans.layer_metrics ~layers ~wall_s:t.traced_s in
  let untraced, traced = t.same_work_s in
  if coverage < min_coverage then
    failwith
      (Printf.sprintf "trace coverage %.3f is below %.2f" coverage min_coverage);
  let extra =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (m : metric) -> m.name = name) t.extra with
        | Some m -> m
        | None -> metric name unit_ 0.)
      extra_layer_metrics
  in
  {
    attempted = t.ops;
    failed = t.mismatched;
    metrics =
      per_layer @ extra
      @ [
          metric "search.failures" "count" (float_of_int t.failures);
          metric "trace.coverage" "ratio" coverage;
          metric "trace.overhead" "ratio" ((traced /. untraced) -. 1.);
        ];
    notes =
      [
        ("twin ops reproduced", Printf.sprintf "%d of %d" (t.ops - t.mismatched) t.ops);
        ("traced wall", Printf.sprintf "%.3f s" t.traced_s);
        ("same work untraced / traced", Printf.sprintf "%.3f s / %.3f s" untraced traced);
      ];
  }

let usage () =
  prerr_endline
    "usage: perfbench --workload certify_micro|libgen_suite|serve_zipf --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := int_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := int_of_string v;
        parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let measure, traced =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let code =
    match
      mkdir_p run_dir;
      if !trace = 0 then measure ~seed:!seed ~seconds:(float_of_int !seconds)
      else traced_outcome (traced ~seed:!seed)
    with
    | outcome ->
        report outcome;
        0
    | exception Nondeterministic msg ->
        Printf.eprintf "perfbench: nondeterministic results: %s\n" msg;
        3
    | exception e ->
        Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
        1
  in
  rm_rf run_dir;
  exit code
