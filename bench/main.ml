(* Benchmark / experiment driver.

   `dune exec bench/main.exe`                runs every experiment
   `dune exec bench/main.exe -- fig7 fig8`   runs a subset
   `dune exec bench/main.exe -- tuning --db tune.jsonl`
                                             tuning-database trajectory
                                             against a persistent store

   The tuning experiment writes a machine-readable BENCH_tuning.json
   (cache hit rates, evals saved, best runtimes).

   Environment: PERFDOJO_BUDGET (search evaluations per kernel, default
   300; the paper uses 1000), PERFDOJO_RL_EPISODES (default 14).
   Per-layer costs of the tooling: `perfbench/run.sh --trace 1`. *)

(* Strip `--db FILE` and `--fault-rate R` from the argument list,
   routing them to the tuning / fault-tolerance experiments. *)
let rec extract_db = function
  | [] -> []
  | "--db" :: file :: rest ->
      Experiments.tuning_db_file := Some file;
      extract_db rest
  | "--fault-rate" :: rate :: rest ->
      (match float_of_string_opt rate with
      | Some r when r >= 0. && r <= 1. -> Experiments.fault_rate := r
      | _ ->
          Printf.eprintf "ignoring --fault-rate %S (want a float in [0,1])\n"
            rate);
      extract_db rest
  | arg :: rest -> arg :: extract_db rest

let () =
  let args = Array.to_list Sys.argv |> List.tl |> extract_db in
  let t0 = Sys.time () in
  (* Per-experiment wall-clock spans, written as a JSONL sidecar so a
     bench run leaves a machine-readable account of where its time
     went. *)
  let trace = Obs.Trace.make_buffer () in
  let timed name f = Obs.Span.run ~trace ("experiment." ^ name) f in
  (match args with
  | [] -> List.iter (fun (name, f) -> timed name f) Experiments.all
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name Experiments.all with
          | Some f -> timed name f
          | None ->
              Printf.eprintf "unknown experiment %S; available: %s\n" name
                (String.concat ", " (List.map fst Experiments.all)))
        names);
  let oc = open_out "BENCH_trace.jsonl" in
  List.iter
    (fun ev ->
      output_string oc (Util.Json.to_string ev);
      output_char oc '\n')
    (Obs.Trace.events trace);
  close_out oc;
  print_endline "wrote BENCH_trace.jsonl";
  Printf.printf "\n[bench completed in %.1f s CPU]\n" (Sys.time () -. t0)
