(* certify_micro: exhaustive certification of the Snitch micro-kernels.

   What `perfdojo optimize -s exhaustive` runs: Search.Exhaustive.run
   with the bare cost model as objective, for the 8 micro-kernels on x86
   and snitch at depth 3 (softmax_micro at depth 2: at depth 3 on x86 it
   reaches the 20 000-state guard and cannot certify).  Canonical
   fingerprinting dominates the work; there is no I/O.

   Ops: a certification (search), and re-deriving a certified winner
   from its move list and re-timing it (warm). *)

open Harness

type pair = {
  kernel : Kernels.entry;
  tname : string;
  target : Machine.Desc.target;
  depth : int;
  root : Ir.Prog.t;
  caps : Transform.Xforms.caps;
}

let target_names = [ "x86"; "snitch" ]

(* The seed fixes the order the 16 certifications run in. *)
let plan ~seed =
  let specs =
    Array.of_list
      (List.concat_map
         (fun tname ->
           List.map (fun (k : Kernels.entry) -> (k, tname)) Kernels.snitch_micro)
         target_names)
  in
  Util.Rng.shuffle_in_place (Util.Rng.create seed) specs;
  specs

(* Set-up: build every root and its target's transformation set. *)
let setup specs =
  Array.map
    (fun ((k : Kernels.entry), tname) ->
      let target = target tname in
      {
        kernel = k;
        tname;
        target;
        depth = (if k.label = "softmax_micro" then 2 else 3);
        root = k.build ();
        caps = Machine.caps target;
      })
    specs

let certify p =
  Search.Exhaustive.run ~depth:p.depth p.caps (Machine.time p.target) p.root

(* The deterministic quantities of one certification. *)
let summary p (r : Search.Exhaustive.result) =
  Printf.sprintf "%s|%s|u%d|t%d|e%d|f%d|%s|%b|%s" p.kernel.label p.tname r.unique
    r.total r.evals r.failures (float_bits r.best_time) r.certified
    (String.concat ";" r.best_moves)

(* Warm op: rebuild the certified schedule from its moves, re-time it. *)
let rederive p moves =
  let sched, applied = Tuning.Warmstart.replay p.caps p.root moves in
  (sched, applied, Machine.time p.target sched)

(* The certificate holds: certified, no quarantine, the moves replay to
   the certified time, and the winner computes what the naive kernel
   does. *)
let check ~seed p (r : Search.Exhaustive.result) =
  let sched, applied, t = rederive p r.best_moves in
  r.certified && r.failures = 0 && applied = r.best_moves && t = r.best_time
  && Interp.equivalent ~seed p.root sched = Ok ()

let warm_sweeps = 20

type pass = {
  results : Search.Exhaustive.result array;
  cert_s : float array;
  warm_us : float list;  (** one sample per sweep over all winners *)
  warm_failed : int;
}

let run_pass pairs =
  let cert_s = Array.make (Array.length pairs) 0. in
  let results =
    Array.mapi
      (fun i p ->
        let r, dt = time (fun () -> certify p) in
        cert_s.(i) <- dt;
        r)
      pairs
  in
  (* re-deriving a schedule is what a fresh `perfdojo replay` process
     does: start the sweeps from a collected heap, not in the middle of
     the certifications' major GC cycle *)
  Gc.full_major ();
  let warm_us = ref [] and warm_failed = ref 0 in
  for _ = 1 to warm_sweeps do
    let times, dt =
      time (fun () -> Array.mapi (fun i p -> rederive p results.(i).best_moves) pairs)
    in
    warm_us := (dt *. 1e6) :: !warm_us;
    if Array.exists2 (fun (_, _, t) (r : Search.Exhaustive.result) -> t <> r.best_time) times results
    then incr warm_failed
  done;
  { results; cert_s; warm_us = !warm_us; warm_failed = !warm_failed }

let digest pairs (results : Search.Exhaustive.result array) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (Array.to_list (Array.mapi (fun i r -> summary pairs.(i) r) results))))

let speedup pairs (results : Search.Exhaustive.result array) =
  geomean
    (Array.to_list
       (Array.mapi (fun i r -> Machine.time pairs.(i).target pairs.(i).root /. r.Search.Exhaustive.best_time) results))

(* enough sweeps for ten samples beyond the p90 *)
let min_passes = 5

let measure ~seed ~seconds =
  let specs = plan ~seed in
  let setups = ref [] in
  let pairs = setup specs in
  let start = now () in
  let rec loop acc =
    sample_setups setups (fun () -> snd (time (fun () -> setup specs)));
    let pass = run_pass pairs in
    let acc = pass :: acc in
    if now () -. start < seconds || List.length acc < min_passes then loop acc
    else List.rev acc
  in
  let passes = loop [] in
  let first = List.hd passes in
  let first_digest = digest pairs first.results in
  List.iter
    (fun p ->
      if digest pairs p.results <> first_digest then
        raise (Nondeterministic "certify_micro: a later pass certified differently"))
    passes;
  let speedup = speedup pairs first.results in
  check_determinism ~workload:"certify_micro" ~seed ~what:"results"
    (first_digest ^ "|" ^ float_bits speedup);
  (* every pass certified identically, so checking the first covers all *)
  let bad_certs =
    Array.fold_left ( + ) 0
      (Array.mapi (fun i r -> if check ~seed pairs.(i) r then 0 else 1) first.results)
  in
  let n_pass = List.length passes in
  let certs = n_pass * Array.length pairs in
  let warm = List.concat_map (fun p -> p.warm_us) passes in
  let attempted = certs + List.length warm in
  let failed =
    (bad_certs * n_pass) + List.fold_left (fun a p -> a + p.warm_failed) 0 passes
  in
  let sum a = Array.fold_left ( +. ) 0. a in
  let unique = Array.fold_left (fun a r -> a + r.Search.Exhaustive.unique) 0 first.results in
  let total = Array.fold_left (fun a r -> a + r.Search.Exhaustive.total) 0 first.results in
  let cert_all = List.concat_map (fun p -> Array.to_list p.cert_s) passes in
  {
    attempted;
    failed;
    metrics =
      [
        metric ~samples:(List.length !setups) "setup_s" "s" (median !setups);
        metric "peak_rss_mb" "MB" (peak_rss_mb ());
        ok_ratio ~attempted ~failed;
        metric ~samples:(Array.length pairs) "speedup_geomean" "x" speedup;
        metric ~samples:n_pass "states_per_s" "1/s"
          (median (List.map (fun p -> float_of_int unique /. sum p.cert_s) passes));
        metric ~samples:n_pass "pairs_per_s" "1/s"
          (median
             (List.map (fun p -> float_of_int (Array.length pairs) /. sum p.cert_s) passes));
        metric ~samples:(List.length warm) "warm_p50_us" "us"
          (percentile ~what:"warm" 0.5 (Array.of_list warm));
      ];
    notes =
      [
        ("passes", string_of_int n_pass);
        ( "warm sweep us",
          Printf.sprintf "p90 %.1f (n=%d)" (percentile ~what:"warm" 0.9 (Array.of_list warm))
            (List.length warm) );
        ("certifications", Printf.sprintf "%d of %d pairs certified" (Array.length pairs - bad_certs) (Array.length pairs));
        ("unique/total", Printf.sprintf "%d/%d = %.4f" unique total (float_of_int unique /. float_of_int total));
        ( "certification latency",
          Printf.sprintf "p50 %.1f ms, max %.1f ms (n=%d)"
            (1e3 *. median cert_all)
            (1e3 *. List.fold_left Float.max 0. cert_all)
            (List.length cert_all) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let trace ~seed =
  let pairs = setup (plan ~seed) in
  let untraced, wall_u =
    time (fun () ->
        let pass = run_pass pairs in
        pass.results)
  in
  check_determinism ~workload:"certify_micro" ~seed ~what:"results"
    (digest pairs untraced ^ "|" ^ float_bits (speedup pairs untraced));
  let twins, wall_t =
    Spans.traced (fun () ->
        let twins =
          Array.map
            (fun p ->
              Twins.exhaustive ~depth:p.depth p.caps (Twins.model p.tname p.target) p.root)
            pairs
        in
        Gc.full_major ();
        for _ = 1 to warm_sweeps do
          Array.iteri
            (fun i p ->
              let sched, _ = Twins.replay p.caps p.root twins.(i).Twins.best_moves in
              ignore (Twins.model p.tname p.target sched))
            pairs
        done;
        twins)
  in
  let mismatched =
    Array.fold_left ( + ) 0
      (Array.mapi
         (fun i (r : Search.Exhaustive.result) ->
           let t = twins.(i) in
           if
             t.unique = r.unique && t.total = r.total && t.evals = r.evals
             && t.failures = r.failures && t.best_time = r.best_time
             && t.best_moves = r.best_moves && t.certified = r.certified
           then 0
           else 1)
         untraced)
  in
  let unique = Array.fold_left (fun a (t : Twins.bfs) -> a + t.unique) 0 twins in
  let total = Array.fold_left (fun a (t : Twins.bfs) -> a + t.total) 0 twins in
  {
    ops = Array.length pairs;
    mismatched;
    traced_s = wall_t;
    same_work_s = (wall_u, wall_t);
    failures =
      Array.fold_left (fun a (r : Search.Exhaustive.result) -> a + r.failures) 0 untraced;
    extra =
      [ metric "canon.unique_ratio" "ratio" (float_of_int unique /. float_of_int total) ];
  }
