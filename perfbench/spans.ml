(* Spans recorded from the benchmark's own code around the calls it
   makes into each layer (the program itself is not instrumented).

   A span's self time is its duration minus the time of the spans
   nested inside it, so the self times of all spans partition the
   attributed part of the traced wall time.  Spans cost nothing while
   tracing is off: [span] then only calls its argument. *)

type stat = { mutable calls : int; mutable self_ns : int }

let enabled = ref false
let stats : (string, stat) Hashtbl.t = Hashtbl.create 32

(* child-time accumulators of the open spans, innermost first *)
let open_spans : int ref list ref = ref []

let stat name =
  match Hashtbl.find_opt stats name with
  | Some s -> s
  | None ->
      let s = { calls = 0; self_ns = 0 } in
      Hashtbl.replace stats name s;
      s

let span name f =
  if not !enabled then f ()
  else begin
    let children = ref 0 in
    let outer = !open_spans in
    open_spans := children :: outer;
    let t0 = Harness.now_ns () in
    let close () =
      let dt = Harness.now_ns () - t0 in
      open_spans := outer;
      (match outer with parent :: _ -> parent := !parent + dt | [] -> ());
      let s = stat name in
      s.calls <- s.calls + 1;
      s.self_ns <- s.self_ns + dt - !children
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

let reset () =
  Hashtbl.reset stats;
  open_spans := []

(* The traced wall clock, minus the intervals spent in [untimed]
   sections (work the run must do but a twin already accounts for). *)
let untimed_ns = ref 0

let untimed f =
  let t0 = Harness.now_ns () in
  Fun.protect
    ~finally:(fun () -> untimed_ns := !untimed_ns + Harness.now_ns () - t0)
    f

(* Run [f] traced; returns its result and the traced wall seconds. *)
let traced f =
  reset ();
  untimed_ns := 0;
  enabled := true;
  let t0 = Harness.now_ns () in
  Fun.protect
    ~finally:(fun () -> enabled := false)
    (fun () ->
      let r = f () in
      (r, float_of_int (Harness.now_ns () - t0 - !untimed_ns) *. 1e-9))

(* Per-layer metrics for every name in [layers] (a layer off this
   workload's path reports zero calls), plus the attributed share of
   the traced wall time. *)
let layer_metrics ~layers ~wall_s =
  let wall_ns = wall_s *. 1e9 in
  let per_layer =
    List.concat_map
      (fun name ->
        let s =
          Option.value (Hashtbl.find_opt stats name)
            ~default:{ calls = 0; self_ns = 0 }
        in
        let self = float_of_int s.self_ns in
        Harness.
          [
            metric (name ^ ".calls") "count" (float_of_int s.calls);
            metric ~samples:s.calls (name ^ ".ns") "ns"
              (if s.calls = 0 then 0. else self /. float_of_int s.calls);
            metric (name ^ ".share") "ratio" (self /. wall_ns);
          ])
      layers
  in
  let attributed =
    Hashtbl.fold
      (fun name s acc ->
        if List.mem name layers then acc +. float_of_int s.self_ns else acc)
      stats 0.
  in
  (per_layer, attributed /. wall_ns)
