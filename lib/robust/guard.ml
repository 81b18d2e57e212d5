(* Guarded objective evaluation.

   The fuel budget and the attempt index live in domain-local storage:
   each pool worker guards its own evaluations without sharing state,
   and a cooperative evaluator calls [tick] with no handle threading.
   [run] saves and restores the cell around every attempt, so nested
   guards (a guarded search whose objective is itself guarded) behave
   like properly scoped dynamic binding.

   Determinism: nothing here reads a clock or an RNG.  Retries are
   bounded and immediate, and fuel is a work counter — so whether and
   how a candidate fails is a function of the candidate alone, which
   the search layer's jobs-invariance relies on. *)

exception Transient of string
exception Out_of_fuel

type failure =
  | Rejected of { cls : string; msg : string }
  | Non_finite of float
  | Exhausted of { fuel : int }

type outcome = (float, failure) result

type config = {
  max_retries : int;
  fuel : int option;
  on_retry : int -> exn -> unit;
}

let default = { max_retries = 1; fuel = None; on_retry = (fun _ _ -> ()) }

let instrument ?metrics cfg =
  match metrics with
  | None -> cfg
  | Some m ->
      let prev = cfg.on_retry in
      {
        cfg with
        on_retry =
          (fun k e ->
            Obs.Metrics.incr m "robust.retries";
            prev k e);
      }

(* Per-domain evaluation context.  [fuel < 0] encodes "unfuelled". *)
type dstate = { mutable fuel : int; mutable att : int }

let key = Domain.DLS.new_key (fun () -> { fuel = -1; att = 0 })

let tick ?(cost = 1) () =
  let st = Domain.DLS.get key in
  if st.fuel >= 0 then begin
    st.fuel <- st.fuel - cost;
    if st.fuel < 0 then begin
      st.fuel <- -1;
      raise Out_of_fuel
    end
  end

let attempt () = (Domain.DLS.get key).att

let rejected_of_exn e =
  Rejected { cls = Printexc.exn_slot_name e; msg = Printexc.to_string e }

let run ?(cfg = default) ~(cost : 'b -> float) (f : 'a -> 'b) (x : 'a) :
    ('b, failure) result =
  let st = Domain.DLS.get key in
  let saved_fuel = st.fuel and saved_att = st.att in
  let restore () =
    st.fuel <- saved_fuel;
    st.att <- saved_att
  in
  let rec go k =
    st.att <- k;
    (match cfg.fuel with Some n -> st.fuel <- max n 0 | None -> ());
    match f x with
    | v ->
        restore ();
        let c = cost v in
        if Float.is_finite c then Ok v else Error (Non_finite c)
    | exception Out_of_fuel ->
        restore ();
        Error (Exhausted { fuel = Option.value cfg.fuel ~default:0 })
    | exception (Transient _ as e) when k < cfg.max_retries ->
        restore ();
        cfg.on_retry k e;
        go (k + 1)
    | exception e ->
        restore ();
        Error (rejected_of_exn e)
  in
  go 0

let eval ?cfg (objective : 'a -> float) (x : 'a) : outcome =
  run ?cfg ~cost:Fun.id objective x

let failure_class = function
  | Rejected _ -> "rejected"
  | Non_finite _ -> "non_finite"
  | Exhausted _ -> "exhausted"

let failure_message = function
  | Rejected { cls; msg } -> Printf.sprintf "%s: %s" cls msg
  | Non_finite c -> Printf.sprintf "non-finite cost %h" c
  | Exhausted { fuel } -> Printf.sprintf "fuel budget %d exhausted" fuel

let note ?obs ?metrics ?(fields = []) failure =
  (match obs with
  | None -> ()
  | Some sink ->
      if Obs.Trace.enabled sink then
        Obs.Trace.emit sink "search.eval_error" (fun () ->
            fields
            @ [
                Obs.Trace.str "class" (failure_class failure);
                Obs.Trace.str "msg" (failure_message failure);
              ]));
  match metrics with
  | None -> ()
  | Some m ->
      Obs.Metrics.incr m "robust.eval_failures";
      Obs.Metrics.incr m ("robust." ^ failure_class failure)
