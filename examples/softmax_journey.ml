(* The manual transformation-centric workflow of Figure 2 / Figure 4,
   written against the schedule-script surface: a human engineer
   optimizes softmax step by step, naming each loop by what it does
   ("the size-512 loop that writes e") instead of by raw child index,
   watching the modelled runtime after every statement, and keeping the
   whole journey as a versioned .pds script that replays byte-for-byte.

   Run with:  dune exec examples/softmax_journey.exe *)

open Perfdojo
module Engine = Transform.Engine
module Script = Transfo.Script
module Composites = Transfo.Composites

(* One script statement, applied interactively: resolve the selector,
   expand the (possibly composite) transformation, print the new
   modelled runtime.  This is exactly what Transfo.Script.run does for
   a whole file — stepping statement-by-statement is the Figure-2 loop. *)
let step target session stext =
  let { Script.sel; name; args } =
    match Script.parse ("pds 1\n" ^ stext ^ "\n") with
    | Ok { stmts = [ (_, s) ]; _ } -> s
    | Ok _ | Error _ -> failwith ("bad statement: " ^ stext)
  in
  let transfo =
    match Composites.resolve name args with
    | Ok t -> t
    | Error e -> failwith e
  in
  let r =
    match sel with
    | Some sel -> Engine.apply_at session sel transfo
    | None -> Engine.apply_anchored session ~anchor:[] transfo
  in
  match r with
  | Ok q -> Printf.printf "  %-52s -> %.3e s\n" stext (Machine.time target q)
  | Error e -> failwith (Target.error_to_string e)

let () =
  let target = Machine.Desc.Cpu Machine.Desc.avx512_cpu in
  let prog = Kernels.softmax ~n:24576 ~m:512 in
  let caps = Composites.enable ~names:[ "all" ] (Machine.caps target) in
  let session = Engine.start caps prog in
  Printf.printf "start: %.3e s\n" (Machine.time target prog);

  (* Fuse the exponentiation with the running sum: one pass over the
     row instead of two.  "the size-512 loop that writes e" survives
     child renumbering where a raw [0,3] would not. *)
  step target session "at size 512 & writes e do join";

  (* The row temporaries are privatized per row; move them to the
     stack. *)
  step target session "do storage(buffer=mx, loc=stack)";
  step target session "do storage(buffer=s, loc=stack)";

  (* Rows are independent: parallelize the row loop. *)
  step target session "at size 24576 do parallelize";

  (* Try tile-and-vectorize on the max reduction: the composite
     resolves its anchor, sees the reduction cannot vectorize, and
     refuses all-or-nothing — the session is untouched, no undo
     needed.  (The old raw-index workflow applied the split, watched
     the runtime get worse, and undid it by hand.) *)
  (match
     Script.parse "pds 1\nat size 512 & writes mx do tile_and_vectorize(lanes=16)\n"
   with
  | Ok s -> (
      match Script.run caps session.Engine.current s with
      | Error { err = Target.Refused _ as err; _ } ->
          Printf.printf "  (refused, session untouched: %s)\n"
            (Target.error_to_string err)
      | Error e -> failwith (Script.run_error_to_string e)
      | Ok _ -> failwith "vectorizing a max reduction should refuse")
  | Error e -> failwith e);

  (* The division loop is elementwise: there the same composite lands,
     tiling by the AVX-512 width and vectorizing the tile in one step. *)
  step target session "at size 512 & writes z do tile_and_vectorize(lanes=16)";

  (* The journey so far, as a replayable .pds script: of_moves converts
     the session's atomic provenance to targeted statements. *)
  let describes = List.map Transform.Xforms.describe (Engine.moves session) in
  let script =
    match Script.of_moves ~kernel:"softmax" ~ktarget:"avx512" describes with
    | Ok s -> s
    | Error e -> failwith e
  in
  print_endline "\nthe journey as a schedule script:";
  print_string (Script.to_string script);

  (* Replaying the script from the original program reproduces the
     session's schedule byte-for-byte. *)
  (match Script.run caps prog script with
  | Ok (q, _) when Ir.Printer.program q
                   = Ir.Printer.program session.Engine.current ->
      print_endline "\nscript replay: byte-identical"
  | Ok _ -> failwith "script replay diverged"
  | Error e -> failwith (Script.run_error_to_string e));

  (* Empirical validation (§2.2): the scheduled program computes what
     the original computed. *)
  (match Interp.equivalent session.Engine.initial session.Engine.current with
  | Ok () -> print_endline "numerical check vs original: OK"
  | Error e -> failwith e);

  print_endline "\nfinal schedule:";
  print_endline (Ir.Printer.body session.Engine.current);
  print_endline "\ngenerated C:";
  print_string (Codegen.program session.Engine.current)
