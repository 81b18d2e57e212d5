(* What the three workloads share: the clock, percentiles with sample
   checks, process facts, scratch directories, the cross-run
   determinism guard and the result line. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now () = float_of_int (now_ns ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs = Util.Stats.median (Array.of_list xs)

(* A percentile is only reported when at least ten samples lie beyond
   it; a thinner tail fails the run instead of printing a guess. *)
let percentile ~what q (a : float array) =
  let beyond = float_of_int (Array.length a) *. (1. -. q) in
  if beyond < 10. -. 1e-9 then
    failwith
      (Printf.sprintf "%s: %d samples leave %.1f beyond p%g (need 10)" what
         (Array.length a) beyond (q *. 100.));
  Util.Stats.quantile q a

let geomean xs = Util.Stats.geomean (Array.of_list xs)

(* A modelled machine by its short name ("x86", "snitch", "gh200"). *)
let target tname =
  match Machine.Desc.resolve_target tname with
  | Some (_, t) -> t
  | None -> invalid_arg ("unknown target " ^ tname)

(* VmHWM: the process's peak resident set. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Every scratch file of a run lives under one directory named by the
   process id (paths stay short: socket addresses are length-limited),
   removed when the run ends. *)
let state_root = ".perfbench"
let run_dir = Filename.concat state_root (Printf.sprintf "run-%d" (Unix.getpid ()))

let fresh_dir name =
  let d = Filename.concat run_dir name in
  rm_rf d;
  mkdir_p d;
  d

(* ------------------------------------------------------------------ *)
(* Determinism guard                                                   *)
(* ------------------------------------------------------------------ *)

(* Identity of the code under test: a digest over the sources of lib/
   and of the benchmark, so two checkouts of different commits never
   compare their quantities. *)
let source_digest () =
  let rec walk acc path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc f -> walk acc (Filename.concat path f))
        acc
        (let fs = Sys.readdir path in
         Array.sort compare fs;
         fs)
    else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
            || Filename.basename path = "dune"
    then Digest.string (path ^ "\000" ^ read_file path) :: acc
    else acc
  in
  Digest.to_hex (Digest.string (String.concat "" (walk [] "lib" @ walk [] "perfbench")))

exception Nondeterministic of string

(* The first run of a (workload, seed) on this code records the digest
   of its deterministic quantities; every later run must reproduce it
   byte for byte, or the benchmark refuses to report. *)
let check_determinism ~workload ~seed ~what digest =
  let dir = Filename.concat state_root "digests" in
  mkdir_p dir;
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-%s-seed%d-%s" workload what seed (source_digest ()))
  in
  if Sys.file_exists path then begin
    let recorded = String.trim (read_file path) in
    if recorded <> digest then
      raise
        (Nondeterministic
           (Printf.sprintf "%s %s: digest %s differs from %s recorded earlier"
              workload what digest recorded))
  end
  else Out_channel.with_open_bin path (fun oc -> output_string oc digest)

let float_bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

type outcome = {
  attempted : int;
  failed : int;  (** ops that errored or failed their output check *)
  metrics : metric list;
  notes : (string * string) list;  (** informational lines, not gated *)
}

(* What a traced run hands back: how many ops its twin re-drove, how
   many of them came out different from the untraced engine, the traced
   wall time (the base of shares and coverage), the untraced and traced
   seconds of one identical piece of work (the overhead), the guard
   quarantines seen, and workload-specific layer metrics. *)
type traced = {
  ops : int;
  mismatched : int;
  traced_s : float;
  same_work_s : float * float;
  failures : int;
  extra : metric list;
}

(* Set-up takes microseconds to a millisecond and follows the host's
   momentary speed and disk latency, so each run times it in batches
   spread over the run and reports the median of all the samples. *)
let setup_batch = 5

let sample_setups samples f =
  for _ = 1 to setup_batch do
    samples := f () :: !samples
  done

let ok_ratio ~attempted ~failed =
  metric ~samples:attempted "ok_ratio" "ratio"
    (float_of_int (attempted - failed) /. float_of_int (max attempted 1))

(* Human-readable lines first, then the single JSON result line. *)
let report (o : outcome) =
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) o.notes;
  List.iter
    (fun m ->
      Printf.printf "# %-32s %16.6f %-6s n=%d\n" m.name m.value m.unit_ m.samples)
    o.metrics;
  let open Util.Json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (o.failed = 0));
            ("attempted", Num (float_of_int o.attempted));
            ("failed", Num (float_of_int o.failed));
            ( "metrics",
              Obj
                (List.map
                   (fun m ->
                     (m.name, Obj [ ("value", Num m.value); ("unit", Str m.unit_) ]))
                   o.metrics) );
          ]))
