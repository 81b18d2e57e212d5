(* Shared by the suites that check how a run treats a pending
   SIGINT/SIGTERM. *)

(* Raise the flag the way a real SIGTERM does — install the handler,
   clear the flag, signal this process, wait until the handler ran —
   then run [f] and clear the flag again whatever [f] does. *)
let with_set f =
  Recover.Interrupt.install ();
  Recover.Interrupt.reset ();
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  let deadline = Unix.gettimeofday () +. 2.0 in
  while
    (not (Recover.Interrupt.requested ())) && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.001
  done;
  Fun.protect ~finally:Recover.Interrupt.reset f
