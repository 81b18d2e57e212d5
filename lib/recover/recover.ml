(* Crash-safe persistence primitives: durable file writes, a versioned
   checksummed checkpoint store, a write-ahead journal, cooperative
   interrupts, and a deterministic kill-injection harness.

   Everything here speaks the canonical JSON encoding (Util.Json), so
   checkpoints and journals inherit the byte-stable parse∘print
   round-trip the rest of the system relies on.  Corruption — torn
   writes, truncation, bit rot — is detected by version + MD5 checksum
   and surfaces as a typed [error], never as deserialized garbage. *)

type error =
  | Missing of string  (** no file at the given path *)
  | Corrupt of string  (** parse / version / checksum failure *)
  | Mismatch of string  (** checkpoint is for a different run configuration *)

exception Error of error

let error_message = function
  | Missing path -> Printf.sprintf "no checkpoint at %s" path
  | Corrupt msg -> Printf.sprintf "corrupt checkpoint/journal: %s" msg
  | Mismatch msg -> Printf.sprintf "checkpoint mismatch: %s" msg

let corrupt fmt = Printf.ksprintf (fun m -> Stdlib.Error (Corrupt m)) fmt

(* Exact float round-trip through JSON, including non-finite values
   (quarantined runtimes are +inf, which plain JSON cannot carry): the
   IEEE-754 bit pattern as a hex string. *)
module Bits = struct
  let of_float f = Util.Json.Str (Printf.sprintf "%Lx" (Int64.bits_of_float f))

  let to_float = function
    | Util.Json.Str s -> (
        match Int64.of_string_opt ("0x" ^ s) with
        | Some bits -> Some (Int64.float_of_bits bits)
        | None -> None)
    | _ -> None
end

(* Strict accessors for decoding checkpoint/journal payloads: a missing
   or ill-typed field raises the typed [Error] rather than producing
   garbage state. *)
module Field = struct
  let corrupt fmt = Printf.ksprintf (fun m -> raise (Error (Corrupt m))) fmt

  let mismatch field ~run ~ckpt =
    raise
      (Error
         (Mismatch
            (Printf.sprintf "%s: run has %s, checkpoint has %s" field run ckpt)))

  let member name json =
    match Util.Json.member name json with
    | Some v -> v
    | None -> corrupt "missing field %S" name

  let int name json =
    match Util.Json.to_int (member name json) with
    | Some v -> v
    | None -> corrupt "field %S is not an int" name

  let str name json =
    match Util.Json.to_str (member name json) with
    | Some v -> v
    | None -> corrupt "field %S is not a string" name

  let bool name json =
    match member name json with
    | Util.Json.Bool b -> b
    | _ -> corrupt "field %S is not a bool" name

  let list name json =
    match Util.Json.to_list (member name json) with
    | Some v -> v
    | None -> corrupt "field %S is not an array" name

  let float_bits name json =
    match Bits.to_float (member name json) with
    | Some v -> v
    | None -> corrupt "field %S is not a float bit pattern" name

  let str_list name json =
    List.map
      (function
        | Util.Json.Str s -> s
        | _ -> corrupt "field %S holds a non-string" name)
      (list name json)

  let check_str json field run =
    let ckpt = str field json in
    if not (String.equal run ckpt) then mismatch field ~run ~ckpt

  let check_int json field run =
    let ckpt = int field json in
    if run <> ckpt then
      mismatch field ~run:(string_of_int run) ~ckpt:(string_of_int ckpt)
end

module Durable = struct
  (* fsync a directory so a rename inside it survives power loss.  Some
     filesystems reject fsync on a directory fd; that only weakens the
     power-loss guarantee, so errors are swallowed. *)
  let fsync_dir dir =
    match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
        (try Unix.fsync fd with Unix.Unix_error _ -> ());
        Unix.close fd

  (* Durable atomic replace: write [path ^ ".tmp"], fsync the data to
     disk, rename over [path], then fsync the directory so the rename
     itself is durable.  Readers never observe a partial file, and an
     acknowledged write survives kill -9 and power loss.  On any
     exception the tmp file is removed and [path] is untouched. *)
  let write_file ~path writer =
    let tmp = path ^ ".tmp" in
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let oc = Unix.out_channel_of_descr fd in
    (try
       writer oc;
       flush oc;
       Unix.fsync fd;
       close_out oc
     with e ->
       (try close_out oc with _ -> ());
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    Sys.rename tmp path;
    fsync_dir (Filename.dirname path)

  let write_string ~path s = write_file ~path (fun oc -> output_string oc s)
end

module Store = struct
  let version = 1

  let save ~path (payload : Util.Json.t) =
    let body = Util.Json.to_string payload in
    let envelope =
      Util.Json.Obj
        [
          ("v", Util.Json.Num (float_of_int version));
          ("sum", Util.Json.Str (Digest.to_hex (Digest.string body)));
          ("payload", payload);
        ]
    in
    Durable.write_string ~path (Util.Json.to_string envelope ^ "\n")

  let load ~path : (Util.Json.t, error) result =
    if not (Sys.file_exists path) then Stdlib.Error (Missing path)
    else
      let contents =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Util.Json.of_string (String.trim contents) with
      | Stdlib.Error e -> corrupt "%s: %s" path e
      | Ok json -> (
          match
            ( Option.bind (Util.Json.member "v" json) Util.Json.to_int,
              Option.bind (Util.Json.member "sum" json) Util.Json.to_str,
              Util.Json.member "payload" json )
          with
          | Some v, _, _ when v <> version ->
              corrupt "%s: version %d, expected %d" path v version
          | Some _, Some sum, Some payload ->
              let body = Util.Json.to_string payload in
              if String.equal sum (Digest.to_hex (Digest.string body)) then Ok payload
              else corrupt "%s: checksum mismatch" path
          | _ -> corrupt "%s: malformed envelope" path)
end

module Journal = struct
  type writer = { fd : Unix.file_descr; path : string }

  let entry_line (data : Util.Json.t) =
    let body = Util.Json.to_string data in
    Util.Json.to_string
      (Util.Json.Obj
         [
           ("sum", Util.Json.Str (Digest.to_hex (Digest.string body)));
           ("data", data);
         ])

  (* Open for appending (and reading, for [read]), creating the file if
     needed; only a creation pays the directory fsync that makes the new
     name durable. *)
  let open_writer path =
    let created = not (Sys.file_exists path) in
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
    if created then Durable.fsync_dir (Filename.dirname path);
    { fd; path }

  (* Append one entry and fsync before returning: once [append] returns
     the entry will be recovered by [replay] even after kill -9. *)
  let append w (data : Util.Json.t) =
    let line = entry_line data ^ "\n" in
    let n = String.length line in
    let written = ref 0 in
    while !written < n do
      written := !written + Unix.write_substring w.fd line !written (n - !written)
    done;
    Unix.fsync w.fd

  (* Empty the journal after its entries have been checkpointed into the
     primary store. *)
  let reset w =
    Unix.ftruncate w.fd 0;
    Unix.fsync w.fd

  let close w = Unix.close w.fd

  let size w = (Unix.fstat w.fd).Unix.st_size

  (* lockf excludes other processes; [lock] excludes this process's
     other threads and domains.  The record lock drops as soon as the
     process closes any descriptor of the file, so [f] reads through
     [w]. *)
  let lock = Mutex.create ()

  let locked path f =
    Mutex.protect lock (fun () ->
        let w = open_writer path in
        Fun.protect
          ~finally:(fun () -> close w)
          (fun () ->
            Unix.lockf w.fd Unix.F_LOCK 0;
            f w))

  let parse_line line =
    match Util.Json.of_string line with
    | Stdlib.Error e -> Stdlib.Error e
    | Ok json -> (
        match
          ( Option.bind (Util.Json.member "sum" json) Util.Json.to_str,
            Util.Json.member "data" json )
        with
        | Some sum, Some data ->
            if String.equal sum (Digest.to_hex (Digest.string (Util.Json.to_string data)))
            then Ok data
            else Stdlib.Error "checksum mismatch"
        | _ -> Stdlib.Error "malformed entry")

  (* Replay a journal: all verified entries in order, plus the number of
     torn trailing lines dropped (at most one partial line can result
     from a crash mid-append; it is expected and not an error).  A bad
     line that is *not* the last one means real corruption → [Corrupt]. *)
  let read w : (Util.Json.t list * int, error) result =
    ignore (Unix.lseek w.fd 0 Unix.SEEK_SET);
    (* the channel stays open: closing it would close [w.fd] *)
    let contents = In_channel.input_all (Unix.in_channel_of_descr w.fd) in
    let lines =
      String.split_on_char '\n' contents
      |> List.filter (fun l -> String.trim l <> "")
    in
    let n = List.length lines in
    let rec go i acc = function
      | [] -> Ok (List.rev acc, 0)
      | line :: rest -> (
          match parse_line line with
          | Ok data -> go (i + 1) (data :: acc) rest
          | Stdlib.Error e ->
              if i = n - 1 then Ok (List.rev acc, 1) (* torn tail from a crash *)
              else corrupt "%s: line %d: %s" w.path (i + 1) e)
    in
    go 0 [] lines

  (* under [lock]: closing the descriptor would drop another thread's
     lockf lock *)
  let replay path =
    if not (Sys.file_exists path) then Ok ([], 0)
    else
      Mutex.protect lock (fun () ->
          let w = { fd = Unix.openfile path [ Unix.O_RDONLY ] 0; path } in
          Fun.protect ~finally:(fun () -> close w) (fun () -> read w))
end

module Interrupt = struct
  exception Interrupted of string option

  let flag = Atomic.make false
  let requested () = Atomic.get flag
  let reset () = Atomic.set flag false

  (* Cooperative handler: first SIGINT/SIGTERM sets a flag that
     long-running loops poll at safe points (round/level/pair
     boundaries) to checkpoint and exit; a second signal exits
     immediately for loops that never reach a safe point. *)
  let install () =
    let handler =
      Sys.Signal_handle
        (fun _ -> if Atomic.get flag then Stdlib.exit 130 else Atomic.set flag true)
    in
    Sys.set_signal Sys.sigint handler;
    Sys.set_signal Sys.sigterm handler

  (* Raising handler, for loops blocked in a syscall (the serve pipe
     transport reading stdin): the signal unwinds the read so the caller
     can drain and checkpoint. *)
  let install_raising () =
    let handler = Sys.Signal_handle (fun _ -> raise (Interrupted None)) in
    Sys.set_signal Sys.sigint handler;
    Sys.set_signal Sys.sigterm handler
end

module Chaos = struct
  (* Run [f] in a forked child and report how it died.  The child exits
     via [Unix._exit] (no at_exit, no double-flush of the parent's
     buffered channels), so anything it must persist it writes and
     syncs itself — which is exactly the discipline under test. *)
  let in_subprocess (f : unit -> unit) : Unix.process_status =
    (* the child inherits the parent's channel buffers; flush them so a
       buffer-full flush in the child cannot replay the parent's
       pending output (the child itself exits via [_exit], unflushed) *)
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        (try f () with _ -> Unix._exit 99);
        Unix._exit 0
    | pid ->
        let _, status = Unix.waitpid [] pid in
        status

  (* A tick that SIGKILLs the calling process on its [at]-th invocation
     (1-based); thread-safe so it can be called from pool workers.
     Threading it through an objective gives a deterministic, seedable
     crash at a chosen evaluation index. *)
  let kill_switch ~at =
    let n = Atomic.make 0 in
    fun () ->
      if at > 0 && Atomic.fetch_and_add n 1 + 1 = at then
        Unix.kill (Unix.getpid ()) Sys.sigkill

  let killed status = status = Unix.WSIGNALED Sys.sigkill
end
