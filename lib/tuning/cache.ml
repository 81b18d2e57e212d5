(* Memoized objective evaluation, keyed on the program's exact
   structure: Ir.Prog.digest, the 16-byte MD5 of
   [Marshal.to_string p [No_sharing]].

   Why not the canonical fingerprint (Record.fingerprint)?  It costs
   about twenty model calls to spare one, and it answers a program with
   its canonical twin's time, which a model may time 1 ulp apart.
   A hit under the exact key is exactly the model's answer, since the
   models are pure; a canonical respelling (a renamed temporary, swapped
   commutative operands) misses and is timed.  Record.fingerprint stays
   the identity of database records, warm starts and dedup.  The table
   lives as long as the cache value and stores digests, not programs.

   Domain-safe: the table is sharded by key hash and every shard
   carries its own mutex, so concurrent search workers (Parallel.Pool)
   share memoization without races and without serializing on a single
   lock.  The objective itself runs *outside* the shard lock — it is the
   expensive part, and holding the lock there would serialize the very
   evaluations the pool exists to overlap.  Two workers racing on the
   same fresh program may thus both evaluate it (both count as
   misses — for a deterministic objective they store the same value);
   what is guaranteed is hits + misses = total lookups, exactly. *)

type shard = {
  table : (string, float) Hashtbl.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable contended : int;
      (* lock acquisitions that found the shard lock already held *)
}

type t = shard array

let shard_count = 16 (* power of two: shard index is a mask *)

let create () : t =
  Array.init shard_count (fun _ ->
      {
        table = Hashtbl.create 64;
        lock = Mutex.create ();
        hits = 0;
        misses = 0;
        contended = 0;
      })

let shard_of (cache : t) k = cache.(Hashtbl.hash k land (shard_count - 1))

(* Lock the shard, counting contention: a failed try_lock means another
   domain held this shard at that instant.  The counter is written after
   the lock is acquired, so it needs no extra synchronization. *)
let lock_shard (s : shard) =
  if not (Mutex.try_lock s.lock) then begin
    Mutex.lock s.lock;
    s.contended <- s.contended + 1
  end

let memoize_key (cache : t) (k : string) (objective : Ir.Prog.t -> float)
    (p : Ir.Prog.t) : float =
  let s = shard_of cache k in
  lock_shard s;
  match Hashtbl.find_opt s.table k with
  | Some time ->
      s.hits <- s.hits + 1;
      Mutex.unlock s.lock;
      time
  | None ->
      s.misses <- s.misses + 1;
      Mutex.unlock s.lock;
      let time = objective p in
      lock_shard s;
      (* Non-finite scores are never stored: a quarantined (failed)
         evaluation must not poison warm restarts — a transient fault
         would otherwise be remembered as "this schedule is infinitely
         slow" for the lifetime of the cache. *)
      if Float.is_finite time && not (Hashtbl.mem s.table k) then
        Hashtbl.add s.table k time;
      Mutex.unlock s.lock;
      time

let memoize (cache : t) objective p =
  memoize_key cache (Ir.Prog.digest p) objective p

(* The digest is always 16 bytes, so [scope ^ "\x00" ^ digest] splits
   back into one (scope, program) pair: distinct pairs never collide. *)
let memoize_scoped (cache : t) ~scope objective p =
  memoize_key cache (scope ^ "\x00" ^ Ir.Prog.digest p) objective p

let sum (cache : t) f = Array.fold_left (fun acc s -> acc + f s) 0 cache
let hits (c : t) = sum c (fun s -> s.hits)
let misses (c : t) = sum c (fun s -> s.misses)
let contended (c : t) = sum c (fun s -> s.contended)

let hit_rate (c : t) =
  let h = hits c and m = misses c in
  let total = h + m in
  if total = 0 then 0. else float_of_int h /. float_of_int total

let entries (c : t) = sum c (fun s -> Hashtbl.length s.table)

(* Counters are written as absolute values (incr by the delta against
   what the registry already holds), so re-exporting after each phase
   refreshes rather than double-counts. *)
let export (c : t) (m : Obs.Metrics.t) =
  let set_counter name v =
    Obs.Metrics.incr m ~by:(v - Obs.Metrics.counter m name) name
  in
  set_counter "cache.hits" (hits c);
  set_counter "cache.misses" (misses c);
  set_counter "cache.contended" (contended c);
  Obs.Metrics.set m "cache.hit_rate" (hit_rate c);
  Obs.Metrics.set m "cache.entries" (float_of_int (entries c))
