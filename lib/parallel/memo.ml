(* A thread-safe, sharded, single-flight memo table.

   This is the concurrency substrate the experiment engine's compile
   memo was built on, extracted so any per-context cache (compiled
   loops, per-plan address traces, ...) can reuse it: the first domain
   to ask for a key claims it (In_flight) and computes outside the
   lock; latecomers block on the shard's condition until the result
   lands.  No key is ever computed twice concurrently.

   The table is sharded by key hash: domains asking for different keys
   contend on different locks, and a broadcast after a computation only
   wakes waiters of that shard rather than every blocked domain.
   Single-flight still holds per key because a key always maps to the
   same shard.

   Capacity: an optional bound caps the number of completed entries so
   fleet-scale sweeps (thousands of distinct configurations through one
   memo) cannot grow memory without bound.  The cap is enforced per
   shard (total capacity is the per-shard cap times the shard count,
   i.e. at least the requested cap); eviction is FIFO over each shard's
   completed keys.  Evicting only trades speed for memory — an evicted
   key is simply recomputed on its next request, with the same
   single-flight discipline — so results never depend on the cap.

   All synchronization goes through the Sync shim so the concurrency
   sanitizer can record and replay it; the hit/miss/eviction counters
   are atomics, so stats are exact even though hits are counted under
   the shard lock while other shards mutate theirs concurrently. *)

type 'a entry = In_flight | Ready of 'a

type 'a shard = {
  cache : (string, 'a entry) Hashtbl.t;
  c_cache : Sync.cell;  (* race-detector marker for [cache] + [order] *)
  order : string Queue.t;  (* completed keys, oldest first (FIFO) *)
  lock : Sync.mutex;
  ready : Sync.condition;
  hits : Sync.atomic;
  misses : Sync.atomic;
  evictions : Sync.atomic;
}

type 'a t = { mask : int; shard_cap : int option; shards : 'a shard array }

type stats = { size : int; hits : int; misses : int; evictions : int }

let create ?(shards = 16) ?cap () =
  (* Power-of-two shard count: the shard index is a mask of the hash. *)
  let n =
    let rec up c = if c >= shards then c else up (c * 2) in
    up 1
  in
  let shard_cap =
    match cap with
    | None -> None
    | Some c -> Some (max 1 ((max 1 c + n - 1) / n))
  in
  {
    mask = n - 1;
    shard_cap;
    shards =
      Array.init n (fun index ->
          {
            cache = Hashtbl.create 8;
            c_cache = Sync.cell ~name:"memo.shard%d.cache" ~index ();
            order = Queue.create ();
            lock = Sync.mutex ~name:"memo.shard%d.lock" ~index ();
            ready = Sync.condition ~name:"memo.shard%d.ready" ~index ();
            hits = Sync.atomic ~name:"memo.shard%d.hits" ~index 0;
            misses = Sync.atomic ~name:"memo.shard%d.misses" ~index 0;
            evictions = Sync.atomic ~name:"memo.shard%d.evictions" ~index 0;
          });
  }

let shard_for t key = t.shards.(Hashtbl.hash key land t.mask)

(* Caller holds [sh.lock].  The queue mirrors the shard's Ready keys
   exactly (an In_flight claim is only queued once it completes, and an
   evicted key leaves the queue at eviction), so popping the front
   always names a live completed entry. *)
let evict_over_cap t sh =
  match t.shard_cap with
  | None -> ()
  | Some cap ->
      while Queue.length sh.order > cap do
        let victim = Queue.pop sh.order in
        Sync.write sh.c_cache;
        Hashtbl.remove sh.cache victim;
        Sync.add sh.evictions 1
      done

let get t key compute =
  let sh = shard_for t key in
  Sync.lock sh.lock;
  let rec claim () =
    Sync.read sh.c_cache;
    match Hashtbl.find_opt sh.cache key with
    | Some (Ready v) ->
        (* Waiters who blocked on another domain's In_flight claim land
           here too: they never computed, so they count as hits. *)
        Sync.add sh.hits 1;
        Sync.unlock sh.lock;
        `Hit v
    | Some In_flight ->
        Sync.wait sh.ready sh.lock;
        claim ()
    | None ->
        Sync.add sh.misses 1;
        Sync.write sh.c_cache;
        Hashtbl.replace sh.cache key In_flight;
        Sync.unlock sh.lock;
        `Miss
  in
  match claim () with
  | `Hit v -> v
  | `Miss -> (
      match compute () with
      | v ->
          Sync.lock sh.lock;
          Sync.write sh.c_cache;
          Hashtbl.replace sh.cache key (Ready v);
          Queue.push key sh.order;
          evict_over_cap t sh;
          Sync.broadcast sh.ready;
          Sync.unlock sh.lock;
          v
      | exception e ->
          (* Release the claim so waiters retry (and fail) themselves
             instead of blocking forever. *)
          Sync.lock sh.lock;
          Sync.write sh.c_cache;
          Hashtbl.remove sh.cache key;
          Sync.broadcast sh.ready;
          Sync.unlock sh.lock;
          raise e)

let find_opt t key =
  let sh = shard_for t key in
  Sync.lock sh.lock;
  Sync.read sh.c_cache;
  let r =
    match Hashtbl.find_opt sh.cache key with
    | Some (Ready v) -> Some v
    | Some In_flight | None -> None
  in
  Sync.unlock sh.lock;
  r

let length t =
  Array.fold_left
    (fun acc sh ->
      Sync.lock sh.lock;
      Sync.read sh.c_cache;
      let n =
        Hashtbl.fold
          (fun _ e acc -> match e with Ready _ -> acc + 1 | In_flight -> acc)
          sh.cache 0
      in
      Sync.unlock sh.lock;
      acc + n)
    0 t.shards

let stats t =
  Array.fold_left
    (fun acc sh ->
      Sync.lock sh.lock;
      Sync.read sh.c_cache;
      let size = Queue.length sh.order in
      Sync.unlock sh.lock;
      {
        size = acc.size + size;
        hits = acc.hits + Sync.get sh.hits;
        misses = acc.misses + Sync.get sh.misses;
        evictions = acc.evictions + Sync.get sh.evictions;
      })
    { size = 0; hits = 0; misses = 0; evictions = 0 }
    t.shards
