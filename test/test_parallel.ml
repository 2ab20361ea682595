(* The domain pool and the parallel experiment engine: ordering,
   exception propagation, nested maps, the thread-safe compile memo
   (single-flight), the config-fingerprinted cache key, and the
   determinism guarantee — jobs=N output byte-identical to jobs=1. *)

module Config = Vliw_arch.Config
module Context = Vliw_experiments.Context
module Pipeline = Vliw_core.Pipeline
module Pool = Vliw_parallel.Pool
module WL = Vliw_workloads

let check = Alcotest.check
let cb = Alcotest.bool
let cs = Alcotest.string
let ci = Alcotest.int
let cil = Alcotest.(list int)

(* ----------------------------------------------------------- the pool *)

let test_map_ordered_preserves_order () =
  let xs = List.init 100 Fun.id in
  let f x = (x * 7) + 3 in
  check cil "jobs=4 equals List.map" (List.map f xs)
    (Pool.map_ordered ~jobs:4 f xs);
  check cil "jobs=1 equals List.map" (List.map f xs)
    (Pool.map_ordered ~jobs:1 f xs);
  check cil "empty list" [] (Pool.map_ordered ~jobs:4 f []);
  check cil "singleton" [ f 9 ] (Pool.map_ordered ~jobs:4 f [ 9 ])

let test_map_ordered_random_lists () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:50 ~name:"map_ordered = List.map"
       QCheck.(list small_int)
       (fun xs ->
         let f x = (x * x) - (3 * x) in
         Pool.map_ordered ~jobs:3 f xs = List.map f xs))

let test_exception_propagates () =
  match
    Pool.map_ordered ~jobs:4
      (fun i -> if i >= 5 then failwith (Printf.sprintf "boom%d" i) else i)
      (List.init 10 Fun.id)
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure m ->
      (* The earliest failing element wins, as in a sequential map. *)
      check cs "earliest failure re-raised" "boom5" m

let test_nested_map_runs_sequentially () =
  (* A task that maps again must not deadlock on the shared queue. *)
  let expected =
    List.map
      (fun i -> List.fold_left ( + ) 0 (List.map (fun j -> i * j) (List.init 5 Fun.id)))
      (List.init 8 Fun.id)
  in
  let got =
    Pool.map_ordered ~jobs:4
      (fun i ->
        List.fold_left ( + ) 0
          (Pool.map_ordered ~jobs:4 (fun j -> i * j) (List.init 5 Fun.id)))
      (List.init 8 Fun.id)
  in
  check cil "nested map" expected got

let test_explicit_pool_lifecycle () =
  let p = Pool.create ~jobs:4 () in
  let xs = List.init 20 Fun.id in
  check cil "first batch" (List.map succ xs) (Pool.map p succ xs);
  check cil "pool is reusable" (List.map succ xs) (Pool.map p succ xs);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  check cil "map after shutdown degrades to sequential" (List.map succ xs)
    (Pool.map p succ xs)

exception Worker_died

let test_shutdown_joins_all_domains_despite_dead_worker () =
  (* Regression: shutdown must join *every* worker domain even when
     one of them died of an escaped exception — killing one worker
     must not orphan the rest or wedge shutdown.  ~clamp:false forces
     real worker domains even on a 1-core host; unsafe_inject_for_test
     bypasses map's exception capture so the task genuinely kills its
     worker. *)
  let p = Pool.create ~clamp:false ~jobs:3 () in
  check cb "real multi-domain pool" true (Pool.jobs p = 3);
  check cb "raw task injected" true
    (Pool.unsafe_inject_for_test p (fun () -> raise Worker_died));
  (* Give the doomed task time to be picked up before stopping. *)
  Unix.sleepf 0.05;
  (match Pool.shutdown p with
  | () -> ()
  | exception Worker_died -> ());
  (* All domains are joined: a second shutdown is a settled no-op and
     the pool degrades to sequential instead of hanging. *)
  Pool.shutdown p;
  check cil "pool usable (sequentially) after teardown" [ 1; 2; 3 ]
    (Pool.map p succ [ 0; 1; 2 ]);
  check cb "injection refused after shutdown" false
    (Pool.unsafe_inject_for_test p ignore)

(* ------------------------------------------------- cache key + memo *)

let bench name = WL.Mediabench.find name

let test_cache_key_includes_fingerprint () =
  let spec = Context.interleaved `Ipbc in
  let b = bench "gsmdec" in
  let ctx = Context.create () in
  let same = Context.create () in
  let other_cfg =
    Context.create ~cfg:{ Config.default with Config.ab_entries = 8 } ()
  in
  let other_seed = Context.create ~seed:8 () in
  check cs "equal configs give equal keys" (Context.cache_key ctx b spec)
    (Context.cache_key same b spec);
  check cb "differing config changes the key" false
    (Context.cache_key ctx b spec = Context.cache_key other_cfg b spec);
  check cb "differing seed changes the key" false
    (Context.cache_key ctx b spec = Context.cache_key other_seed b spec)

(* A context's memos create hundreds of named sync objects; their names
   are only formatted and kept once a trace records them, so contexts
   that are dropped leave nothing behind. *)
let test_context_create_leaves_heap_flat () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  for _ = 1 to 50 do ignore (Context.create ()) done;
  let before = live () in
  for _ = 1 to 1000 do ignore (Context.create ()) done;
  let after = live () in
  if after > before + 50_000 then
    Alcotest.failf "1000 contexts grew the live heap from %d to %d words" before after


let test_memo_single_flight () =
  (* Hammer one key from 8 domains: single-flight means exactly one
     compilation, so every caller gets the physically same list. *)
  let ctx = Context.create () in
  let spec = Context.interleaved `Ipbc in
  let results =
    Pool.map_ordered ~jobs:8
      (fun _ -> Context.compiled ctx (bench "gsmdec") spec)
      (List.init 8 Fun.id)
  in
  match results with
  | [] -> Alcotest.fail "no results"
  | first :: rest ->
      List.iteri
        (fun i cs ->
          check cb (Printf.sprintf "caller %d shares the compilation" (i + 1))
            true (cs == first))
        rest

let test_memo_contention_raw_domains () =
  (* Hammer the sharded memo with raw domains — the pool clamps its
     worker count to the hardware's parallelism, so on a 1-core host it
     would serialize and never actually contend.  Domain.spawn bypasses
     the clamp: 4 domains on the same key must share one compilation
     (single-flight per shard), and 4 domains on disjoint keys must each
     land its own entry that a later lookup hits physically. *)
  let ctx = Context.create () in
  let spec = Context.interleaved `Ipbc in
  (* Same key from every domain. *)
  let same =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> Context.compiled ctx (bench "gsmdec") spec))
    |> List.map Domain.join
  in
  (match same with
  | first :: rest ->
      List.iteri
        (fun i cs ->
          check cb
            (Printf.sprintf "same-key domain %d shares the compilation" (i + 1))
            true (cs == first))
        rest
  | [] -> Alcotest.fail "no results");
  (* Disjoint keys concurrently: every key compiles once and is cached. *)
  let names = [ "epicdec"; "jpegenc"; "pgpdec"; "rasta" ] in
  let disjoint =
    List.map
      (fun n -> Domain.spawn (fun () -> Context.compiled ctx (bench n) spec))
      names
    |> List.map Domain.join
  in
  List.iter2
    (fun n cs ->
      check cb (n ^ " re-fetch hits the entry the domain installed") true
        (Context.compiled ctx (bench n) spec == cs))
    names disjoint

(* ----------------------------------------------- bounded memo (cap) *)

let test_memo_cap_evicts_fifo () =
  let memo = Vliw_parallel.Memo.create ~shards:1 ~cap:3 () in
  let computed = ref 0 in
  let get k =
    Vliw_parallel.Memo.get memo k (fun () ->
        incr computed;
        String.length k)
  in
  List.iter (fun k -> ignore (get k)) [ "a"; "bb"; "ccc"; "dddd"; "eeeee" ];
  let s = Vliw_parallel.Memo.stats memo in
  check ci "resident size bounded by cap" 3 s.Vliw_parallel.Memo.size;
  check ci "two oldest entries evicted" 2 s.Vliw_parallel.Memo.evictions;
  check ci "five misses" 5 s.Vliw_parallel.Memo.misses;
  check ci "no hits yet" 0 s.Vliw_parallel.Memo.hits;
  (* Evicted keys recompute (correctly); resident keys hit. *)
  check ci "evicted key recomputes the same value" 1 (get "a");
  check ci "recompute ran" 6 !computed;
  check ci "resident key answers from the table" 5 (get "eeeee");
  check ci "hit did not recompute" 6 !computed;
  let s = Vliw_parallel.Memo.stats memo in
  check ci "hit counted" 1 s.Vliw_parallel.Memo.hits;
  check ci "size still bounded" 3 s.Vliw_parallel.Memo.size

let test_memo_cap_contention () =
  (* Raw domains hammering a memo whose cap is far below the working
     set: every get must still return the key's own value (an evicted
     key just recomputes), and the counters must balance. *)
  let memo = Vliw_parallel.Memo.create ~shards:2 ~cap:4 () in
  let keys = List.init 16 (fun i -> Printf.sprintf "k%02d" i) in
  let rounds = 5 in
  let computes = Atomic.make 0 in
  let worker () =
    List.concat_map
      (fun _ ->
        List.map
          (fun k ->
            ( k,
              Vliw_parallel.Memo.get memo k (fun () ->
                  Atomic.incr computes;
                  "v:" ^ k) ))
          keys)
      (List.init rounds Fun.id)
  in
  let results =
    List.init 4 (fun _ -> Domain.spawn worker) |> List.concat_map Domain.join
  in
  List.iter
    (fun (k, v) -> check cs "every get returns its key's value" ("v:" ^ k) v)
    results;
  let s = Vliw_parallel.Memo.stats memo in
  (* The counters are atomics behind the sync shim, so under real
     contention the totals are exact, not approximate. *)
  check ci "hits + misses = total gets"
    (4 * rounds * List.length keys)
    (s.Vliw_parallel.Memo.hits + s.Vliw_parallel.Memo.misses);
  check ci "misses = computations that actually ran" (Atomic.get computes)
    s.Vliw_parallel.Memo.misses;
  check ci "every computed entry is resident or evicted"
    (Atomic.get computes)
    (s.Vliw_parallel.Memo.size + s.Vliw_parallel.Memo.evictions);
  check cb "size stays within the (rounded-up) cap" true
    (s.Vliw_parallel.Memo.size <= 4 + 2);
  check cb "the small cap forced evictions" true
    (s.Vliw_parallel.Memo.evictions > 0)

let test_context_memo_stats_surface () =
  (* Context surfaces its two memo tables' counters for the sweep's
     --json output. *)
  let ctx = Context.create () in
  let spec = Context.interleaved `Ipbc in
  ignore (Context.compiled ctx (bench "gsmdec") spec);
  ignore (Context.compiled ctx (bench "gsmdec") spec);
  match List.assoc_opt "compiles" (Context.memo_stats ctx) with
  | None -> Alcotest.fail "no 'compiles' entry in memo_stats"
  | Some s ->
      check ci "one compile resident" 1 s.Vliw_parallel.Memo.size;
      check ci "second fetch hit" 1 s.Vliw_parallel.Memo.hits;
      check ci "first fetch missed" 1 s.Vliw_parallel.Memo.misses

(* --------------------------------------------------- determinism *)

let with_default_jobs jobs f =
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs saved) f

let test_schedules_deterministic_across_jobs () =
  let spec = Context.interleaved `Ipbc in
  let names = [ "gsmdec"; "epicdec"; "jpegenc" ] in
  let compile jobs =
    with_default_jobs jobs (fun () ->
        let ctx = Context.create () in
        Pool.map_ordered (fun n -> Context.compiled ctx (bench n) spec) names)
  in
  let seq = compile 1 and par = compile 4 in
  List.iter2
    (fun cs1 cs2 ->
      List.iter2
        (fun (c1 : Pipeline.compiled) (c2 : Pipeline.compiled) ->
          check cb "schedule equal across jobs" true
            (c1.Pipeline.schedule = c2.Pipeline.schedule);
          check cb "unroll factor equal across jobs" true
            (c1.Pipeline.unroll_factor = c2.Pipeline.unroll_factor))
        cs1 cs2)
    seq par

(* ------------------------------------- single-flight crash hardening *)

exception Flight_crash

(* A computation that raises while holding a single-flight slot must
   release the claim: the next caller of the key recomputes (fresh
   miss) instead of inheriting a poisoned entry or blocking forever.
   This is the property the compile service's crash isolation and
   deadline cancellation both lean on. *)
let test_memo_crashed_flight_releases_slot () =
  let memo : int Vliw_parallel.Memo.t = Vliw_parallel.Memo.create () in
  let computes = Atomic.make 0 in
  (match
     Vliw_parallel.Memo.get memo "key" (fun () ->
         Atomic.incr computes;
         raise Flight_crash)
   with
  | _ -> Alcotest.fail "expected the computation's exception"
  | exception Flight_crash -> ());
  (* The key is free again: a second caller recomputes successfully. *)
  let v =
    Vliw_parallel.Memo.get memo "key" (fun () ->
        Atomic.incr computes;
        41)
  in
  check ci "second caller recomputed" 41 v;
  check ci "both attempts actually computed" 2 (Atomic.get computes);
  let st = Vliw_parallel.Memo.stats memo in
  check ci "two misses (crash + recompute)" 2 st.Vliw_parallel.Memo.misses;
  check ci "one resident entry" 1 st.Vliw_parallel.Memo.size

let test_memo_crashed_flight_waiters_retry () =
  (* Concurrent flavour: one domain crashes while holding the claim,
     the domains blocked on it must wake, retry and succeed. *)
  let memo : int Vliw_parallel.Memo.t = Vliw_parallel.Memo.create () in
  let first_in = Atomic.make false in
  let crasher =
    Domain.spawn (fun () ->
        match
          Vliw_parallel.Memo.get memo "key" (fun () ->
              Atomic.set first_in true;
              (* Hold the claim long enough for waiters to block. *)
              Unix.sleepf 0.05;
              raise Flight_crash)
        with
        | _ -> `Computed
        | exception Flight_crash -> `Crashed)
  in
  while not (Atomic.get first_in) do
    Domain.cpu_relax ()
  done;
  let waiters =
    List.init 3 (fun i ->
        Domain.spawn (fun () ->
            Vliw_parallel.Memo.get memo "key" (fun () -> 100 + i)))
  in
  check cb "first flight crashed" true (Domain.join crasher = `Crashed);
  let results = List.map Domain.join waiters in
  (* Exactly one waiter recomputed; the others saw its result. *)
  (match results with
  | r :: rest ->
      check cb "waiter recomputed a real value" true (r >= 100 && r < 103);
      List.iter (fun r' -> check ci "waiters agree" r r') rest
  | [] -> assert false);
  let st = Vliw_parallel.Memo.stats memo in
  check ci "crash + one recompute = two misses" 2
    st.Vliw_parallel.Memo.misses

(* ------------------------------------------------ cancellation tokens *)

let test_cancel_token_budget_trips_deterministically () =
  let module Cancel = Vliw_parallel.Cancel in
  let work budget =
    let token = Cancel.create ~budget in
    match
      Cancel.with_token token (fun () ->
          for i = 1 to 100 do
            Cancel.tick ~stage:(Printf.sprintf "step %d" i) 1
          done;
          `Finished)
    with
    | v -> v
    | exception Cancel.Cancelled { stage; spent; budget } ->
        `Cancelled (stage, spent, budget)
  in
  check cb "large budget finishes" true (work 1000 = `Finished);
  (match work 7 with
  | `Cancelled (stage, spent, budget) ->
      check cs "trips at the 8th tick exactly" "step 8" stage;
      check ci "spent counts the tripping tick" 8 spent;
      check ci "budget echoed" 7 budget
  | `Finished -> Alcotest.fail "budget 7 must cancel");
  (* Replay: the same budget cancels at the same tick. *)
  check cb "deterministic replay" true (work 7 = work 7)

let test_cancel_token_scoped_and_restored () =
  let module Cancel = Vliw_parallel.Cancel in
  check cb "no token outside scope" true (Cancel.active () = None);
  let token = Cancel.create ~budget:5 in
  (match
     Cancel.with_token token (fun () ->
         Cancel.tick 1;
         Cancel.remaining ())
   with
  | Some r -> check ci "remaining inside scope" 4 r
  | None -> Alcotest.fail "token must be visible inside with_token");
  check cb "token uninstalled after scope" true (Cancel.active () = None);
  (* ticks outside any scope are free no-ops *)
  Cancel.tick 1_000_000;
  check cb "cancelled flight releases memo slot" true
    (let memo : int Vliw_parallel.Memo.t = Vliw_parallel.Memo.create () in
     let t = Cancel.create ~budget:0 in
     (match
        Cancel.with_token t (fun () ->
            Vliw_parallel.Memo.get memo "k" (fun () ->
                Cancel.tick ~stage:"inside flight" 1;
                0))
      with
     | _ -> false
     | exception Cancel.Cancelled _ ->
         (* the claim was released: a fresh caller recomputes *)
         Vliw_parallel.Memo.get memo "k" (fun () -> 7) = 7))

let render_fig4 ctx =
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  Vliw_experiments.Fig4.run ppf ctx;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_fig4_output_byte_identical_across_jobs () =
  let seq = with_default_jobs 1 (fun () -> render_fig4 (Context.create ())) in
  let par = with_default_jobs 4 (fun () -> render_fig4 (Context.create ())) in
  check cs "fig4 rendering byte-identical at jobs=4" seq par

let suite =
  [
    ("pool: map_ordered preserves order", `Quick, test_map_ordered_preserves_order);
    ("pool: map_ordered equals List.map (random)", `Quick,
     test_map_ordered_random_lists);
    ("pool: earliest exception propagates", `Quick, test_exception_propagates);
    ("pool: nested maps don't deadlock", `Quick, test_nested_map_runs_sequentially);
    ("pool: create/reuse/shutdown", `Quick, test_explicit_pool_lifecycle);
    ("pool: shutdown joins all domains despite a dead worker", `Quick,
     test_shutdown_joins_all_domains_despite_dead_worker);
    ("context: cache key carries config fingerprint", `Quick,
     test_cache_key_includes_fingerprint);
    ("context: memo is single-flight under contention", `Slow,
     test_memo_single_flight);
    ("context: sharded memo holds under raw-domain contention", `Slow,
     test_memo_contention_raw_domains);
    ("memo: crashed flight releases its slot (regression)", `Quick,
     test_memo_crashed_flight_releases_slot);
    ("memo: waiters retry after a crashed flight", `Slow,
     test_memo_crashed_flight_waiters_retry);
    ("cancel: budget trips at a deterministic tick", `Quick,
     test_cancel_token_budget_trips_deterministically);
    ("cancel: token is scoped and memo-safe", `Quick,
     test_cancel_token_scoped_and_restored);
    ("memo: cap evicts FIFO and counts hits/misses/evictions", `Quick,
     test_memo_cap_evicts_fifo);
    ("memo: capped memo stays correct under domain contention", `Slow,
     test_memo_cap_contention);
    ("context: memo_stats surfaces both tables", `Quick,
     test_context_memo_stats_surface);
    ("determinism: schedules equal at jobs=1 and jobs=4", `Slow,
     test_schedules_deterministic_across_jobs);
    ("determinism: fig4 byte-identical at jobs=1 and jobs=4", `Slow,
     test_fig4_output_byte_identical_across_jobs);
    ("context: create leaves the heap flat", `Quick,
     test_context_create_leaves_heap_flat);
  ]
