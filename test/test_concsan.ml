(* The concurrency sanitizer: the trace analyzer on clean and mutant
   histories, the DPOR explorer on the closed scenarios, seed
   replayability, and the full driver's clean bill of health. *)

module Sync = Vliw_parallel.Sync
module D = Vliw_analysis.Diagnostic
module Vsched = Vliw_concsan.Vsched
module Scenarios = Vliw_concsan.Scenarios
module Mutations = Vliw_concsan.Mutations
module Concsan = Vliw_concsan.Concsan

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string
let seed = 42L

let null_ppf =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* ------------------------------------------------ trace analyzer *)

let test_hbrace_clean_on_disciplined_code () =
  (* A correctly locked producer/consumer leaves no diagnostics. *)
  let (), tr =
    Sync.record_scope (fun () ->
        let m = Sync.mutex ~name:"t.m" () in
        let cv = Sync.condition ~name:"t.cv" () in
        let c = Sync.cell ~name:"t.data" () in
        let ready = ref false in
        let consumer =
          Sync.spawn (fun () ->
              Sync.lock m;
              Sync.read c;
              while not !ready do
                Sync.wait cv m;
                Sync.read c
              done;
              Sync.unlock m)
        in
        let producer =
          Sync.spawn (fun () ->
              Sync.lock m;
              Sync.write c;
              ready := true;
              Sync.signal cv;
              Sync.unlock m)
        in
        Sync.join consumer;
        Sync.join producer)
  in
  let diags = Vliw_concsan.Hbrace.analyze tr in
  check ci "no diagnostics on clean code" 0 (List.length diags)

let test_hbrace_fork_join_orders_unlocked_access () =
  (* Parent writes before fork and after join with no lock: the
     fork/join happens-before edges order it — no race. *)
  let (), tr =
    Sync.record_scope (fun () ->
        let c = Sync.cell ~name:"t.cell" () in
        let x = ref 0 in
        Sync.write c;
        x := 1;
        let h =
          Sync.spawn (fun () ->
              Sync.write c;
              x := 2)
        in
        Sync.join h;
        Sync.write c;
        x := 3)
  in
  check ci "fork/join edges suppress the race" 0
    (List.length (Vliw_concsan.Hbrace.analyze tr))

(* ------------------------------------------------ mutation suite *)

let test_mutations_caught_by_expected_pass () =
  List.iter
    (fun (m : Mutations.t) ->
      let diags = m.Mutations.m_run () in
      check cb
        (Printf.sprintf "mutant %s flagged by %s" m.Mutations.m_name
           m.Mutations.m_expected)
        true
        (List.exists
           (fun d -> d.D.pass = m.Mutations.m_expected)
           diags))
    (Mutations.all ~seed)

(* ------------------------------------------------ explorer *)

let test_scenarios_hold_under_exploration () =
  List.iter
    (fun (sc : Vsched.scenario) ->
      let o = Vsched.explore ~seed sc in
      check ci
        (Printf.sprintf "scenario %s has no failures" sc.Vsched.name)
        0
        (List.length o.Vsched.failures);
      check cb
        (Printf.sprintf "scenario %s explored more than one interleaving"
           sc.Vsched.name)
        true (o.Vsched.executions > 1))
    Scenarios.all

let test_explorer_seed_replayable () =
  let a = Concsan.scenario_report ~seed () in
  let b = Concsan.scenario_report ~seed () in
  check cs "scenario report byte-identical for a fixed seed" a b;
  (* A different seed shuffles the search order but must reach the
     same verdicts (it explores the same space). *)
  let c = Concsan.scenario_report ~seed:7L () in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check cb "different seed still finds no failures" false
    (contains c "  failure ")

let test_deadlock_detected_deterministically () =
  (* The missing-claim-release mutant must deadlock under exploration
     at any seed, and the reported schedule must replay identically. *)
  let run s =
    Vsched.explore ~seed:s (Mutations.missing_claim_release_scenario ())
  in
  let o1 = run seed and o2 = run seed in
  check cb "deadlock found" true
    (List.exists
       (fun (f : Vsched.failure) -> f.Vsched.pass = "concsan/deadlock")
       o1.Vsched.failures);
  check cb "same seed, same failures" true
    (o1.Vsched.failures = o2.Vsched.failures);
  let o3 = run 1234L in
  check cb "other seeds find the deadlock too" true
    (List.exists
       (fun (f : Vsched.failure) -> f.Vsched.pass = "concsan/deadlock")
       o3.Vsched.failures)

(* Satellite property: a cancelled flight's memo slot is always
   re-claimable — explored across random scheduler seeds. *)
let test_cancel_release_property_across_seeds () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:25
       ~name:"cancelled flight re-claimable at every exploration seed"
       QCheck.(make Gen.(int_bound 1_000_000))
       (fun s ->
         let o =
           Vsched.explore ~seed:(Int64.of_int s)
             Scenarios.memo_cancel_release
         in
         o.Vsched.failures = []))

(* ------------------------------------------------ full driver *)

let test_driver_clean_run () =
  let summary = Concsan.run ~seed null_ppf in
  check ci "zero error diagnostics on main" 0 summary.Concsan.errors;
  check ci "all scenarios ran" (List.length Scenarios.all)
    summary.Concsan.scenarios;
  check cb "recorded traces are non-trivial" true
    (summary.Concsan.trace_events > 100 && summary.Concsan.trace_threads >= 5)

let test_mutation_driver_catches_everything () =
  check cb "run_mutations reports full catch" true
    (Concsan.run_mutations ~seed null_ppf)

(* Names are formatted and registered on an object's first recorded
   event, so a memo's per-shard objects still resolve to their indexed
   names in a trace, and an object no trace has seen has no name yet. *)
let test_names_resolve_on_first_event () =
  let unseen = Sync.mutex ~name:"t.unseen" () in
  let (), tr =
    Sync.record_scope (fun () ->
        let memo = Vliw_parallel.Memo.create ~shards:1 () in
        ignore (Vliw_parallel.Memo.get memo "k" (fun () -> 1) : int))
  in
  let names = List.map snd tr.Sync.Trace.names in
  List.iter
    (fun n -> check cb n true (List.mem n names))
    [ "memo.shard0.lock"; "memo.shard0.cache"; "memo.shard0.ready"; "memo.shard0.misses" ];
  check (Alcotest.option cs) "never-recorded object" None
    (Sync.name_of_id (Sync.id_of_mutex unseen))

let suite =
  [
    ("hbrace: clean locked code yields no diagnostics", `Quick,
     test_hbrace_clean_on_disciplined_code);
    ("hbrace: fork/join edges order unlocked accesses", `Quick,
     test_hbrace_fork_join_orders_unlocked_access);
    ("mutations: every bug class caught by its pass id", `Slow,
     test_mutations_caught_by_expected_pass);
    ("vsched: closed scenarios hold under DPOR", `Slow,
     test_scenarios_hold_under_exploration);
    ("vsched: exploration is seed-replayable", `Slow,
     test_explorer_seed_replayable);
    ("vsched: claim-leak deadlock found at every seed", `Quick,
     test_deadlock_detected_deterministically);
    ("vsched: cancelled flight re-claimable (qcheck seeds)", `Slow,
     test_cancel_release_property_across_seeds);
    ("driver: clean run has zero errors", `Slow, test_driver_clean_run);
    ("driver: mutation suite fully caught", `Slow,
     test_mutation_driver_catches_everything);
    ("sync: names resolve on first recorded event", `Quick,
     test_names_resolve_on_first_event);
  ]
