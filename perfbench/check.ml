(* Output checks that do not trust the code under measurement: the deep
   schedule verifier, the simulator's conservation laws, and the
   list-based reference executor.  Every check counts as one attempted
   operation; a failing one counts as failed and is named on stderr. *)

module Config = Vliw_arch.Config
module Loop = Vliw_ir.Loop
module Ddg = Vliw_ir.Ddg
module Pipeline = Vliw_core.Pipeline
module Schedule = Vliw_sched.Schedule
module Executor = Vliw_sim.Executor
module Machine = Vliw_sim.Machine
module Stats = Vliw_sim.Stats
module Diagnostic = Vliw_analysis.Diagnostic
module Audit_sim = Vliw_analysis.Audit_sim
module Verify_schedule = Vliw_analysis.Verify_schedule
module WL = Vliw_workloads

let attempted = ref 0
let failed = ref 0

let expect ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    prerr_endline ("FAIL " ^ Lazy.force what)
  end

let no_errors ds what =
  List.iter
    (fun d ->
      if d.Diagnostic.severity = Diagnostic.Error then
        prerr_endline ("  " ^ Diagnostic.to_json d))
    ds;
  expect (not (Diagnostic.has_errors ds)) what

let verify cfg (c : Pipeline.compiled) ~where =
  no_errors
    (Verify_schedule.verify cfg c.Pipeline.loop.Loop.ddg
       ~latency:(fun i -> c.Pipeline.latencies.(i))
       ~allow_cross_cluster_mem:(Pipeline.allow_cross_cluster_mem c.Pipeline.target)
       ~where c.Pipeline.schedule)
    (lazy ("schedule verifier: " ^ where))

(* Unrolled iterations a run simulated: the whole loop, or the cut a
   trip cap (in source iterations) imposes. *)
let simulated_trip ?trip_cap (c : Pipeline.compiled) =
  let full = c.Pipeline.loop.Loop.trip_count in
  match Replay.trip_of trip_cap c with
  | None -> full
  | Some t -> max 1 (min t full)

let audit_loop ~arch ?trip_cap (c : Pipeline.compiled) stats ~where =
  let ddg = c.Pipeline.loop.Loop.ddg in
  no_errors
    (Audit_sim.audit_stats ~arch
       ~n_mem_ops:(List.length (Ddg.memory_ops ddg))
       ~trip:(simulated_trip ?trip_cap c)
       ~ii:c.Pipeline.schedule.Schedule.ii
       ~stage_count:(Schedule.stage_count c.Pipeline.schedule)
       ~where stats)
    (lazy ("conservation laws: " ^ where))

(* Widest element of the access stream in interleaving units, which
   decides whether the traffic balances are equalities or bounds. *)
let max_parts cfg compiled =
  List.fold_left
    (fun acc (c : Pipeline.compiled) ->
      List.fold_left
        (fun acc op ->
          match (Ddg.op c.Pipeline.loop.Loop.ddg op).Vliw_ir.Operation.mem with
          | None -> acc
          | Some m ->
              let i = cfg.Config.interleaving_factor in
              max acc ((m.Vliw_ir.Mem_access.granularity + i - 1) / i))
        acc
        (Ddg.memory_ops c.Pipeline.loop.Loop.ddg))
    1 compiled

let audit_traffic cfg ~arch compiled ~stats ~traffic ~where =
  no_errors
    (Audit_sim.audit_traffic ~arch ~stats ~traffic
       ~max_parts:(max_parts cfg compiled) ~where ())
    (lazy ("traffic laws: " ^ where))

(* The list-based reference executor over a whole benchmark on one
   fresh machine, loop by loop, each loop cut like a capped batched
   run.  [layout_cfg] is the plan's configuration when the cell's
   differs from it in cache geometry.  Returns per-loop statistics and
   the machine's traffic. *)
let reference cfg ?(layout_cfg = cfg) ~arch ~aligned ~seed ?trip_cap compiled =
  let exec_layout =
    WL.Layout.create layout_cfg ~aligned ~run:WL.Layout.Execution_run ~seed
  in
  let machine = Machine.create cfg arch in
  let per_loop =
    List.map
      (fun (c : Pipeline.compiled) ->
        let cut =
          {
            c with
            Pipeline.loop =
              { c.Pipeline.loop with Loop.trip_count = simulated_trip ?trip_cap c };
          }
        in
        Executor.run_loop_reference cfg machine cut
          ~addr_of:(WL.Layout.addr_fn exec_layout c.Pipeline.loop.Loop.ddg)
          ())
      compiled
  in
  (per_loop, Machine.traffic_summary machine)

let total stats =
  let agg = Stats.create () in
  List.iter (fun s -> Stats.accumulate ~into:agg s) stats;
  agg
