(* Stage-by-stage replay of the compile and simulate paths through the
   layers' public functions, with a span around every layer call.  The
   replay must reproduce the library's own results exactly (see
   [same_compiled] and the workloads' gates); otherwise the layer
   numbers would describe another program. *)

module Config = Vliw_arch.Config
module Loop = Vliw_ir.Loop
module Ddg = Vliw_ir.Ddg
module Pipeline = Vliw_core.Pipeline
module Latency_assign = Vliw_core.Latency_assign
module Unroll_select = Vliw_core.Unroll_select
module Chains = Vliw_core.Chains
module Cluster_heuristic = Vliw_core.Cluster_heuristic
module Engine = Vliw_sched.Engine
module Mrt = Vliw_sched.Mrt
module Resources = Vliw_sched.Resources
module Schedule = Vliw_sched.Schedule
module Executor = Vliw_sim.Executor
module Machine = Vliw_sim.Machine
module Stats = Vliw_sim.Stats
module WL = Vliw_workloads

(* The cluster policy Pipeline derives from a target.  Pipeline keeps
   this mapping private; a drift between the two shows as a replay-gate
   mismatch, not as silently different layer numbers. *)
let policy target ~chains ~profile =
  match target with
  | Pipeline.Interleaved { heuristic = `Ibc; chains = true } ->
      Cluster_heuristic.Ibc chains
  | Pipeline.Interleaved { heuristic = `Ipbc; chains = true } ->
      Cluster_heuristic.Ipbc (chains, profile)
  | Pipeline.Interleaved { heuristic = `Ipbc; chains = false } ->
      Cluster_heuristic.Preferred_no_chains profile
  | Pipeline.Multivliw -> Cluster_heuristic.Ibc chains
  | Pipeline.Interleaved { heuristic = `Ibc; chains = false }
  | Pipeline.Unified _ ->
      Cluster_heuristic.All_free

let profiler cfg ~aligned ~seed =
  WL.Profiling.profiler cfg
    (WL.Layout.create cfg ~aligned ~run:WL.Layout.Profile_run ~seed)

let compile_factor cfg ~target ~profiler ~tag ~source ~base_profile factor =
  let attr = Printf.sprintf "%s/%s x%d" tag source.Loop.name factor in
  let loop = Span.with_span "unroll" ~attr (fun () -> Loop.unrolled source ~factor) in
  Span.count "unroll.candidates" 1.0;
  Span.count "unroll.ops_out" (float_of_int (Ddg.n_ops loop.Loop.ddg));
  let ddg = loop.Loop.ddg in
  let profile =
    if factor = 1 then base_profile
    else Span.with_span "profiling" ~attr (fun () -> profiler loop)
  in
  let mode = Pipeline.mode_of_target cfg target in
  let latencies =
    Span.with_span "latency_assign" ~attr (fun () ->
        Latency_assign.assign cfg ddg ~mode ~profile)
  in
  let latency i = latencies.(i) in
  let chains, hooks =
    Span.with_span "chains" ~attr (fun () ->
        let chains = Chains.build ddg in
        (chains, Cluster_heuristic.hooks ddg (policy target ~chains ~profile)))
  in
  let rej0 = Mrt.bus_rejections () in
  let schedule =
    Span.with_span "engine" ~attr (fun () ->
        Engine.schedule cfg ddg ~latency ~hooks
          ~allow_cross_cluster_mem:(Pipeline.allow_cross_cluster_mem target)
          ())
  in
  Span.count "engine.bus_rejections" (float_of_int (Mrt.bus_rejections () - rej0));
  match schedule with
  | None -> failwith ("replay: no schedule for " ^ attr)
  | Some schedule ->
      let mii =
        Span.with_span "mii_probe" ~attr (fun () -> Resources.mii cfg ddg ~latency)
      in
      Span.count "engine.ii_over_mii" (float_of_int (schedule.Schedule.ii - mii));
      {
        Pipeline.source;
        target;
        unroll_factor = factor;
        loop;
        profile;
        latencies;
        chains;
        schedule;
        estimated_cycles =
          Unroll_select.estimated_cycles ~trip_count:loop.Loop.trip_count
            ~ii:schedule.Schedule.ii
            ~stage_count:(Schedule.stage_count schedule);
        considered = [];
        bus_window_rejections = 0;
      }

(* Pipeline.compile, one layer call at a time. *)
let compile cfg ~target ~strategy ~profiler ~tag source =
  Span.with_span "compile_loop" ~attr:(tag ^ "/" ^ source.Loop.name) (fun () ->
      let rej0 = Mrt.bus_rejections () in
      let base_profile =
        Span.with_span "profiling" ~attr:(tag ^ "/" ^ source.Loop.name)
          (fun () -> profiler source)
      in
      let factors =
        Unroll_select.candidate_factors cfg source.Loop.ddg ~profile:base_profile
          strategy
      in
      let cands =
        List.map
          (compile_factor cfg ~target ~profiler ~tag ~source ~base_profile)
          factors
      in
      match cands with
      | [] -> failwith ("replay: no candidate factor for " ^ source.Loop.name)
      | first :: rest ->
          let best =
            List.fold_left
              (fun (best : Pipeline.compiled) (c : Pipeline.compiled) ->
                if c.estimated_cycles <= best.estimated_cycles then c else best)
              first rest
          in
          {
            best with
            considered =
              List.map
                (fun (c : Pipeline.compiled) -> (c.unroll_factor, c.estimated_cycles))
                cands;
            bus_window_rejections = Mrt.bus_rejections () - rej0;
          })

(* What the gate compares: everything Pipeline.compile decides. *)
let same_compiled (a : Pipeline.compiled) (b : Pipeline.compiled) =
  a.unroll_factor = b.unroll_factor
  && a.considered = b.considered
  && a.latencies = b.latencies
  && a.schedule = b.schedule
  && a.estimated_cycles = b.estimated_cycles
  && a.bus_window_rejections = b.bus_window_rejections

let trip_of trip_cap (c : Pipeline.compiled) =
  match trip_cap with
  | None -> None
  | Some cap ->
      let uf = max 1 c.Pipeline.unroll_factor in
      Some ((cap + uf - 1) / uf)

(* Context.run_batch, one layer call at a time: per loop the address
   trace, then one lockstep kernel run over every cell.  Returns each
   cell's per-loop statistics and its machine. *)
let simulate cfg ~aligned ~seed ~tag ?trip_cap cells compiled =
  let exec_layout =
    WL.Layout.create cfg ~aligned ~run:WL.Layout.Execution_run ~seed
  in
  let machines =
    Span.with_span "machines" ~attr:tag (fun () -> Machine.create_batch_cfgs cells)
  in
  let bcells =
    Array.map (fun machine -> { Executor.machine; attractable = None }) machines
  in
  let per_loop =
    List.map
      (fun (c : Pipeline.compiled) ->
        let attr = tag ^ "/" ^ c.Pipeline.source.Loop.name in
        let addr_trace =
          Span.with_span "executor.trace" ~attr (fun () ->
              Executor.address_trace c
                ~addr_of:(WL.Layout.addr_fn exec_layout c.Pipeline.loop.Loop.ddg))
        in
        let stats =
          Span.with_span "executor.kernel" ~attr (fun () ->
              Executor.run_loop_batched cfg bcells c ~addr_trace
                ?trip:(trip_of trip_cap c) ())
        in
        Array.iter
          (fun s -> Span.count "executor.accesses" (float_of_int (Stats.total_accesses s)))
          stats;
        (c, stats))
      compiled
  in
  (machines, per_loop)

(* Per-cell totals over every loop, in cell order. *)
let aggregate machines per_loop =
  Array.to_list
    (Array.mapi
       (fun j m ->
         let agg = Stats.create () in
         List.iter (fun (_, stats) -> Stats.accumulate ~into:agg stats.(j)) per_loop;
         (agg, Machine.traffic_summary m))
       machines)
