(* The four workloads.  Each gives an untraced run (end-to-end numbers,
   then the output checks) and a traced run (the library's own result,
   untraced, then the stage-by-stage replay under spans, compared with
   it).  Contexts keep the paper's layout seed 7; the workload seed
   only drives the service's request order and the sampled checks. *)

module Config = Vliw_arch.Config
module Loop = Vliw_ir.Loop
module Pipeline = Vliw_core.Pipeline
module US = Vliw_core.Unroll_select
module Schedule = Vliw_sched.Schedule
module Machine = Vliw_sim.Machine
module Stats = Vliw_sim.Stats
module Memo = Vliw_parallel.Memo
module E = Vliw_experiments
module Context = E.Context
module Dse = E.Dse
module WL = Vliw_workloads
module Serve = Vliw_service.Serve
module Proto = Vliw_service.Proto

let layout_seed = 7
let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let ms s = s *. 1000.0

(* One unit of a workload: its timed region and the user-visible
   operations inside it. *)
type sample = { wall : float; ops_ms : float list }

type e2e = {
  setup : float list;
  units : sample list;
  ii_sum : int;
}

(* Set-up is cheap next to a unit, so it is repeated and the caller
   reports the median.  The samples are spread over the run, a
   few before each unit and the rest after the last one, so that, like
   the units, they see the host over the whole run, not one moment. *)
let setup_reps = 200
let setup_per_unit = 10

(* A set-up function timed as a whole. *)
let timed_setup f () = fst (timed f)

(* Units back to back for [seconds]: at least one, and no further unit
   once the last one's time would carry the run past [seconds].  The
   last unit's state is what the checks inspect.  A full collection
   before each unit keeps one unit's garbage out of the next one's
   time.  The peak heap is read after the first unit, so it does not
   depend on how many units fit.  [setup] returns one set-up time. *)
let peak_heap_mb = ref 0.0

let run_units ~setup ~seconds f =
  let samples = ref [] in
  let time_setup n = for _ = 1 to n do samples := setup () :: !samples done in
  let t0 = now () in
  let rec go acc =
    time_setup setup_per_unit;
    Gc.full_major ();
    let s, st = f () in
    if acc = [] then
      peak_heap_mb :=
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.0;
    let acc = s :: acc in
    if now () -. t0 +. s.wall > seconds then (List.rev acc, st) else go acc
  in
  let units, st = go [] in
  time_setup (setup_reps - List.length !samples);
  (!samples, units, st)

(* Nearest-rank percentile; 0 for no samples. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* The host's speed drifts by up to 1.7x, in phases from a few seconds
   to minutes, and how much of a run falls in slow phases changes from
   run to run.  A median over a run's units takes the speed of the
   phase that holds most of them; the mean weighs every phase by its
   time, so runs agree more closely. *)
let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum_ii compiled =
  List.fold_left
    (fun a (c : Pipeline.compiled) -> a + c.Pipeline.schedule.Schedule.ii)
    0 compiled

let hit_ratio (s : Memo.stats) =
  let total = s.Memo.hits + s.Memo.misses in
  if total = 0 then 0.0 else float_of_int s.Memo.hits /. float_of_int total

let memo_ratios ctx =
  let r label =
    match List.assoc_opt label (Context.memo_stats ctx) with
    | Some s -> hit_ratio s
    | None -> 0.0
  in
  [ ("context.compile_hit_ratio", r "compiles"); ("context.trace_hit_ratio", r "traces") ]

let pick rng xs k =
  let a = Array.of_list xs in
  List.init (min k (Array.length a)) (fun _ -> a.(Random.State.int rng (Array.length a)))

let gate ok what = Check.expect ok (lazy ("replay gate: " ^ what))

let benches = WL.Mediabench.all

(* The inputs every compile starts from: the suite's loop DDGs, built
   from the kernel specs on each call of Benchspec.loops. *)
let build_loops () = List.iter (fun b -> ignore (WL.Benchspec.loops b)) benches

(* ================================================================ *)
(* paper_t2: the Table 2 evaluation from a cold context. *)

let drivers =
  [
    ("table2", E.Table2.run);
    ("ex1", E.Worked_example.run);
    ("fig4", E.Fig4.run);
    ("fig5", E.Fig5.run);
    ("fig6", E.Fig6.run);
    ("fig7", E.Fig7.run);
    ("fig8", E.Fig8.run);
    ("ablation-hints", E.Ablation_hints.run);
    ("ablation-chains", E.Ablation_chains.run);
    ("ablation-traffic", E.Ablation_traffic.run);
    ("ablation-unroll", E.Ablation_unroll.run);
  ]

(* The evaluation's core grid, as Figure 8 runs it: four compile
   targets (the unified one at both hit latencies) on their memory
   backends. *)
let selective target = { Context.target; strategy = US.Selective; aligned = true }

let core =
  let ab = Machine.Word_interleaved { attraction_buffers = true } in
  [
    ("ipbc", Context.interleaved `Ipbc, ab);
    ("ibc", Context.interleaved `Ibc, ab);
    ("multivliw", selective Pipeline.Multivliw, Machine.Multivliw);
    ("unified5", selective (Pipeline.Unified { slow = true }), Machine.Unified { slow = true });
    ("unified1", selective (Pipeline.Unified { slow = false }), Machine.Unified { slow = false });
  ]

let core_cells =
  List.concat_map (fun (tag, spec, arch) -> List.map (fun b -> (tag, spec, arch, b)) benches) core

let paper_setup () =
  let cfg = Config.default in
  ignore (Context.create ~seed:layout_seed ());
  build_loops ();
  List.iter
    (fun aligned ->
      let (_ : Loop.t -> Vliw_core.Profile.t) = Replay.profiler cfg ~aligned ~seed:layout_seed in
      ignore (WL.Layout.create cfg ~aligned ~run:WL.Layout.Execution_run ~seed:layout_seed))
    [ true; false ]

(* Digest of every unit's rendered reports: they must all agree. *)
let paper_digests = ref []

let paper_unit () =
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  let t0 = now () in
  let ctx = Context.create ~seed:layout_seed () in
  let ops_ms =
    List.map
      (fun (_, run) ->
        let d, () = timed (fun () -> run ppf ctx; Format.pp_print_flush ppf ()) in
        ms d)
      drivers
  in
  let wall = now () -. t0 in
  paper_digests := Digest.string (Buffer.contents buf) :: !paper_digests;
  ({ wall; ops_ms }, ctx)

(* Checks on the core grid of the unit's context: every compiled loop
   verified, every cell's laws audited, a seeded sample of cells
   re-run on the reference executor. *)
let paper_checks ~seed ctx =
  let cfg = Context.cfg ctx in
  let rng = Random.State.make [| seed |] in
  let sampled = pick rng core_cells 3 in
  let ii = ref 0 and cycles = ref 0 in
  List.iter
    (fun ((tag, spec, arch, b) as cell) ->
      let where = tag ^ "/" ^ b.WL.Benchspec.name in
      let compiled = Context.compiled ctx b spec in
      ii := !ii + sum_ii compiled;
      List.iter (fun c -> Check.verify cfg c ~where) compiled;
      let per_loop = Context.run_batch_loops ctx b spec [ Context.cell arch ] in
      List.iter (fun (c, st) -> Check.audit_loop ~arch c (List.hd st) ~where) per_loop;
      (match Context.run_batch ctx b spec [ Context.cell arch ] with
      | [ (agg, traffic) ] ->
          cycles := !cycles + Stats.total_cycles agg;
          Check.audit_traffic cfg ~arch compiled ~stats:agg ~traffic ~where
      | _ -> Check.expect false (lazy ("batch arity: " ^ where)));
      if List.memq cell sampled then begin
        let ref_loops, _ =
          Check.reference cfg ~arch ~aligned:spec.Context.aligned ~seed:layout_seed compiled
        in
        Check.expect
          (List.for_all2 (fun (_, st) r -> Stats.equal (List.hd st) r) per_loop ref_loops)
          (lazy ("reference executor: " ^ where))
      end)
    core_cells;
  (!ii, !cycles)

let paper_e2e ~seed ~seconds =
  let setup, units, ctx = run_units ~setup:(timed_setup paper_setup) ~seconds paper_unit in
  (match !paper_digests with
  | d :: rest ->
      Check.expect (List.for_all (String.equal d) rest)
        (lazy "paper_t2: every unit renders byte-identical reports")
  | [] -> ());
  let ii_sum, _ = paper_checks ~seed ctx in
  { setup; units; ii_sum }

let paper_traced ~seed =
  (* The drivers themselves, for the memo behaviour a reproducer sees. *)
  let _, ctx = paper_unit () in
  let ratios = memo_ratios ctx in
  let _, cycles = paper_checks ~seed ctx in
  (* Reference: the core grid through Context on a fresh context. *)
  let fresh = Context.create ~seed:layout_seed () in
  let ref_wall, reference =
    timed (fun () ->
        List.map
          (fun (_, spec, arch, b) ->
            let r = Context.run_batch fresh b spec [ Context.cell arch ] in
            (Context.compiled fresh b spec, r))
          core_cells)
  in
  let cfg = Config.default in
  Span.enabled := true;
  let replay_wall, replayed =
    timed (fun () ->
        Span.with_span "replay" (fun () ->
            List.map
              (fun (tag, spec, arch, b) ->
                let tag = tag ^ "/" ^ b.WL.Benchspec.name in
                let profiler =
                  Replay.profiler cfg ~aligned:spec.Context.aligned ~seed:layout_seed
                in
                let compiled =
                  List.map
                    (Replay.compile cfg ~target:spec.Context.target
                       ~strategy:spec.Context.strategy ~profiler ~tag)
                    (WL.Benchspec.loops b)
                in
                let machines, per_loop =
                  Replay.simulate cfg ~aligned:spec.Context.aligned ~seed:layout_seed ~tag
                    [ (cfg, arch) ] compiled
                in
                (compiled, Replay.aggregate machines per_loop))
              core_cells))
  in
  Span.enabled := false;
  List.iter2
    (fun (tag, _, _, b) ((rc, rs), (pc, ps)) ->
      let where = tag ^ "/" ^ b.WL.Benchspec.name in
      gate (List.for_all2 Replay.same_compiled rc pc) (where ^ " compile");
      gate
        (List.for_all2
           (fun (s1, t1) (s2, t2) -> Stats.equal s1 s2 && t1 = t2)
           rs ps)
        (where ^ " simulate"))
    core_cells (List.combine reference replayed);
  ( [ ("sim_cycles", float_of_int cycles); ("trace_overhead_s", replay_wall -. ref_wall) ]
    @ ratios,
    ref_wall )

(* ================================================================ *)
(* edge_geometry: selective IPBC compile of the whole suite at the
   design space's edge, 8-byte interleaving (maximum unroll 32).  The
   8-cluster geometry has the same hotspot (latency assignment on
   epicdec/unquantize x8, about 20 s) and would double a run that is
   already the longest, so it is left out until that hotspot is fixed. *)

let edge_cfg = { Config.default with Config.interleaving_factor = 8 }
let ipbc = Pipeline.Interleaved { heuristic = `Ipbc; chains = true }
let edge_where b (c : Pipeline.compiled) =
  "i8/" ^ b.WL.Benchspec.name ^ "/" ^ c.Pipeline.source.Loop.name

let edge_setup () =
  build_loops ();
  (match Config.validate edge_cfg with Ok () -> () | Error e -> failwith e);
  let (_ : Loop.t -> Vliw_core.Profile.t) =
    Replay.profiler edge_cfg ~aligned:true ~seed:layout_seed
  in
  ()

(* As Context.compiled builds them: one profile layout per benchmark,
   then Pipeline.compile loop by loop, each loop timed. *)
let edge_compile () =
  let ops = ref [] in
  let compiled =
    List.concat_map
      (fun b ->
        let profiler = Replay.profiler edge_cfg ~aligned:true ~seed:layout_seed in
        List.map
          (fun l ->
            let d, c =
              timed (fun () ->
                  Pipeline.compile edge_cfg ~target:ipbc ~strategy:US.Selective ~profiler l)
            in
            ops := ms d :: !ops;
            (b, c))
          (WL.Benchspec.loops b))
      benches
  in
  (List.rev !ops, compiled)

let edge_unit () =
  let wall, (ops_ms, compiled) = timed edge_compile in
  ({ wall; ops_ms }, compiled)

let edge_checks compiled =
  List.fold_left
    (fun acc (b, (c : Pipeline.compiled)) ->
      Check.verify edge_cfg c ~where:(edge_where b c);
      acc + c.Pipeline.schedule.Schedule.ii)
    0 compiled

let edge_e2e ~seed:_ ~seconds =
  let setup, units, compiled = run_units ~setup:(timed_setup edge_setup) ~seconds edge_unit in
  { setup; units; ii_sum = edge_checks compiled }

let edge_traced ~seed:_ =
  let ref_wall, (_, reference) = timed edge_compile in
  ignore (edge_checks reference);
  Span.enabled := true;
  let replay_wall, replayed =
    timed (fun () ->
        Span.with_span "replay" (fun () ->
            List.map
              (fun (b, (c : Pipeline.compiled)) ->
                let profiler = Replay.profiler edge_cfg ~aligned:true ~seed:layout_seed in
                Replay.compile edge_cfg ~target:ipbc ~strategy:US.Selective ~profiler
                  ~tag:("i8/" ^ b.WL.Benchspec.name) c.Pipeline.source)
              reference))
  in
  Span.enabled := false;
  List.iter2
    (fun (b, c) p -> gate (Replay.same_compiled c p) (edge_where b c))
    reference replayed;
  ([ ("trace_overhead_s", replay_wall -. ref_wall) ], ref_wall)

(* ================================================================ *)
(* dse_sweep: Dse.sweep on the default grid from a cold context. *)

let dse_spec = Context.interleaved `Ipbc
let dse_trip_cap = 512

let dse_setup () =
  ignore (Context.create ~seed:layout_seed ());
  build_loops ();
  ignore (Dse.enumerate Dse.default_grid)

let dse_unit () =
  let ctx = Context.create ~seed:layout_seed () in
  let wall, r = timed (fun () -> Dse.sweep ctx) in
  ({ wall; ops_ms = [ ms wall ] }, (ctx, r))

(* The sweep's bus ascension: a family's levels in ascending bus order
   up to the first one whose whole-suite compile saw no bus-window
   rejection.  [compile plan bench] yields the level's compiled loops. *)
let dse_levels compile =
  List.concat_map
    (fun (f : Dse.family) ->
      let rec walk = function
        | [] -> []
        | (plan, cells) :: rest ->
            let per_bench = List.map (fun b -> (b, compile plan b)) benches in
            let rejections =
              List.fold_left
                (fun a (_, cs) ->
                  List.fold_left
                    (fun a (c : Pipeline.compiled) -> a + c.Pipeline.bus_window_rejections)
                    a cs)
                0 per_bench
            in
            let level = (plan, cells, per_bench) in
            if rejections = 0 && rest <> [] then [ level ] else level :: walk rest
      in
      walk f.Dse.f_levels)
    (Dse.enumerate Dse.default_grid)

let traffic_of summary =
  let get k = Option.value ~default:0 (List.assoc_opt k summary) in
  get "remote words" + get "attractions"

let cell_arch ab = Machine.Word_interleaved { attraction_buffers = ab > 0 }

(* Structure of the result against the re-walked ascension, every
   compiled loop verified, and a seeded sample of cells re-run on the
   reference executor (the sweep exposes only cell totals, so the
   conservation laws are audited on those re-runs). *)
let dse_checks ~seed ctx (r : Dse.result) =
  let levels =
    dse_levels (fun plan b -> Context.compiled (Context.with_cfg ctx plan) b dse_spec)
  in
  let n_cells = List.fold_left (fun a (_, cells, _) -> a + List.length cells) 0 levels in
  Check.expect
    (List.length levels = r.Dse.compiled_groups
    && n_cells = List.length r.Dse.evaluated
    && n_cells + r.Dse.pruned_cells = r.Dse.grid_cells_total)
    (lazy "dse: compiled groups and cell counts match the bus ascension");
  let ii = ref 0 in
  List.iter
    (fun (plan, _, per_bench) ->
      List.iter
        (fun (b, cs) ->
          ii := !ii + sum_ii cs;
          List.iter
            (fun c ->
              Check.verify plan c
                ~where:(Config.short_name plan ^ "/" ^ b.WL.Benchspec.name))
            cs)
        per_bench)
    levels;
  let flat =
    List.concat_map
      (fun (plan, cells, per_bench) -> List.map (fun cell -> (plan, cell, per_bench)) cells)
      levels
  in
  if List.length flat = List.length r.Dse.evaluated then begin
    let rng = Random.State.make [| seed |] in
    let indices = List.init 2 (fun _ -> Random.State.int rng (List.length flat)) in
    List.iter
      (fun i ->
        let plan, (ccfg, ab), per_bench = List.nth flat i in
        let res = List.nth r.Dse.evaluated i in
        let arch = cell_arch ab in
        let where = Printf.sprintf "dse cell %d (%s)" i (Dse.cell_label res) in
        let cycles, traffic =
          List.fold_left
            (fun (cy, tr) (b, cs) ->
              let per_loop, summary =
                Check.reference ccfg ~layout_cfg:plan ~arch ~aligned:true ~seed:layout_seed
                  ~trip_cap:dse_trip_cap cs
              in
              let where = where ^ "/" ^ b.WL.Benchspec.name in
              List.iter2
                (fun c st -> Check.audit_loop ~arch ~trip_cap:dse_trip_cap c st ~where)
                cs per_loop;
              let agg = Check.total per_loop in
              Check.audit_traffic ccfg ~arch cs ~stats:agg ~traffic:summary ~where;
              (cy + Stats.total_cycles agg, tr + traffic_of summary))
            (0, 0) per_bench
        in
        Check.expect
          (cycles = res.Dse.r_cycles && traffic = res.Dse.r_traffic)
          (lazy ("reference executor: " ^ where)))
      indices
  end;
  !ii

let dse_cycles (r : Dse.result) =
  List.fold_left (fun a c -> a + c.Dse.r_cycles) 0 r.Dse.evaluated

let dse_e2e ~seed ~seconds =
  let setup, units, (ctx, r) = run_units ~setup:(timed_setup dse_setup) ~seconds dse_unit in
  { setup; units; ii_sum = dse_checks ~seed ctx r }

let dse_traced ~seed =
  let ctx = Context.create ~seed:layout_seed () in
  let ref_wall, r = timed (fun () -> Dse.sweep ctx) in
  let ratios = memo_ratios ctx in
  ignore (dse_checks ~seed ctx r);
  Span.enabled := true;
  let replay_wall, sims =
    timed (fun () ->
        Span.with_span "replay" (fun () ->
            let levels =
              dse_levels (fun plan b ->
                  let tag = Config.short_name plan ^ "/" ^ b.WL.Benchspec.name in
                  let profiler = Replay.profiler plan ~aligned:true ~seed:layout_seed in
                  List.map
                    (Replay.compile plan ~target:dse_spec.Context.target ~strategy:US.Selective
                       ~profiler ~tag)
                    (WL.Benchspec.loops b))
            in
            List.map
              (fun (plan, cells, per_bench) ->
                ( cells,
                  List.map
                    (fun (b, cs) ->
                      let tag = Config.short_name plan ^ "/" ^ b.WL.Benchspec.name in
                      ( tag,
                        cs,
                        Replay.simulate plan ~aligned:true ~seed:layout_seed ~tag
                          ~trip_cap:dse_trip_cap
                          (List.map (fun (ccfg, ab) -> (ccfg, cell_arch ab)) cells)
                          cs ))
                    per_bench ))
              levels))
  in
  Span.enabled := false;
  (* Every simulated cell's conservation laws, then its totals. *)
  let totals =
    List.concat_map
      (fun (cells, per_bench) ->
        let n = List.length cells in
        let cyc = Array.make n 0 and tra = Array.make n 0 in
        List.iter
          (fun (tag, cs, (machines, per_loop)) ->
            List.iteri
              (fun j (ccfg, ab) ->
                let arch = cell_arch ab in
                let where = Printf.sprintf "%s cell %d" tag j in
                List.iter
                  (fun (c, st) -> Check.audit_loop ~arch ~trip_cap:dse_trip_cap c st.(j) ~where)
                  per_loop;
                let stats = Check.total (List.map (fun (_, st) -> st.(j)) per_loop) in
                let summary = Machine.traffic_summary machines.(j) in
                Check.audit_traffic ccfg ~arch cs ~stats ~traffic:summary ~where;
                cyc.(j) <- cyc.(j) + Stats.total_cycles stats;
                tra.(j) <- tra.(j) + traffic_of summary)
              cells)
          per_bench;
        List.init n (fun j -> (cyc.(j), tra.(j))))
      sims
  in
  gate
    (List.length totals = List.length r.Dse.evaluated
    && List.for_all2
         (fun (cy, tr) c -> cy = c.Dse.r_cycles && tr = c.Dse.r_traffic)
         totals r.Dse.evaluated)
    "dse cell totals";
  ( [
      ("sim_cycles", float_of_int (dse_cycles r));
      ("dse.compiled_groups", float_of_int r.Dse.compiled_groups);
      ("dse.pruned_cells", float_of_int r.Dse.pruned_cells);
      ("dse.cells_per_s", float_of_int r.Dse.grid_cells_total /. ref_wall);
      ("trace_overhead_s", replay_wall -. ref_wall);
    ]
    @ ratios,
    ref_wall )
