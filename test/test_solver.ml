(* The exact RecMII solver and the latency assignment it drives, checked
   against slow independent implementations:

   - [Mii] against the linter's own RecMII (Kosaraju SCCs plus a
     Bellman–Ford binary search) on random DDGs and their x8 and x16
     unrolls, with random latency vectors;
   - [Latency_assign.assign] against a reference reduce loop that probes
     every load at every lower level with a plain Bellman–Ford binary
     search, on the suite at the Table 2 geometry and on random DDGs;
   - the IPBC pipeline over the whole (clusters, interleaving) grid,
     every schedule through the deep verifier. *)

open Vliw_ir
module Config = Vliw_arch.Config
module Latency_assign = Vliw_core.Latency_assign
module Pipeline = Vliw_core.Pipeline
module Profile = Vliw_core.Profile
module Unroll_select = Vliw_core.Unroll_select
module Lint_ddg = Vliw_analysis.Lint_ddg
module Verify_schedule = Vliw_analysis.Verify_schedule
module D = Vliw_analysis.Diagnostic
module WL = Vliw_workloads

let check = Alcotest.check
let ci = Alcotest.int

let qcheck ~count ~name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name QCheck.(make Gen.(int_bound 1_000_000)) prop)

let random_latency rng ddg =
  let lat = Array.init (Ddg.n_ops ddg) (fun _ -> Random.State.int rng 16) in
  fun i -> lat.(i)

(* ------------------------------------------------ solver vs oracle *)

(* [Some ii], or [None] when the DDG has a zero-distance positive cycle. *)
let solver_ii g ~latency =
  match Mii.rec_mii g ~latency with ii -> Some ii | exception Mii.Infeasible -> None

let oracle_ii g ~latency =
  match Lint_ddg.independent_rec_mii g ~latency with
  | ii -> Some ii
  | exception Invalid_argument _ -> None

(* Per recurrence: the witness's ratio is the II, and a search started
   from any cycle's ratio — a lower bound on the II whatever latencies
   found the cycle — lands on the same II. *)
let recurrence_consistent rng g ~latency nodes =
  let s = Mii.solver g ~nodes in
  let ii, witness = Mii.critical s ~latency in
  let ratio_ok =
    match witness with
    | None -> ii = 1
    | Some c ->
        let lat = Mii.cycle_latency c ~latency in
        c.Mii.dist > 0 && (lat + c.Mii.dist - 1) / c.Mii.dist = ii
  in
  let starts =
    witness
    :: List.init 4 (fun _ ->
           match Mii.critical s ~latency:(random_latency rng g) with
           | _, c -> c
           | exception Mii.Infeasible -> None)
  in
  ratio_ok
  && Mii.solve s ~latency = ii
  && List.for_all
       (function None -> true | Some from -> fst (Mii.critical s ~from ~latency) = ii)
       starts

let prop_solver_matches_oracle =
  qcheck ~count:60 ~name:"mii: solver = independent RecMII"
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let base = Test_props.build_random_ddg rng in
      (* now and then a zero-distance back edge, so both sides must agree
         on when no II exists *)
      let base =
        let n = Ddg.n_ops base in
        if n > 2 && Random.State.int rng 4 = 0 then
          let src = 1 + Random.State.int rng (n - 1) in
          Ddg.make (Ddg.ops base)
            (Ddg.edges base
            @ [ Edge.make ~kind:Edge.Reg_flow ~src ~dst:(Random.State.int rng src) () ])
        else base
      in
      List.for_all
        (fun factor ->
          let g = if factor = 1 then base else Unroll.ddg base ~factor in
          let latency = random_latency rng g in
          let ours = solver_ii g ~latency in
          ours = oracle_ii g ~latency
          && (ours = None
             || List.for_all (recurrence_consistent rng g ~latency) (Scc.recurrences g)))
        [ 1; 8; 16 ])

(* ----------------------------------- latency-assignment reference *)

(* Plain Bellman–Ford: no positive cycle under lat - ii * dist. *)
let feasible ~n edges ~latency ~ii d =
  Array.fill d 0 (Array.length d) 0;
  let rec rounds k =
    let changed =
      List.fold_left
        (fun changed (e : Edge.t) ->
          let c = d.(e.src) + Ddg.effective_latency ~latency e - (ii * e.distance) in
          if c > d.(e.dst) then begin
            d.(e.dst) <- c;
            true
          end
          else changed)
        false edges
    in
    (not changed) || (k < n && rounds (k + 1))
  in
  rounds 1

let recurrence_edges g nodes =
  let inside = Array.make (Ddg.n_ops g) false in
  List.iter (fun v -> inside.(v) <- true) nodes;
  List.filter (fun (e : Edge.t) -> inside.(e.src) && inside.(e.dst)) (Ddg.edges g)

(* Smallest feasible II by binary search from the sum-of-latencies bound. *)
let reference_ii g nodes ~latency =
  let edges = recurrence_edges g nodes and n = List.length nodes in
  let d = Array.make (Ddg.n_ops g) 0 in
  let hi =
    1 + List.fold_left (fun s e -> s + max 0 (Ddg.effective_latency ~latency e)) 0 edges
  in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if feasible ~n edges ~latency ~ii:mid d then search lo mid else search (mid + 1) hi
  in
  search 1 hi

(* Section 4.3.1 as Latency_assign states it, with every candidate
   probed by a fresh binary search. *)
let reference_assign cfg g ~mode ~profile =
  let ladder = Latency_assign.levels cfg mode in
  let is_load i = Operation.is_load (Ddg.op g i) in
  let latencies =
    Array.init (Ddg.n_ops g) (fun i ->
        if is_load i then List.hd ladder else Ddg.default_latency g i)
  in
  let latency i = latencies.(i) in
  let target = Latency_assign.target_mii cfg g ~mode in
  let stall p lat = Latency_assign.expected_stall cfg ~mode p ~lat in
  let recurrences =
    Scc.recurrences g
    |> List.map (fun nodes -> (reference_ii g nodes ~latency, nodes))
    |> List.sort (fun (a, na) (b, nb) ->
           if a <> b then compare b a
           else compare (List.fold_left min max_int na) (List.fold_left min max_int nb))
  in
  let reduce (_, nodes) =
    let loads =
      List.filter (fun v -> is_load v && Option.is_some (Profile.get profile v)) nodes
    in
    let last = ref None and cur = ref (reference_ii g nodes ~latency) in
    let stop = ref (loads = []) in
    while (not !stop) && !cur > target do
      let best = ref None in
      List.iter
        (fun m ->
          let saved = latencies.(m) and p = Option.get (Profile.get profile m) in
          List.iter
            (fun l' ->
              if l' < saved then begin
                latencies.(m) <- l';
                let ii = reference_ii g nodes ~latency in
                latencies.(m) <- saved;
                let d_ii = float_of_int (!cur - ii) in
                let d_stall = stall p l' -. stall p saved in
                let b = if d_stall <= 1e-9 then infinity else d_ii /. d_stall in
                let key = (b, d_ii, -m, -l') in
                match !best with
                | Some (k, _, _, _) when k >= key -> ()
                | _ -> best := Some (key, m, l', ii)
              end)
            ladder)
        loads;
      match !best with
      | None -> stop := true
      | Some (_, m, l', ii) ->
          latencies.(m) <- l';
          last := Some m;
          cur := ii
    done;
    match !last with
    | Some m when !cur < target ->
        (* give the slack back: largest latency keeping II <= target *)
        let edges = recurrence_edges g nodes and n = List.length nodes in
        let d = Array.make (Ddg.n_ops g) 0 in
        let fits lat =
          let saved = latencies.(m) in
          latencies.(m) <- lat;
          let ok = feasible ~n edges ~latency ~ii:target d in
          latencies.(m) <- saved;
          ok
        in
        let total = List.fold_left (fun acc (e : Edge.t) -> acc + e.distance) 0 edges in
        let rec search lo hi =
          if lo >= hi then lo
          else
            let mid = (lo + hi + 1) / 2 in
            if fits mid then search mid hi else search lo (mid - 1)
        in
        let lo = latencies.(m) in
        if fits lo then latencies.(m) <- search lo (lo + (target * (total + 1)))
    | Some _ | None -> ()
  in
  List.iter reduce recurrences;
  latencies

let same_assignment ~where cfg g ~mode ~profile =
  let ours = Latency_assign.assign cfg g ~mode ~profile in
  let reference = reference_assign cfg g ~mode ~profile in
  if ours <> reference then Alcotest.failf "%s: assignment differs from the reference" where

let modes cfg =
  [
    ("four-level", Latency_assign.Four_level);
    ("unified", Pipeline.mode_of_target cfg (Pipeline.Unified { slow = true }));
    ("multivliw", Pipeline.mode_of_target cfg Pipeline.Multivliw);
  ]

let test_assign_matches_reference_suite () =
  let cfg = Config.default in
  let profiler =
    WL.Profiling.profiler cfg
      (WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Profile_run ~seed:7)
  in
  List.iter
    (fun (b : WL.Benchspec.t) ->
      List.iter
        (fun (loop : Loop.t) ->
          let p1 = profiler loop in
          List.iter
            (fun factor ->
              let u = if factor = 1 then loop else Loop.unrolled loop ~factor in
              let profile = if factor = 1 then p1 else profiler u in
              List.iter
                (fun (tag, mode) ->
                  let where =
                    Printf.sprintf "%s/%s x%d %s" b.WL.Benchspec.name loop.Loop.name
                      factor tag
                  in
                  same_assignment cfg u.Loop.ddg ~mode ~profile ~where)
                (modes cfg))
            (Unroll_select.candidate_factors cfg loop.Loop.ddg ~profile:p1
               Unroll_select.Selective))
        (WL.Benchspec.loops b))
    WL.Mediabench.all

let random_profile rng ~n_clusters g =
  Array.map
    (fun (o : Operation.t) ->
      if not (Operation.is_memory o) then None
      else begin
        let w = Array.init n_clusters (fun _ -> 1 + Random.State.int rng 4) in
        let total = float_of_int (Array.fold_left ( + ) 0 w) in
        (* a third of the loads always hit and stay local: their lowering
           costs no stall, the infinite-benefit tie-break case *)
        let certain = Random.State.int rng 3 = 0 in
        Some
          (Profile.make_op
             ~hit_rate:(if certain then 1.0 else Random.State.float rng 1.0)
             ~cluster_fractions:
               (if certain then Array.init n_clusters (fun c -> if c = 0 then 1.0 else 0.0)
                else Array.map (fun x -> float_of_int x /. total) w)
             ~accesses:1000)
      end)
    (Ddg.ops g)

let prop_assign_matches_reference_random =
  qcheck ~count:100 ~name:"latency: assign = reference, random"
    (fun seed ->
      let cfg = Config.default in
      let rng = Random.State.make [| seed |] in
      let base = Test_props.build_random_ddg rng in
      List.iter
        (fun factor ->
          let g = if factor = 1 then base else Unroll.ddg base ~factor in
          let profile = random_profile rng ~n_clusters:cfg.Config.n_clusters g in
          List.iter
            (fun (tag, mode) ->
              same_assignment cfg g ~mode ~profile
                ~where:(Printf.sprintf "seed %d x%d %s" seed factor tag))
            (modes cfg))
        [ 1; 4; 8 ];
      true)

(* ------------------------------------------------- stress geometry *)

let test_stress_grid () =
  let target = Pipeline.Interleaved { heuristic = `Ipbc; chains = true } in
  let geometries =
    List.concat_map
      (fun n_clusters ->
        List.filter_map
          (fun interleaving_factor ->
            let cfg = { Config.default with Config.n_clusters; interleaving_factor } in
            match Config.validate cfg with Ok () -> Some cfg | Error _ -> None)
          [ 2; 4; 8 ])
      [ 2; 4; 8 ]
  in
  check ci "valid geometries (8x8 overflows a block)" 8 (List.length geometries);
  List.iter
    (fun cfg ->
      let profiler =
        WL.Profiling.profiler cfg
          (WL.Layout.create cfg ~aligned:true ~run:WL.Layout.Profile_run ~seed:7)
      in
      List.iter
        (fun (b : WL.Benchspec.t) ->
          List.iter
            (fun loop ->
              let c =
                Pipeline.compile cfg ~target ~strategy:Unroll_select.Selective ~profiler loop
              in
              let where =
                Printf.sprintf "C=%d I=%d %s/%s" cfg.Config.n_clusters
                  cfg.Config.interleaving_factor b.WL.Benchspec.name loop.Loop.name
              in
              let diags =
                Verify_schedule.verify cfg c.Pipeline.loop.Loop.ddg
                  ~latency:(fun i -> c.Pipeline.latencies.(i))
                  ~allow_cross_cluster_mem:(Pipeline.allow_cross_cluster_mem target)
                  ~where c.Pipeline.schedule
              in
              if D.has_errors diags then
                Alcotest.failf "%a" (D.pp_report ~max_infos:0) diags)
            (WL.Benchspec.loops b))
        WL.Mediabench.all)
    geometries

let suite =
  [
    prop_solver_matches_oracle;
    ("latency: assign = reference, suite", `Quick,
     test_assign_matches_reference_suite);
    prop_assign_matches_reference_random;
    ("stress: IPBC grid verifies", `Quick,
     test_stress_grid);
  ]
