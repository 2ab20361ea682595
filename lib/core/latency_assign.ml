module Config = Vliw_arch.Config
module Ddg = Vliw_ir.Ddg
module Edge = Vliw_ir.Edge
module Mii = Vliw_ir.Mii
module Operation = Vliw_ir.Operation
module Scc = Vliw_ir.Scc
module Resources = Vliw_sched.Resources

type mode = Two_level of { hit : int; miss : int } | Four_level

let levels (cfg : Config.t) = function
  | Two_level { hit; miss } -> [ miss; hit ]
  | Four_level ->
      [
        cfg.Config.lat_remote_miss;
        cfg.Config.lat_local_miss;
        cfg.Config.lat_remote_hit;
        cfg.Config.lat_local_hit;
      ]

let class_probabilities ~mode (cfg : Config.t) (p : Profile.op_profile) =
  let h = p.Profile.hit_rate in
  match mode with
  | Two_level { hit; miss } -> [ (h, hit); (1.0 -. h, miss) ]
  | Four_level ->
      let l = Profile.local_ratio p in
      [
        (l *. h, cfg.Config.lat_local_hit);
        ((1.0 -. l) *. h, cfg.Config.lat_remote_hit);
        (l *. (1.0 -. h), cfg.Config.lat_local_miss);
        ((1.0 -. l) *. (1.0 -. h), cfg.Config.lat_remote_miss);
      ]

let expected_stall cfg ~mode p ~lat =
  List.fold_left
    (fun acc (prob, class_lat) ->
      acc +. (prob *. float_of_int (max 0 (class_lat - lat))))
    0.0
    (class_probabilities ~mode cfg p)

let is_load ddg i = Operation.is_load (Ddg.op ddg i)

let initial_latencies cfg ddg ~mode =
  let top = List.hd (levels cfg mode) in
  Array.init (Ddg.n_ops ddg) (fun i ->
      if is_load ddg i then top else Ddg.default_latency ddg i)

let optimistic_latencies cfg ddg ~mode =
  let levels = levels cfg mode in
  let bottom = List.nth levels (List.length levels - 1) in
  Array.init (Ddg.n_ops ddg) (fun i ->
      if is_load ddg i then bottom else Ddg.default_latency ddg i)

let target_mii cfg ddg ~mode =
  let lat = optimistic_latencies cfg ddg ~mode in
  Resources.mii cfg ddg ~latency:(fun i -> lat.(i))

let solve_with solver latencies = Mii.solve solver ~latency:(fun i -> latencies.(i))

let benefit cfg ddg ~mode ~profile ~latencies ~recurrence ~op ~to_lat =
  let solver = Mii.solver ddg ~nodes:recurrence in
  let old_ii = solve_with solver latencies in
  let saved = latencies.(op) in
  latencies.(op) <- to_lat;
  let new_ii = solve_with solver latencies in
  latencies.(op) <- saved;
  match Profile.get profile op with
  | None -> invalid_arg "Latency_assign.benefit: not a memory operation"
  | Some p ->
      let d_stall =
        expected_stall cfg ~mode p ~lat:to_lat
        -. expected_stall cfg ~mode p ~lat:saved
      in
      (float_of_int (old_ii - new_ii), d_stall)

(* Raise [op]'s latency as far as the recurrence tolerates at [target]
   ("the last memory instruction whose latency has been changed is
   increased so that the II of the recurrence is equal to the MII"). *)
let restore_slack ddg ~solver latencies ~recurrence ~op ~target =
  let fits lat =
    let saved = latencies.(op) in
    latencies.(op) <- lat;
    let ok =
      Mii.solve_feasible solver ~latency:(fun i -> latencies.(i)) ~ii:target
    in
    latencies.(op) <- saved;
    ok
  in
  let total_distance =
    (* Upper bound on useful slack: raising latency by target*D cannot
       keep the recurrence II at [target] beyond this. *)
    let n = Ddg.n_ops ddg in
    let in_set = Array.make n false in
    List.iter (fun v -> in_set.(v) <- true) recurrence;
    List.fold_left
      (fun acc (e : Edge.t) ->
        if in_set.(e.src) && in_set.(e.dst) then acc + e.distance else acc)
      0 (Ddg.edges ddg)
  in
  let lo = latencies.(op) and hi = latencies.(op) + (target * (total_distance + 1)) in
  (* Largest feasible latency in [lo, hi]; feasibility is downward closed. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if fits mid then search mid hi else search lo (mid - 1)
  in
  if fits lo then latencies.(op) <- search lo hi

let assign cfg ddg ~mode ~profile =
  let ladder = levels cfg mode in
  let latencies = initial_latencies cfg ddg ~mode in
  let target = target_mii cfg ddg ~mode in
  let recurrences =
    Scc.recurrences ddg
    |> List.map (fun nodes ->
           let solver = Mii.solver ddg ~nodes in
           (solve_with solver latencies, solver, nodes))
    |> List.sort (fun (a, _, na) (b, _, nb) ->
           if a <> b then compare b a
           else compare (List.fold_left min max_int na)
                  (List.fold_left min max_int nb))
    |> List.map (fun (_, s, nodes) -> (s, nodes))
  in
  let reduce (solver, recurrence) =
    let loads =
      List.filter
        (fun v -> is_load ddg v && Option.is_some (Profile.get profile v))
        recurrence
    in
    if loads = [] then ()
    else begin
      let last_changed = ref None in
      let continue = ref true in
      let latency i = latencies.(i) in
      (* The current II and its critical cycle.  A load whose latency the
         cycle does not use cannot lower the II (the cycle keeps its
         ratio), so its delta_ii = 0 is known without a probe; a load on
         the cycle probes from the cycle's lowered ratio, and the probe's
         witness becomes the next one if that candidate is committed. *)
      let cur = ref (Mii.critical solver ~latency) in
      while !continue && fst !cur > target do
        let old_ii, witness = !cur in
        (* Best (B, delta_ii) over every load x lower-level candidate. *)
        let best = ref None in
        List.iter
          (fun m ->
            let saved = latencies.(m) in
            let p = Option.get (Profile.get profile m) in
            let old_stall = expected_stall cfg ~mode p ~lat:saved in
            List.iter
              (fun l' ->
                if l' < saved then begin
                  let next =
                    match witness with
                    | Some c when not (Array.mem m c.Mii.ops) -> !cur
                    | _ ->
                        latencies.(m) <- l';
                        let r = Mii.critical solver ?from:witness ~latency in
                        latencies.(m) <- saved;
                        r
                  in
                  let d_ii = float_of_int (old_ii - fst next) in
                  let d_stall =
                    expected_stall cfg ~mode p ~lat:l' -. old_stall
                  in
                  let b =
                    if d_stall <= 1e-9 then infinity else d_ii /. d_stall
                  in
                  let key = (b, d_ii, -m, -l') in
                  match !best with
                  | Some (bk, _, _, _) when bk >= key -> ()
                  | _ -> best := Some (key, m, l', next)
                end)
              ladder)
          loads;
        match !best with
        | None -> continue := false
        | Some (_, m, l', next) ->
            latencies.(m) <- l';
            last_changed := Some m;
            cur := next
      done;
      match !last_changed with
      | Some m when fst !cur < target ->
          restore_slack ddg ~solver latencies ~recurrence ~op:m ~target
      | Some _ | None -> ()
    end
  in
  List.iter reduce recurrences;
  latencies
