(* The benchmark's one command:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the workload untraced for S seconds and prints
   the end-to-end metrics; --trace 1 runs it once untraced and once as
   a traced stage-by-stage replay, prints the per-layer metrics and
   writes the spans to perfbench/out/.  Either way the output checks
   run, and the last stdout line is the JSON result. *)

module Pool = Vliw_parallel.Pool

let workloads =
  [
    ("paper_t2", (Workloads.paper_e2e, Workloads.paper_traced));
    ("edge_geometry", (Workloads.edge_e2e, Workloads.edge_traced));
    ("dse_sweep", (Workloads.dse_e2e, Workloads.dse_traced));
    ("serve_mixed", (Serve_mixed.e2e, Serve_mixed.traced));
  ]

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("op_p99_ms", "ms");
    ("ii_sum", "count");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("latency_assign.calls", "count");
    ("latency_assign.busy_s", "s");
    ("latency_assign.max_call_s", "s");
    ("engine.calls", "count");
    ("engine.busy_s", "s");
    ("engine.ii_over_mii", "count");
    ("engine.bus_rejections", "count");
    ("profiling.calls", "count");
    ("profiling.busy_s", "s");
    ("chains.busy_s", "s");
    ("unroll.candidates", "count");
    ("unroll.ops_out", "count");
    ("executor.trace_busy_s", "s");
    ("executor.kernel_busy_s", "s");
    ("executor.accesses", "count");
    ("executor.ns_per_access", "ns");
    ("sim_cycles", "count");
    ("context.compile_hit_ratio", "ratio");
    ("context.trace_hit_ratio", "ratio");
    ("dse.compiled_groups", "count");
    ("dse.pruned_cells", "count");
    ("dse.cells_per_s", "1/s");
    ("serve.req_per_s", "1/s");
    ("serve.req_p50_ms", "ms");
    ("serve.req_p99_ms", "ms");
    ("serve.handler_p50_ms", "ms");
    ("serve.handler_p99_ms", "ms");
    ("serve.overhead_p50_ms", "ms");
    ("serve.overhead_p99_ms", "ms");
    ("serve.health.p50_ms", "ms");
    ("serve.compile.p50_ms", "ms");
    ("serve.simulate.p50_ms", "ms");
    ("serve.sweep-cell.p50_ms", "ms");
    ("serve.explain.p50_ms", "ms");
    ("worst_loop_s", "s");
    ("unspanned_s", "s");
    ("trace_overhead_s", "s");
  ]

let read_file path =
  try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
  with Sys_error _ -> None

(* BENCHMARK.json names the same metrics; a drift between the two
   would print zeros or drop a metric, so it stops the run instead. *)
let check_manifest () =
  let module P = Vliw_service.Proto in
  let listed key = function
    | P.Obj top -> (
        match List.assoc_opt key top with
        | Some (P.List ms) ->
            List.filter_map
              (function
                | P.Obj m -> (
                    match (List.assoc_opt "name" m, List.assoc_opt "unit" m) with
                    | Some (P.String n), Some (P.String u) -> Some (n, u)
                    | _ -> None)
                | _ -> None)
              ms
        | _ -> [])
    | _ -> []
  in
  match read_file "BENCHMARK.json" with
  | None -> ()
  | Some text -> (
      match P.parse text with
      | Ok j when listed "end_to_end" j = end_to_end && listed "per_layer" j = per_layer -> ()
      | _ ->
          prerr_endline "perfbench: BENCHMARK.json lists other metrics than perfbench.ml";
          exit 2)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \  workloads: paper_t2 edge_geometry dse_sweep serve_mixed";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := Some (int v); go rest
    | "--seconds" :: v :: rest -> seconds := Some (int v); go rest
    | "--trace" :: v :: rest -> trace := Some (int v); go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds >= 1 && (trace = 0 || trace = 1) ->
      (!workload, w, seed, seconds, trace)
  | _ -> usage ()

(* The commit the checkout came from, when it is a git checkout. *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read_file (".git/" ^ r) with
      | Some h -> h
      | None -> (
          match read_file ".git/packed-refs" with
          | None -> "unknown"
          | Some packed ->
              List.find_map
                (fun l ->
                  match String.split_on_char ' ' l with
                  | [ h; name ] when name = r -> Some h
                  | _ -> None)
                (String.split_on_char '\n' packed)
              |> Option.value ~default:"unknown"))
  | Some h -> h

let env_json ~workload ~seed ~seconds ~trace =
  let nproc = Domain.recommended_domain_count () in
  Printf.sprintf
    {|{"workload":%s,"seed":%d,"seconds":%d,"trace":%d,"nproc":%d,"jobs":%d,"effective_jobs":%d,"serve_window":%d,"ocaml":%s,"git_rev":%s}|}
    (Span.json_string workload) seed seconds trace nproc (Pool.default_jobs ())
    (Pool.effective_jobs (Pool.default_jobs ()))
    Serve_mixed.window
    (Span.json_string Sys.ocaml_version)
    (Span.json_string (git_rev ()))

let unit_wall (s : Workloads.sample) = s.Workloads.wall
let unit_p99 (s : Workloads.sample) = Workloads.percentile 0.99 s.Workloads.ops_ms

(* Set-up is the median of its samples; a unit's wall and its own p99
   operation latency are averaged over the run's units (see
   Workloads.mean). *)
let e2e_values (r : Workloads.e2e) =
  let units = r.Workloads.units in
  [
    ("setup_s", Workloads.median r.Workloads.setup);
    ("wall_s", Workloads.mean (List.map unit_wall units));
    ("op_p99_ms", Workloads.mean (List.map unit_p99 units));
    ("ii_sum", float_of_int r.Workloads.ii_sum);
    ("peak_heap_mb", !Workloads.peak_heap_mb);
  ]

(* Grouping spans, not layers: their self time is the replay's own
   bookkeeping between layer calls. *)
let grouping = [ "replay"; "compile_loop" ]

let layer_values extras =
  let tbl = Span.layers (Span.self_times ()) in
  let l = Span.layer tbl in
  let calls n = float_of_int (l n).Span.calls in
  let busy n = (l n).Span.busy_s in
  let accesses = Span.counter "executor.accesses" in
  [
    ("latency_assign.calls", calls "latency_assign");
    ("latency_assign.busy_s", busy "latency_assign");
    ("latency_assign.max_call_s", (l "latency_assign").Span.max_call_s);
    ("engine.calls", calls "engine");
    ("engine.busy_s", busy "engine");
    ("engine.ii_over_mii", Span.counter "engine.ii_over_mii");
    ("engine.bus_rejections", Span.counter "engine.bus_rejections");
    ("profiling.calls", calls "profiling");
    ("profiling.busy_s", busy "profiling");
    ("chains.busy_s", busy "chains");
    ("unroll.candidates", Span.counter "unroll.candidates");
    ("unroll.ops_out", Span.counter "unroll.ops_out");
    ("executor.trace_busy_s", busy "executor.trace");
    ("executor.kernel_busy_s", busy "executor.kernel");
    ("executor.accesses", accesses);
    ( "executor.ns_per_access",
      if accesses > 0.0 then busy "executor.kernel" *. 1e9 /. accesses else 0.0 );
    ("worst_loop_s", (l "compile_loop").Span.max_call_s);
    ("unspanned_s", List.fold_left (fun a n -> a +. busy n) 0.0 grouping);
  ]
  @ extras

(* The result line: every listed metric, in list order. *)
let print_result values listed =
  let values =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0.0 (List.assoc_opt name values) in
        Printf.sprintf {|%s:{"value":%.17g,"unit":%s}|} (Span.json_string name) v
          (Span.json_string unit))
      listed
  in
  Printf.printf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|}
    (!Check.failed = 0) (max 1 !Check.attempted) !Check.failed
    (String.concat "," values);
  print_newline ()

let () =
  let workload, (e2e, traced), seed, seconds, trace = parse_args () in
  check_manifest ();
  (* One worker: on a 2-core host the numbers should measure the
     program, not the scheduler. *)
  Pool.set_default_jobs 1;
  let env = env_json ~workload ~seed ~seconds ~trace in
  print_endline ("env " ^ env);
  if trace = 0 then begin
    let r = e2e ~seed ~seconds:(float_of_int seconds) in
    let show f = String.concat " " (List.map (fun u -> Printf.sprintf "%.3f" (f u)) r.Workloads.units) in
    Printf.printf "units %d, setup samples %d, unit walls [%s], unit p99 ms [%s]\n"
      (List.length r.Workloads.units) (List.length r.Workloads.setup) (show unit_wall)
      (show unit_p99);
    print_result (e2e_values r) end_to_end
  end
  else begin
    let extras, untraced_wall = traced ~seed in
    let dir = Filename.concat "perfbench" "out" in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" workload seed) in
    Span.write path ~env;
    Format.eprintf "%s: untraced %.3f s; spans written to %s@." workload untraced_wall path;
    Span.pp_summary Format.err_formatter ~top:12;
    print_result (layer_values extras) per_layer
  end
