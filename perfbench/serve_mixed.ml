(* serve_mixed: a closed-loop client in this process drives Serve.run
   over a pipe pair, with at most [window] requests outstanding.  The
   request multiset of a session is fixed; the workload seed only
   shuffles its order, so every seed does the same work. *)

module Config = Vliw_arch.Config
module Loop = Vliw_ir.Loop
module Pipeline = Vliw_core.Pipeline
module US = Vliw_core.Unroll_select
module Schedule = Vliw_sched.Schedule
module Machine = Vliw_sim.Machine
module Stats = Vliw_sim.Stats
module Context = Vliw_experiments.Context
module WL = Vliw_workloads
module Serve = Vliw_service.Serve
module Proto = Vliw_service.Proto
open Workloads

type item =
  | Health
  | Compile of { bench : string; heuristic : [ `Ibc | `Ipbc ]; chains : bool }
  | Simulate of { bench : string; heuristic : [ `Ibc | `Ipbc ]; arch : string; trip_cap : int }
  | Sweep_cell of {
      bench : string;
      buses : int;
      cache_size : int;
      associativity : int;
      ab : int option;
      trip_cap : int;
    }
  | Explain of string

let kind = function
  | Health -> "health"
  | Compile _ -> "compile"
  | Simulate _ -> "simulate"
  | Sweep_cell _ -> "sweep-cell"
  | Explain _ -> "explain"

let kinds = [ "health"; "compile"; "simulate"; "sweep-cell"; "explain" ]

let h_name = function `Ibc -> "ibc" | `Ipbc -> "ipbc"

let to_json id item =
  let body =
    match item with
    | Health -> {|"req":"health"|}
    | Compile { bench; heuristic; chains } ->
        Printf.sprintf {|"req":"compile","bench":"%s","heuristic":"%s","chains":%b|} bench
          (h_name heuristic) chains
    | Simulate { bench; heuristic; arch; trip_cap } ->
        Printf.sprintf {|"req":"simulate","bench":"%s","heuristic":"%s","arch":"%s","trip_cap":%d|}
          bench (h_name heuristic) arch trip_cap
    | Sweep_cell { bench; buses; cache_size; associativity; ab; trip_cap } ->
        Printf.sprintf
          {|"req":"sweep-cell","bench":"%s","buses":%d,"cache_size":%d,"associativity":%d,%s"trip_cap":%d|}
          bench buses cache_size associativity
          (match ab with Some n -> Printf.sprintf {|"ab_entries":%d,|} n | None -> "")
          trip_cap
    | Explain bench -> Printf.sprintf {|"req":"explain","bench":"%s"|} bench
  in
  Printf.sprintf {|{"id":"%s",%s}|} id body

(* The hot set is requested over and over (memo hits after the first);
   the fresh keys are compiled once per session (memo misses, the
   writes); explain is the heavy request. *)
let hot =
  [
    Compile { bench = "gsmdec"; heuristic = `Ipbc; chains = true };
    Compile { bench = "rasta"; heuristic = `Ipbc; chains = true };
    Compile { bench = "jpegdec"; heuristic = `Ibc; chains = true };
    (* Serve compiles simulate requests for the interleaved target, so
       the hot cells stay on the interleaved backends, where the
       conservation laws hold for the plan's promised latencies. *)
    Simulate { bench = "gsmdec"; heuristic = `Ipbc; arch = "interleaved+ab"; trip_cap = 32 };
    Simulate { bench = "rasta"; heuristic = `Ipbc; arch = "interleaved"; trip_cap = 32 };
    Simulate { bench = "jpegdec"; heuristic = `Ibc; arch = "interleaved+ab"; trip_cap = 32 };
  ]

let fresh =
  [
    Compile { bench = "g721dec"; heuristic = `Ipbc; chains = true };
    Compile { bench = "g721enc"; heuristic = `Ibc; chains = true };
    Compile { bench = "pegwitdec"; heuristic = `Ipbc; chains = true };
    Compile { bench = "epicenc"; heuristic = `Ibc; chains = true };
    Compile { bench = "jpegenc"; heuristic = `Ipbc; chains = true };
    Compile { bench = "rasta"; heuristic = `Ibc; chains = false };
    Simulate { bench = "pegwitenc"; heuristic = `Ibc; arch = "interleaved"; trip_cap = 64 };
    Sweep_cell
      { bench = "gsmdec"; buses = 2; cache_size = 4096; associativity = 1; ab = Some 8;
        trip_cap = 64 };
    Sweep_cell
      { bench = "rasta"; buses = 1; cache_size = 2048; associativity = 4; ab = None;
        trip_cap = 64 };
    Sweep_cell
      { bench = "pegwitenc"; buses = 8; cache_size = 16384; associativity = 2; ab = Some 4;
        trip_cap = 64 };
  ]

let heavy = [ Explain "gsmdec"; Explain "rasta" ]
let health_per_session = 150
let hot_repeats = 50

(* The session opens with each hot key once (its memo misses), then
   runs the repeats and health probes in seeded order, with the fresh
   keys and explains at fixed, evenly spaced positions.  The seed thus
   never decides which slow request queues behind which, and the
   latency tail is the same set of requests for every seed. *)
let script ~seed =
  let cheap =
    Array.of_list
      (List.init health_per_session (fun _ -> Health)
      @ List.concat_map (fun i -> List.init (hot_repeats - 1) (fun _ -> i)) hot)
  in
  let rng = Random.State.make [| seed; 0x5e7e |] in
  for i = Array.length cheap - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = cheap.(i) in
    cheap.(i) <- cheap.(j);
    cheap.(j) <- t
  done;
  let slow = Array.of_list (fresh @ heavy) in
  let gap = Array.length cheap / Array.length slow in
  Array.concat
    (Array.of_list hot
    :: List.init (Array.length slow) (fun k ->
           let last = k = Array.length slow - 1 in
           Array.append [| slow.(k) |]
             (Array.sub cheap (k * gap)
                (if last then Array.length cheap - (k * gap) else gap))))

(* At most nproc requests in flight. *)
let window = max 1 (Domain.recommended_domain_count ())

type response = {
  item : item;
  fields : (string * Proto.json) list;
  latency_ms : float;  (* client side: send to response line *)
  handler_ms : float option;  (* the service's own "ms" field *)
}

type session = {
  setup_s : float;  (* server start to the first health reply *)
  wall_s : float;
  responses : response array;
  drained : (string * Proto.json) list;  (* the server's closing line *)
  server_heap_mb : float;  (* the server process's peak heap *)
}

let write_all fd line =
  let line = line ^ "\n" in
  let len = String.length line in
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write_substring fd line !sent (len - !sent)
  done

let field fields k = List.assoc_opt k fields
let int_field fields k = match field fields k with Some (Proto.Int i) -> Some i | _ -> None

let parse line =
  match Proto.parse line with Ok (Proto.Obj fields) -> fields | _ -> []

let ok_response fields id =
  field fields "id" = Some (Proto.String id) && field fields "status" = Some (Proto.String "ok")

(* The server side of a session, in a forked child: a fresh context,
   Serve.run until drain, then one line with the process's peak heap.
   The child is its own process, so its collections never wait on the
   client, as they would for a second domain of one runtime. *)
let serve_child ~traced ~input ~output =
  let code =
    try
      let out = Unix.out_channel_of_descr output in
      let ctx = Context.create ~seed:layout_seed () in
      ignore (Serve.run ~jobs:1 ~wall_times:traced ~ctx ~input ~output:out ());
      Printf.fprintf out {|{"heap_words":%d}|} (Gc.quick_stat ()).Gc.top_heap_words;
      output_char out '\n';
      flush out;
      0
    with _ -> 2
  in
  Unix._exit code

let counter fields k =
  match field fields "counters" with Some (Proto.Obj c) -> int_field c k | _ -> None

(* The client side of a session: the health handshake, the script,
   then drain.  Checks one in-order "ok" response per request, a clean
   drain and the server's exit. *)
let client ~traced ~t_start ~req_w ~ic ~reap items =
  write_all req_w {|{"id":"setup","req":"health"}|};
  let first = parse (input_line ic) in
  let setup_s = now () -. t_start in
  Check.expect (ok_response first "setup") (lazy "serve: health handshake");
  let n = Array.length items in
  let sent_at = Array.make n 0.0 in
  let responses = Array.make n None in
  let next = ref 0 and got = ref 0 in
  let t0 = now () in
  while !got < n do
    while !next < n && !next - !got < window do
      sent_at.(!next) <- now ();
      write_all req_w (to_json (Printf.sprintf "r%d" !next) items.(!next));
      incr next
    done;
    let line = input_line ic in
    let t1 = now () in
    let i = !got in
    let fields = parse line in
    let handler_ms =
      match field fields "ms" with
      | Some (Proto.Float v) -> Some v
      | Some (Proto.Int v) -> Some (float_of_int v)
      | _ -> None
    in
    (* Requests overlap (the window), so each round trip is a root
       span; the handler's own time is its child. *)
    if traced then begin
      let rid =
        Span.add_measured ~parent:(-1) "serve.request" ~attr:(kind items.(i))
          ~t0:sent_at.(i) ~t1
      in
      Option.iter
        (fun h ->
          ignore
            (Span.add_measured ~parent:rid "serve.handler" ~attr:(kind items.(i))
               ~t0:(t1 -. (h /. 1000.0)) ~t1))
        handler_ms
    end;
    let latency_ms = ms (t1 -. sent_at.(i)) in
    responses.(i) <- Some { item = items.(i); fields; latency_ms; handler_ms };
    incr got
  done;
  let wall_s = now () -. t0 in
  write_all req_w {|{"id":"drain","req":"drain"}|};
  let drained = parse (input_line ic) in
  let heap_words = Option.value ~default:0 (int_field (parse (input_line ic)) "heap_words") in
  Check.expect (reap () = Unix.WEXITED 0) (lazy "serve: server process exits 0");
  Check.expect
    (field drained "status" = Some (Proto.String "drained")
    && List.for_all
         (fun k -> counter drained k = Some 0)
         [ "errors"; "timeouts"; "internal_errors"; "shed" ])
    (lazy "serve: clean drain with no error, timeout, crash or shed");
  let responses =
    Array.mapi
      (fun i r ->
        let r = Option.get r in
        Check.expect (ok_response r.fields (Printf.sprintf "r%d" i))
          (lazy (Printf.sprintf "serve: response %d in order and ok" i));
        r)
      responses
  in
  let server_heap_mb = float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.0 in
  { setup_s; wall_s; responses; drained; server_heap_mb }

(* One session on a freshly forked server process.  On every way out
   the request pipe is closed, so a server still reading sees end of
   input, and the child is waited for.  A write to a server that died
   raises EPIPE here instead of killing the client. *)
let run_session ?(traced = false) items =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  flush_all ();
  let t_start = now () in
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close resp_r;
      serve_child ~traced ~input:req_r ~output:resp_w
  | pid ->
      Unix.close req_r;
      Unix.close resp_w;
      let ic = Unix.in_channel_of_descr resp_r in
      let status = ref None in
      let reap () =
        match !status with
        | Some st -> st
        | None ->
            let _, st = Unix.waitpid [] pid in
            status := Some st;
            st
      in
      Fun.protect
        ~finally:(fun () ->
          Unix.close req_w;
          close_in_noerr ic;
          ignore (reap ()))
        (fun () -> client ~traced ~t_start ~req_w ~ic ~reap items)

let bench_of name = WL.Mediabench.find name

(* What the service computes for a simulating request, as Serve's
   handlers derive it: the plan configuration, the spec, the cell. *)
let sim_plan base = function
  | Simulate { bench; heuristic; arch; trip_cap } ->
      let arch = Option.get (Proto.arch_of_string arch) in
      Some (bench, base, Context.interleaved heuristic, arch, trip_cap)
  | Sweep_cell { bench; buses; cache_size; associativity; ab; trip_cap } ->
      let cfg =
        {
          base with
          Config.n_reg_buses = buses;
          n_mem_buses = buses;
          cache_size;
          associativity;
          ab_entries = Option.value ~default:base.Config.ab_entries ab;
        }
      in
      Some
        ( bench,
          cfg,
          Context.interleaved `Ipbc,
          Machine.Word_interleaved { attraction_buffers = ab <> None },
          trip_cap )
  | Health | Compile _ | Explain _ -> None

let compile_spec = function
  | Compile { bench; heuristic; chains } -> Some (bench, Context.interleaved ~chains heuristic)
  | _ -> None

let loop_rows fields =
  match field fields "loops" with
  | Some (Proto.List rows) ->
      List.map
        (function
          | Proto.Obj r -> (int_field r "unroll", int_field r "ii", int_field r "estimated_cycles")
          | _ -> (None, None, None))
        rows
  | _ -> []

let rows_of (compiled : Pipeline.compiled list) =
  List.map
    (fun (c : Pipeline.compiled) ->
      ( Some c.Pipeline.unroll_factor,
        Some c.Pipeline.schedule.Schedule.ii,
        Some c.Pipeline.estimated_cycles ))
    compiled

let stats_fields fields =
  match field fields "stats" with
  | Some (Proto.Obj s) ->
      (int_field s "total_cycles", int_field s "stall_cycles", int_field s "accesses")
  | _ -> (None, None, None)

let stats_of st =
  (Some (Stats.total_cycles st), Some (Stats.stall_cycles st), Some (Stats.total_accesses st))

let ii_sum (s : session) =
  Array.fold_left
    (fun a r ->
      List.fold_left
        (fun a (_, ii, _) -> a + Option.value ~default:0 ii)
        a (loop_rows r.fields))
    0 s.responses

let sim_cycles (s : session) =
  Array.fold_left
    (fun a r ->
      let cy, _, _ = stats_fields r.fields in
      a + Option.value ~default:0 cy)
    0 s.responses

(* First response of every distinct request, in script order. *)
let distinct (s : session) =
  let seen = Hashtbl.create 16 in
  Array.fold_left
    (fun acc r ->
      if Hashtbl.mem seen r.item then acc
      else begin
        Hashtbl.add seen r.item ();
        r :: acc
      end)
    [] s.responses
  |> List.rev

(* Compile responses against the session context's own compiles (memo
   hits), each verified; a seeded sample of simulating responses
   against the reference executor. *)
let checks ~seed ~ctx (s : session) =
  let base = Context.cfg ctx in
  let rs = distinct s in
  List.iter
    (fun r ->
      match compile_spec r.item with
      | None -> ()
      | Some (bench, spec) ->
          let compiled = Context.compiled ctx (bench_of bench) spec in
          List.iter (fun c -> Check.verify base c ~where:("serve/" ^ bench)) compiled;
          Check.expect (loop_rows r.fields = rows_of compiled)
            (lazy ("serve: compile rows of " ^ bench)))
    rs;
  let sims = List.filter (fun r -> sim_plan base r.item <> None) rs in
  let rng = Random.State.make [| seed |] in
  List.iter
    (fun r ->
      let bench, cfg, spec, arch, trip_cap = Option.get (sim_plan base r.item) in
      let compiled = Context.compiled (Context.with_cfg ctx cfg) (bench_of bench) spec in
      let per_loop, _ =
        Check.reference cfg ~arch ~aligned:true ~seed:layout_seed ~trip_cap compiled
      in
      List.iter2
        (fun c st -> Check.audit_loop ~arch ~trip_cap c st ~where:("serve/" ^ bench))
        compiled per_loop;
      Check.expect
        (stats_fields r.fields = stats_of (Check.total per_loop))
        (lazy ("serve: reference executor on " ^ kind r.item ^ " " ^ bench)))
    (pick rng sims 2)

let handshake () = (run_session [||]).setup_s

(* The server's peak heap, not the client's: the service's memory is
   what a user of it sees.  Read after the first session, as
   run_units does for the other workloads.  Every session's own
   handshake is a set-up sample too. *)
let e2e ~seed ~seconds =
  let items = script ~seed in
  let handshakes = ref [] and first_heap = ref None in
  let setup, units, last =
    run_units ~setup:handshake ~seconds (fun () ->
        let s = run_session items in
        handshakes := s.setup_s :: !handshakes;
        if !first_heap = None then first_heap := Some s.server_heap_mb;
        let ops_ms = Array.to_list (Array.map (fun r -> r.latency_ms) s.responses) in
        ({ wall = s.wall_s; ops_ms }, s))
  in
  peak_heap_mb := Option.get !first_heap;
  checks ~seed ~ctx:(Context.create ~seed:layout_seed ()) last;
  { setup = setup @ !handshakes; units; ii_sum = ii_sum last }

(* Memo hit ratios as the server's drain line reports them. *)
let drained_ratios (s : session) =
  let r label =
    match field s.drained "memos" with
    | Some (Proto.List ms) -> (
        let stats =
          List.find_map
            (function
              | Proto.Obj m when field m "name" = Some (Proto.String label) ->
                  Option.bind (int_field m "hits") (fun h ->
                      Option.map (fun mi -> (h, mi)) (int_field m "misses"))
              | _ -> None)
            ms
        in
        match stats with
        | Some (h, mi) when h + mi > 0 -> float_of_int h /. float_of_int (h + mi)
        | _ -> 0.0)
    | _ -> 0.0
  in
  [ ("context.compile_hit_ratio", r "compiles"); ("context.trace_hit_ratio", r "traces") ]

(* Untraced session, traced session, then the stage-by-stage replay of
   every distinct compiling or simulating request against what the
   service answered. *)
let traced ~seed =
  let items = script ~seed in
  let plain = run_session items in
  Span.enabled := true;
  let s = run_session ~traced:true items in
  let ratios = drained_ratios s in
  let base = Context.cfg (Context.create ~seed:layout_seed ()) in
  Span.with_span "replay" (fun () ->
      List.iter
        (fun r ->
          let compile cfg bench spec =
            let profiler = Replay.profiler cfg ~aligned:true ~seed:layout_seed in
            List.map
              (Replay.compile cfg ~target:spec.Context.target ~strategy:spec.Context.strategy
                 ~profiler ~tag:("serve/" ^ bench))
              (WL.Benchspec.loops (bench_of bench))
          in
          match (compile_spec r.item, sim_plan base r.item) with
          | Some (bench, spec), _ ->
              gate
                (loop_rows r.fields = rows_of (compile base bench spec))
                ("serve compile " ^ bench)
          | None, Some (bench, cfg, spec, arch, trip_cap) ->
              let compiled = compile cfg bench spec in
              let machines, per_loop =
                Replay.simulate cfg ~aligned:true ~seed:layout_seed
                  ~tag:("serve/" ^ bench) ~trip_cap
                  [ (cfg, arch) ] compiled
              in
              let st, _ = List.hd (Replay.aggregate machines per_loop) in
              gate (stats_fields r.fields = stats_of st) ("serve " ^ kind r.item ^ " " ^ bench)
          | None, None -> ())
        (distinct s));
  Span.enabled := false;
  let rs = Array.to_list s.responses in
  let handler = List.filter_map (fun r -> r.handler_ms) rs in
  let overhead =
    List.filter_map (fun r -> Option.map (fun h -> r.latency_ms -. h) r.handler_ms) rs
  in
  let per_kind =
    List.map
      (fun k ->
        ( Printf.sprintf "serve.%s.p50_ms" k,
          percentile 0.5
            (List.filter_map (fun r -> if kind r.item = k then Some r.latency_ms else None) rs) ))
      kinds
  in
  let client = Array.to_list (Array.map (fun r -> r.latency_ms) plain.responses) in
  ( [
      ("sim_cycles", float_of_int (sim_cycles s));
      ("serve.req_per_s", float_of_int (Array.length items) /. plain.wall_s);
      ("serve.req_p50_ms", percentile 0.5 client);
      ("serve.req_p99_ms", percentile 0.99 client);
      ("serve.handler_p50_ms", percentile 0.5 handler);
      ("serve.handler_p99_ms", percentile 0.99 handler);
      ("serve.overhead_p50_ms", percentile 0.5 overhead);
      ("serve.overhead_p99_ms", percentile 0.99 overhead);
      ("trace_overhead_s", s.wall_s -. plain.wall_s);
    ]
    @ per_kind @ ratios,
    plain.wall_s )
