(* Spans and counters recorded from the benchmark's own files, around
   its calls into the library's layers.  Everything stays in memory and
   is written once, at exit.  The replay runs in a single domain, so a
   plain stack gives every span its parent.  When tracing is off
   [with_span] is a direct call. *)

type t = {
  id : int;
  name : string;
  attr : string;  (* what the span worked on, e.g. "i8/epicdec/unquantize x8" *)
  parent : int;  (* -1 for a root *)
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let spans : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let now = Unix.gettimeofday

let with_span ?(attr = "") name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { id; name; attr; parent; t0 = now (); t1 = nan } in
    spans := s :: !spans;
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack)
      f
  end

(* A span whose interval was measured elsewhere (a request's round
   trip, the service's own handler time).  Its parent defaults to the
   innermost open span.  Returns its id. *)
let add_measured ?parent ?(attr = "") name ~t0 ~t1 =
  let id = !next_id in
  if !enabled then begin
    incr next_id;
    let parent =
      match (parent, !stack) with
      | Some p, _ -> p
      | None, p :: _ -> p
      | None, [] -> -1
    in
    spans := { id; name; attr; parent; t0; t1 } :: !spans
  end;
  id

let count name v =
  if !enabled then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)

let duration s = s.t1 -. s.t0

(* Self time: a span's duration minus the part of it its children
   cover.  Children of one parent never overlap (single domain). *)
let self_times () =
  let child_sum = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_sum s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_sum s.parent)))
    !spans;
  List.rev_map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_sum s.id)))
    !spans

type layer = { calls : int; busy_s : float; max_call_s : float }

(* Per span name: call count, summed self time, longest single call. *)
let layers selfs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let l =
        Option.value
          ~default:{ calls = 0; busy_s = 0.0; max_call_s = 0.0 }
          (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name
        {
          calls = l.calls + 1;
          busy_s = l.busy_s +. self;
          max_call_s = Float.max l.max_call_s (duration s);
        })
    selfs;
  tbl

let layer tbl name =
  Option.value
    ~default:{ calls = 0; busy_s = 0.0; max_call_s = 0.0 }
    (Hashtbl.find_opt tbl name)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* The export: every span with its self time, then the per-layer table
   and the counters.  Times are relative to the first span. *)
let write path ~env =
  let selfs = self_times () in
  let origin = List.fold_left (fun a (s, _) -> Float.min a s.t0) infinity selfs in
  let oc = open_out path in
  Printf.fprintf oc "{\"env\":%s,\n\"spans\":[\n" env;
  List.iteri
    (fun i (s, self) ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"parent\":%d,\"name\":%s,\"attr\":%s,\"start_s\":%.6f,\"dur_s\":%.6f,\"self_s\":%.6f}\n"
        (if i = 0 then "" else ",")
        s.id s.parent (json_string s.name) (json_string s.attr)
        (s.t0 -. origin) (duration s) self)
    selfs;
  Printf.fprintf oc "],\n\"layers\":{";
  let tbl = layers selfs in
  let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
  List.iteri
    (fun i n ->
      let l = Hashtbl.find tbl n in
      Printf.fprintf oc "%s%s:{\"calls\":%d,\"self_s\":%.6f,\"max_call_s\":%.6f}"
        (if i = 0 then "" else ",")
        (json_string n) l.calls l.busy_s l.max_call_s)
    names;
  Printf.fprintf oc "},\n\"counters\":{";
  let cs = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []) in
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "%s%s:%.17g" (if i = 0 then "" else ",") (json_string k) v)
    cs;
  Printf.fprintf oc "}}\n";
  close_out oc

(* The human summary on stderr: layers by self time, then the spans
   with the largest self time, named by what they worked on. *)
let pp_summary ppf ~top =
  let selfs = self_times () in
  let tbl = layers selfs in
  let rows = Hashtbl.fold (fun k l acc -> (k, l) :: acc) tbl [] in
  let rows = List.sort (fun (_, a) (_, b) -> compare b.busy_s a.busy_s) rows in
  Format.fprintf ppf "layer self time:@.";
  List.iter
    (fun (n, l) ->
      Format.fprintf ppf "  %-22s %9.3f s in %6d calls (longest %.3f s)@." n
        l.busy_s l.calls l.max_call_s)
    rows;
  let hot =
    List.sort (fun (_, a) (_, b) -> compare b a) selfs
    |> List.filteri (fun i _ -> i < top)
  in
  Format.fprintf ppf "largest self times:@.";
  List.iter
    (fun (s, self) ->
      Format.fprintf ppf "  %9.3f s  %s %s@." self s.name s.attr)
    hot
