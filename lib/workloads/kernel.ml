module Ddg = Vliw_ir.Ddg
module Edge = Vliw_ir.Edge
module Loop = Vliw_ir.Loop
module Mem_access = Vliw_ir.Mem_access
module Opcode = Vliw_ir.Opcode
module Operation = Vliw_ir.Operation

type mem_ref = {
  symbol : string;
  storage : Mem_access.storage;
  granularity : int;
  stride : int;
  footprint : int;
  offset : int;
  indirect : bool;
  is_store : bool;
  chain : int option;
  carried : bool;
  self_carried : bool;
}

let load ?(storage = Mem_access.Global) ?(granularity = 4) ?stride
    ?(footprint = 2048) ?(offset = 0) ?(indirect = false) ?chain
    ?(self_carried = false) symbol =
  {
    symbol;
    storage;
    granularity;
    stride = Option.value ~default:granularity stride;
    footprint;
    offset;
    indirect;
    is_store = false;
    chain;
    carried = false;
    self_carried;
  }

let store ?(storage = Mem_access.Global) ?(granularity = 4) ?stride
    ?(footprint = 2048) ?(offset = 0) ?chain ?(carried = false) symbol =
  {
    symbol;
    storage;
    granularity;
    stride = Option.value ~default:granularity stride;
    footprint;
    offset;
    indirect = false;
    is_store = true;
    chain;
    carried;
    self_carried = false;
  }

type spec = {
  name : string;
  trip_count : int;
  weight : float;
  refs : mem_ref list;
  compute_per_load : int;
  use_fp : bool;
  accumulators : int;
}

let make ?(weight = 1.0) ?(compute_per_load = 2) ?(use_fp = false)
    ?(accumulators = 0) ~name ~trip_count refs =
  { name; trip_count; weight; refs; compute_per_load; use_fp; accumulators }

(* The loop DDG is built directly — ops into an array sized up front,
   edges into one list — rather than through [Builder], whose optional
   arguments and list copies would dominate: the suite's 52 loops are
   rebuilt on every [Benchspec.loops] call. *)

let mem_access_of_ref r =
  assert (r.granularity > 0);
  {
    Mem_access.symbol = r.symbol;
    storage = r.storage;
    offset = r.offset;
    stride = r.stride;
    granularity = r.granularity;
    footprint = r.footprint;
    indirect = r.indirect;
  }

let placeholder =
  { Operation.id = 0; opcode = Opcode.Int_alu; dests = []; srcs = []; mem = None }

let build spec =
  if spec.refs = [] then invalid_arg "Kernel.build: no memory references";
  let refs = Array.of_list spec.refs in
  let n_ops =
    Array.fold_left
      (fun acc r -> acc + if r.is_store then 1 else 1 + spec.compute_per_load)
      0 refs
    + (if refs.(0).is_store then 1 else 0)  (* the first store's value *)
    + spec.accumulators
  in
  let ops = Array.make n_ops placeholder in
  let n = ref 0 and next_reg = ref 0 and rev_edges = ref [] in
  let reg () =
    let r = !next_reg in
    incr next_reg;
    r
  in
  let add ?mem ~dests ~srcs opcode =
    let id = !n in
    ops.(id) <- { Operation.id; opcode; dests; srcs; mem };
    n := id + 1;
    id
  in
  let dep ?(distance = 0) kind src dst =
    rev_edges := { Edge.src; dst; kind; distance } :: !rev_edges
  in
  (* An ALU op draws its source register before its destination. *)
  let alu opcode =
    let src = reg () in
    add ~dests:[ reg () ] ~srcs:[ src ] opcode
  in
  let mem_ids = Array.make (Array.length refs) 0 in
  let last_value = ref (-1) in  (* most recent value-producing op *)
  let last_load = ref (-1) in
  let alu_opcode k = if spec.use_fp && k mod 2 = 1 then Opcode.Fp_alu else Opcode.Int_alu in
  Array.iteri
    (fun i r ->
      if r.is_store then begin
        if !last_value < 0 then last_value := add ~dests:[ reg () ] ~srcs:[] Opcode.Int_alu;
        let s =
          add ~dests:[] ~srcs:[ reg () ] ~mem:(mem_access_of_ref r) Opcode.Store
        in
        dep Edge.Reg_flow !last_value s;
        mem_ids.(i) <- s
      end
      else begin
        let l =
          add ~dests:[ reg () ] ~srcs:[] ~mem:(mem_access_of_ref r) Opcode.Load
        in
        (* An indirect access computes its address from an earlier load. *)
        if r.indirect && !last_load >= 0 then dep Edge.Reg_flow !last_load l;
        (* Pointer chase / decoder state: the next iteration's address
           comes from this load's value. *)
        if r.self_carried then dep ~distance:1 Edge.Reg_flow l l;
        last_load := l;
        (* Compute chain fed by the load. *)
        let chain_end = ref l in
        for k = 0 to spec.compute_per_load - 1 do
          let c = alu (alu_opcode k) in
          dep Edge.Reg_flow !chain_end c;
          chain_end := c
        done;
        last_value := !chain_end;
        mem_ids.(i) <- l
      end)
    refs;
  (* Chain groups: consecutive members linked by unresolved memory
     dependences. *)
  let rec prev_in_group g j =
    if j < 0 then -1
    else if refs.(j).chain = Some g then mem_ids.(j)
    else prev_in_group g (j - 1)
  in
  Array.iteri
    (fun i r ->
      match r.chain with
      | Some g ->
          let p = prev_in_group g (i - 1) in
          if p >= 0 then dep Edge.Mem_unresolved p mem_ids.(i)
      | None -> ())
    refs;
  (* Carried stores: loop-carried flow back to the earlier load of the
     same symbol (plus the intra-iteration anti-dependence), forming a
     recurrence through memory. *)
  let rec first_load symbol j =
    if j = Array.length refs then -1
    else if (not refs.(j).is_store) && refs.(j).symbol = symbol then mem_ids.(j)
    else first_load symbol (j + 1)
  in
  Array.iteri
    (fun i r ->
      if r.is_store && r.carried then begin
        let lid = first_load r.symbol 0 in
        if lid >= 0 then begin
          dep ~distance:1 Edge.Mem_flow mem_ids.(i) lid;
          dep Edge.Mem_anti lid mem_ids.(i)
        end
      end)
    refs;
  (* Scalar accumulators: classic loop-carried ALU recurrences. *)
  for _ = 1 to spec.accumulators do
    let a = alu Opcode.Int_alu in
    dep ~distance:1 Edge.Reg_flow a a;
    if !last_value >= 0 then dep Edge.Reg_flow !last_value a
  done;
  Loop.make ~weight:spec.weight ~name:spec.name ~trip_count:spec.trip_count
    (Ddg.make ops (List.rev !rev_edges))
