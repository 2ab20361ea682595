exception Infeasible

type cycle = { ops : int array; fixed : int; dist : int }

(* A captured recurrence: node ids remapped to a dense [0, n) range and
   the induced edges stored flat, so a probe allocates nothing but the
   positive cycle it may return. *)
type solver = {
  n : int;
  srcs : int array;
  dsts : int array;
  lat_ops : int array;  (** original id of the op whose latency the edge
                            uses (Reg_flow), or -1 for fixed latency *)
  fixed : int array;  (** fixed component of the edge latency *)
  dists : int array;
  dist : int array;
      (** relaxation scratch — latency assignment runs hundreds of
          probes per solver, so the scratch arrays are reused rather
          than allocated per probe (a solver is only ever used from one
          domain) *)
  pred : int array;  (** edge that last raised each node, or -1 *)
  mark : int array;  (** predecessor-walk stamps *)
}

let solver ddg ~nodes =
  let n = List.length nodes in
  let index = Hashtbl.create n in
  List.iteri (fun i v -> Hashtbl.replace index v i) nodes;
  let edges =
    Array.of_list
      (List.filter
         (fun (e : Edge.t) -> Hashtbl.mem index e.src && Hashtbl.mem index e.dst)
         (Ddg.edges ddg))
  in
  let src = Array.map (fun (e : Edge.t) -> Hashtbl.find index e.src) edges
  and dst = Array.map (fun (e : Edge.t) -> Hashtbl.find index e.dst) edges in
  (* Relax edges by a topological rank of their source in the distance-0
     subgraph: one pass then carries a distance down every
     intra-iteration chain, and a probe takes about as many passes as a
     path has loop-carried edges rather than as it has nodes. *)
  let indeg = Array.make n 0 and out = Array.make n [] in
  Array.iteri
    (fun i (e : Edge.t) ->
      if e.distance = 0 then begin
        indeg.(dst.(i)) <- indeg.(dst.(i)) + 1;
        out.(src.(i)) <- dst.(i) :: out.(src.(i))
      end)
    edges;
  let rank = Array.make n n and next = ref 0 in
  let rec visit v =
    rank.(v) <- !next;
    incr next;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then visit w)
      out.(v)
  in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 && rank.(v) = n then visit v
  done;
  let order = Array.init (Array.length edges) Fun.id in
  Array.stable_sort (fun i j -> compare rank.(src.(i)) rank.(src.(j))) order;
  let field f = Array.map (fun i -> f i edges.(i)) order in
  let scratch () = Array.make (max 1 n) 0 in
  {
    n;
    srcs = field (fun i _ -> src.(i));
    dsts = field (fun i _ -> dst.(i));
    lat_ops =
      field (fun _ (e : Edge.t) -> if e.kind = Edge.Reg_flow then e.src else -1);
    fixed = field (fun _ e -> Ddg.effective_latency ~latency:(fun _ -> 0) e);
    dists = field (fun _ (e : Edge.t) -> e.distance);
    dist = scratch ();
    pred = scratch ();
    mark = scratch ();
  }

let cycle_latency (c : cycle) ~latency =
  Array.fold_left (fun acc op -> acc + latency op) c.fixed c.ops

(* The cycle of the predecessor graph through dense node [v]. *)
let cycle_through s v =
  let rec collect u ops fixed dist =
    let e = s.pred.(u) in
    let ops = if s.lat_ops.(e) >= 0 then s.lat_ops.(e) :: ops else ops in
    let fixed = fixed + s.fixed.(e) and dist = dist + s.dists.(e) in
    let u = s.srcs.(e) in
    if u = v then { ops = Array.of_list ops; fixed; dist }
    else collect u ops fixed dist
  in
  collect v [] 0 0

(* Any cycle of the predecessor graph (each node has at most one
   predecessor edge, so a walk that meets its own stamp closed one). *)
let pred_cycle s =
  Array.fill s.mark 0 s.n (-1);
  let rec from root =
    if root >= s.n then None
    else begin
      let v = ref root in
      while !v >= 0 && s.mark.(!v) < 0 do
        s.mark.(!v) <- root;
        v := if s.pred.(!v) < 0 then -1 else s.srcs.(s.pred.(!v))
      done;
      if !v >= 0 && s.mark.(!v) = root then Some (cycle_through s !v)
      else from (root + 1)
    end
  in
  from 0

(* Longest-path Bellman–Ford from a virtual source (every distance
   starts at 0) under weights lat(e) - ii * dist(e): [None] when no
   cycle is positive, else a positive cycle read off the predecessor
   graph after a pass that raised something.  Every cycle of that graph
   is positive: the relaxation that closed it raised its target
   strictly, and every other edge on it was at most tight.  And after
   n-1 passes, an acyclic predecessor graph would bound every distance
   by a simple path's weight, which the distances already reach, so a
   raise in pass n leaves a cycle behind: at most n passes run. *)
let positive_cycle s ~latency ~ii =
  let d = s.dist and pred = s.pred in
  Array.fill d 0 s.n 0;
  Array.fill pred 0 s.n (-1);
  let rec pass () =
    let changed = ref false in
    for i = 0 to Array.length s.srcs - 1 do
      let lat = if s.lat_ops.(i) >= 0 then latency s.lat_ops.(i) else s.fixed.(i) in
      let cand = d.(s.srcs.(i)) + lat - (ii * s.dists.(i)) in
      let v = s.dsts.(i) in
      if cand > d.(v) then begin
        d.(v) <- cand;
        pred.(v) <- i;
        changed := true
      end
    done;
    if not !changed then None
    else match pred_cycle s with Some _ as c -> c | None -> pass ()
  in
  pass ()

let solve_feasible s ~latency ~ii = Option.is_none (positive_cycle s ~latency ~ii)

let ceil_ratio (c : cycle) ~latency =
  let lat = cycle_latency c ~latency in
  if c.dist = 0 then if lat > 0 then raise Infeasible else 0
  else (lat + c.dist - 1) / c.dist

(* Newton iteration on the integer II: every II tried is a lower bound
   (the caller's, or the ratio of a cycle found positive below it), a
   positive cycle at II raises II strictly to its own ratio, and the
   first II without one is therefore the minimum.  The last cycle found
   is its witness. *)
let rec iterate s ~latency ~ii witness =
  match positive_cycle s ~latency ~ii with
  | None -> (ii, witness)
  | Some c ->
      let next = ceil_ratio c ~latency in
      assert (next > ii);
      iterate s ~latency ~ii:next (Some c)

let critical ?from s ~latency =
  match from with
  | None -> iterate s ~latency ~ii:1 None
  | Some c ->
      let r = ceil_ratio c ~latency in
      iterate s ~latency ~ii:(max 1 r) (if r >= 1 then Some c else None)

let solve s ~latency = fst (critical s ~latency)

let feasible ddg ~latency ~nodes ~ii =
  solve_feasible (solver ddg ~nodes) ~latency ~ii

let recurrence_ii ddg ~latency nodes = solve (solver ddg ~nodes) ~latency

let rec_mii ddg ~latency =
  List.fold_left
    (fun acc nodes -> max acc (recurrence_ii ddg ~latency nodes))
    1
    (Scc.recurrences ddg)
