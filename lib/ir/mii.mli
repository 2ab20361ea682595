(** Recurrence-constrained minimum initiation interval (RecMII).

    For a candidate II, a set of dependence constraints
    [t(dst) >= t(src) + lat(e) - II * distance(e)] is satisfiable iff the
    constraint graph has no positive-weight cycle with weights
    [lat(e) - II * distance(e)].  The II of a recurrence is the smallest
    II for which its subgraph is satisfiable, i.e. the largest
    [ceil (lat(c) / distance(c))] over its cycles [c].

    One exact integer solver computes it: a longest-path Bellman–Ford at
    a lower-bound II, and on a positive cycle II is raised to that
    cycle's ratio and the search repeats.  The last cycle found — the
    critical cycle — is returned as the II's witness.

    A {!solver} captures one recurrence's subgraph once; latency
    assignment evaluates hundreds of candidate latency vectors against
    the same recurrence, so the filtered edge set is worth keeping. *)

exception Infeasible
(** Raised when a recurrence contains a zero-distance cycle with positive
    total latency: no II can schedule it (malformed DDG). *)

type solver

type cycle = private {
  ops : int array;
      (** ids of the operations whose latency the cycle's edges use
          (the sources of its [Reg_flow] edges); a simple cycle, so each
          at most once.  A latency change of any other operation leaves
          the cycle's ratio, and so a witness, intact. *)
  fixed : int;  (** latency of the cycle's other edges *)
  dist : int;  (** total dependence distance *)
}

val solver : Ddg.t -> nodes:int list -> solver
(** Capture the subgraph induced by [nodes]. *)

val solve : solver -> latency:(int -> int) -> int
(** Minimum feasible II of the captured recurrence under the given
    latencies.
    @raise Infeasible on a zero-distance positive cycle. *)

val critical :
  ?from:cycle -> solver -> latency:(int -> int) -> int * cycle option
(** {!solve} together with a witness: a cycle whose
    [ceil (cycle_latency c / c.dist)] equals the II, or [None] when the
    II is 1 and no cycle needs it.  [from] — any cycle of the
    recurrence, e.g. the previous witness under changed latencies —
    starts the search at its ratio, and is itself the witness when that
    ratio is already feasible.
    @raise Infeasible on a zero-distance positive cycle. *)

val cycle_latency : cycle -> latency:(int -> int) -> int

val solve_feasible : solver -> latency:(int -> int) -> ii:int -> bool

val feasible : Ddg.t -> latency:(int -> int) -> nodes:int list -> ii:int -> bool
(** One-shot version of {!solve_feasible}. *)

val recurrence_ii : Ddg.t -> latency:(int -> int) -> int list -> int
(** One-shot version of {!solve}. *)

val rec_mii : Ddg.t -> latency:(int -> int) -> int
(** Max of {!recurrence_ii} over all recurrences; 1 if the loop has none. *)
