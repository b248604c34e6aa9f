(** Dense two-phase primal simplex for linear programs: the reference
    implementation

    {v minimize c.x  subject to  A x (<= | >= | =) b,  0 <= x <= u v}

    The branch and bound solves its LPs with {!Dual_simplex}; this
    solver is kept as the independent reference that the tests compare
    it against, and its constraint type is the list form
    {!Dual_simplex.pack} accepts. Constraints are given sparsely
    (index/coefficient pairs); the solver densifies internally, turns
    each finite upper bound into a [Le] row and gives every [Ge]/[Eq]
    row an artificial for phase 1. Bland's anti-cycling rule is engaged
    after a stall, so termination is guaranteed. *)

type relation = Le | Ge | Eq

type constr = {
  terms : (int * float) list;  (** (variable, coefficient) pairs *)
  relation : relation;
  rhs : float;
}

type problem = {
  num_vars : int;
  minimize : float array;  (** objective coefficients, length [num_vars] *)
  constraints : constr list;
  upper : float array option;
      (** optional per-variable upper bounds (infinite when absent) *)
}

type outcome =
  | Optimal of { objective : float; solution : float array }
  | Infeasible
  | Unbounded
  | Pivot_limit
      (** the pivot budget ran out before either phase converged
          (numerically hostile instance); no conclusion about the
          problem can be drawn *)
  | Budget_exhausted
      (** the caller-supplied {!Fbb_util.Budget} tripped mid-solve; no
          conclusion about the problem can be drawn *)

val solve : ?max_pivots:int -> ?budget:Fbb_util.Budget.t -> problem -> outcome
(** [max_pivots] defaults to a generous function of the problem size;
    exceeding it yields [Pivot_limit] (and bumps the [lp.pivot_limit]
    observability counter) so callers can degrade gracefully instead of
    crashing. Pivot, phase-split and Bland-engagement counts are
    recorded on the [lp.*] counters of {!Fbb_obs.Counter}.

    [budget] is ticked once per pivot (cost 1); when it trips the
    solver abandons the tableau and returns {!Budget_exhausted}.
    {b Determinism caveat:} ticking a shared budget from LP solves that
    run inside the parallel pool makes the trip point depend on
    scheduling — pass per-solve {!Fbb_util.Budget.sub} slices, or tick
    only from sequential driver loops, when bit-identical results
    across job counts matter.

    The ["lp.pivot_limit"] fault-injection site is evaluated once per
    solve; when it fires, the solver reports [Pivot_limit] immediately
    without touching the tableau, exercising callers' degradation
    paths. *)

val check : problem -> float array -> eps:float -> bool
(** Feasibility check of a candidate solution (used in tests and by the
    ILP layer to validate incumbents). *)
