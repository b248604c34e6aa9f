(** The paper's exact ILP formulation (section 4.2), solved with our own
    branch-and-bound over an LP relaxation.

    Variables: [x(i,j)] (row i assigned level j) and auxiliary [y(j)]
    (level j used at all). Constraints: one timing row per path in Pi,
    one assignment equality per row, the [sum_i x(i,j) <= F y(j)] linking
    rows and [sum_j y(j) <= C].

    {!optimize} solves that program by enumerating the (at most [C] of
    [P]) level subsets the [y] variables range over and solving each
    restricted assignment problem exactly — provably the same optimum
    as the monolithic 0-1 program, much faster. [sum_j y(j) <= C] is the
    only constraint coupling the rows, and two relaxations of it run
    first:
    - the {e C-free closure}: one branch-and-bound over rows x all
      levels. When its optimum uses at most [C] levels it is the answer,
      proved, and nothing is enumerated (counted on [ilp.cfree_closed]).
      Otherwise its proved objective, or its root-LP bound when its
      budget cut it short, is a floor: the enumeration stops with a
      proof once the incumbent reaches it, and {!result.lower_bound_nw}
      reports it;
    - {e interval families}: a subset [S] that survives the floor-cost
      check ([ilp.subsets_pruned]) is tested against the root-LP bound
      of rows x the levels [min S .. max S], which bounds every subset
      with the same two ends. Bounds are computed lazily, memoized, and
      read through interval containment ([ilp.interval_pruned]).

    Two more speed-ups keep the optimum:
    - timing constraints dominated by another (same or smaller
      requirement with component-wise larger coefficients) are dropped
      ({!reduce_paths}) — sound and lossless, and essential for the
      larger designs;
    - a heuristic warm start seeds the incumbent.

    Pool faults degrade rather than abort: a crashed worker in
    {!reduce_paths} falls back to the full path list (counted on
    [ilp.reduce_faults]), and one inside a branch-and-bound wave
    forfeits only the proof (see {!Fbb_ilp.Branch_bound.solve}). *)

type config = {
  max_clusters : int;  (** the paper's C *)
  budget : Fbb_util.Budget.t;
      (** the solve's only limit: ticked once per enumerated subset and
          once per interval-bound LP, and handed, alone, to every inner
          branch-and-bound solve (which ticks it per node,
          sequentially). The C-free closure runs first on a child
          budget of a tenth of the remaining work and deadline, capped
          at [C / min(rows, P)] of a node per candidate subset (one
          holding a level at or above {!Problem.max_single_level}),
          warm start or not; its work is charged back when it ends.
          The enumeration stops at the first refused tick; the solve
          then reports the best incumbent so far with
          [timed_out = true]. *)
}

val default_config : config
(** C = 2, unlimited budget. *)

type result = {
  levels : int array option;  (** best assignment found, if any *)
  leakage_nw : float option;
  proved_optimal : bool;
  timed_out : bool;
      (** no proof: the budget tripped or a subtree went unproven — the
          paper's "-" case *)
  nodes : int;
  lower_bound_nw : float option;
      (** the C-free closure's certified floor: a lower bound on the
          optimum of this problem, and so of any extension of it, that
          holds whether or not the solve proved anything. [None] when
          the problem is infeasible or no closure bound certified. *)
  constraints_total : int;  (** paper's No.Constr: |Pi| *)
  constraints_solved : int;  (** after dominance reduction *)
}

val reduce_paths : Problem.t -> int list
(** Indices of the timing constraints kept by dominance reduction, in
    decreasing-requirement order. The pairwise scan is sharded across
    the {!Fbb_par.Pool} but depends only on the problem, so the kept
    set is identical at any job count. *)

val formulate : max_clusters:int -> Problem.t -> Fbb_ilp.Branch_bound.problem
(** The paper's unreduced 0-1 program, one timing row per path — the
    reference that tests and the ablation bench solve directly with
    {!Fbb_ilp.Branch_bound.solve} to cross-check {!optimize}. *)

val optimize :
  ?config:config -> ?warm_start:int array -> Problem.t -> result
(** Solve; [warm_start] is a feasible row assignment with at most C
    clusters (e.g. the heuristic's output). An infeasible or over-budget
    warm start is ignored rather than rejected. *)
