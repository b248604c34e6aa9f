(** The paper's exact ILP formulation (section 4.2), solved with our own
    branch-and-bound over an LP relaxation.

    Variables: [x(i,j)] (row i assigned level j) and auxiliary [y(j)]
    (level j used at all). Constraints: one timing row per path in Pi,
    one assignment equality per row, the [sum_i x(i,j) <= F y(j)] linking
    rows and [sum_j y(j) <= C].

    {!optimize} solves that program by enumerating the (at most [C] of
    [P]) level subsets the [y] variables range over and solving each
    restricted assignment problem exactly — provably the same optimum
    as the monolithic 0-1 program, much faster. Two more speed-ups keep
    the optimum:
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
  limits : Fbb_ilp.Branch_bound.limits;
      (** global limits: [max_seconds] caps the whole solve, including all
          enumerated subsets *)
  budget : Fbb_util.Budget.t;
      (** cooperative budget: ticked once per enumerated subset and
          threaded into every inner branch-and-bound solve (which ticks
          it per node, sequentially). When it trips the solve stops at
          the next check point and reports the best incumbent so far
          with [timed_out = true]. *)
}

val default_config : config
(** C = 2, default solver limits, unlimited budget. *)

type result = {
  levels : int array option;  (** best assignment found, if any *)
  leakage_nw : float option;
  proved_optimal : bool;
  timed_out : bool;  (** node or time limit hit — the paper's "-" case *)
  nodes : int;
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
