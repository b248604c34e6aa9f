(** Deadline-bounded anytime solving: a fallback cascade over the
    production solvers.

    The cascade runs the stages

    {v ilp -> heuristic -> single BB v}

    under one shared {!Fbb_util.Budget}, carving each stage a fraction
    of whatever allowance remains when it starts: the ilp stage half of
    it, the heuristic all of it, the floor none. The budget is the
    stages' only limit (no solver has a node or time cap of its own),
    and it is exact, so no stage spends more than its slice and what
    the ilp stage leaves is the heuristic's. A stage that starts with
    no work left is skipped as [Exhausted]. Every stage runs as
    the solver inside {!Refine.solve}, within its budget slice: a
    candidate that misses timing under full STA of the biased netlist
    folds its violating paths into the request's own problem (through
    {!Problem.extend}, which never touches the shared
    {!Problem.design}) and is re-solved. That problem carries from stage
    to stage and is handed back in {!result}. A candidate is
    {e accepted} only when its refinement signs off clean {e and} it
    passes {!verify} — a plain-loop feasibility, range and cluster-count
    check on the carried problem that shares nothing with the solvers'
    incremental machinery — and the first accepted candidate wins. The
    final [Single_bb] stage is the unconditional floor: it runs even
    with the budget fully exhausted (it is pool-free and linear-time per
    iteration) and climbs uniform levels until one signs off, so the
    cascade never hangs and always returns either a signed-off feasible
    assignment or a typed infeasibility. Infeasibility is only ever
    claimed through the exact {!Problem.max_single_level} proof on the
    carried problem, never inferred from a budget or a crash.

    Each stage attempt is recorded — stage, status, budget spent,
    leakage — forming the degradation report the CLI prints and the
    [cascade.*] counters mirror. The ILP stage survives injected
    ["pool.worker"] faults itself (a faulted branch-and-bound wave
    only forfeits its proof); a stage crash that does escape is
    contained: the stage is marked [Crashed] and the cascade falls
    through to the next stage. The ["budget.exhaust"] fault site is
    evaluated at every stage entry; when it fires the stage is skipped
    as if its budget had already tripped. *)

type stage = Ilp | Heuristic | Single_bb

val stage_name : stage -> string
(** ["ilp"], ["heuristic"], ["single_bb"]. *)

type status =
  | Accepted  (** candidate signed off and won *)
  | No_candidate  (** stage finished without producing an assignment *)
  | Rejected
      (** the stage's refinement ended without a clean full-STA
          sign-off, or its candidate failed {!verify} *)
  | Exhausted  (** stage budget tripped before a usable candidate *)
  | Crashed of string  (** stage raised; the exception, printed *)

type attempt = {
  stage : stage;
  status : status;
  leakage_nw : float option;  (** of the stage's candidate, if any *)
  work_spent : int;  (** budget work units consumed by the stage *)
  elapsed_s : float;
}

type outcome =
  | Solved of {
      stage : stage;  (** the stage whose candidate was accepted *)
      levels : int array;
      leakage_nw : float;
      gap_pct : float option;
          (** optimality-gap bound vs the row-wise leakage lower bound
              [sum_i min_j L(i,j)]; [Some 0.] when the ILP proved
              optimality, [None] when the lower bound is not positive *)
      optimal : bool;
          (** the ILP stage proved this optimal on the carried
              {!result.problem} *)
    }
  | Infeasible
      (** proved exactly: not even the highest uniform level meets
          timing ([Problem.max_single_level = None] on the carried
          {!result.problem}) *)

type result = {
  outcome : outcome;
  attempts : attempt list;  (** in execution order *)
  exhausted : bool;  (** the shared budget had tripped by the end *)
  problem : Problem.t;
      (** the carried problem: the input plus every path the stages'
          sign-offs folded in. A [Solved] assignment meets all of its
          constraints; [Infeasible] means it has no feasible uniform
          level. *)
}

val verify : Problem.t -> max_clusters:int -> int array -> bool
(** The plain-loop check: right length, every level in range, at most
    [max_clusters] distinct levels, and every path's required reduction
    met — all recomputed with plain loops over the problem tables. *)

val solve :
  ?max_clusters:int -> ?budget:Fbb_util.Budget.t -> Problem.t -> result
(** Run the cascade ([max_clusters] defaults to 2; budget defaults to
    unlimited, in which case the ILP stage normally wins). The whole
    run sits inside a [cascade.solve] span with one [cascade.<stage>]
    span per attempted stage. *)
