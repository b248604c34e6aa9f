(** Deadline-bounded anytime solving: a cascade over the production
    solvers.

    The cascade runs the stages

    {v heuristic -> ilp -> single BB v}

    under one shared {!Fbb_util.Budget}, carving each stage a fraction
    of whatever allowance remains when it starts: the heuristic half of
    it, the ilp stage all of it, the floor none. The budget is the
    stages' only limit (no solver has a node or time cap of its own),
    and it is exact, so no stage spends more than its slice and what
    the heuristic leaves is the ilp stage's. A stage that starts with
    no work left is skipped as [Exhausted]. Every stage runs as the
    solver inside {!Refine.solve}, within its budget slice: a candidate
    that misses timing under full STA of the biased netlist folds its
    violating paths into the request's own problem (through
    {!Problem.extend}, which never touches the shared
    {!Problem.design}) and is re-solved. That problem carries from stage
    to stage and is handed back in {!result}. A candidate is
    {e accepted} only when its refinement signs off clean {e and} it
    passes {!verify} — a plain-loop feasibility, range and cluster-count
    check on the carried problem that shares nothing with the solvers'
    incremental machinery.

    The linear-time heuristic answers first, and the exact search only
    improves on it: the ilp stage runs on the heuristic's carried
    problem, warm-started from its accepted assignment, and its accepted
    answer is returned unless it is strictly worse than the heuristic's
    (a tie goes to the ilp) and the heuristic's still passes {!verify}
    on the carried problem. The final [Single_bb] stage is the
    unconditional floor, run only when neither of the others is
    accepted: it runs even with the budget fully exhausted (it is
    pool-free and linear-time per iteration) and climbs uniform levels
    until one signs off, so the cascade never hangs and always returns
    either a signed-off feasible assignment or a typed infeasibility.
    Infeasibility is only ever claimed through the exact
    {!Problem.max_single_level} proof on the carried problem, never
    inferred from a budget or a crash.

    Each stage attempt is recorded — stage, status, budget spent,
    leakage — forming the degradation report the CLI prints and the
    [cascade.*] counters mirror. The ILP stage survives injected
    ["pool.worker"] faults itself (a faulted branch-and-bound wave
    only forfeits its proof); a stage crash that does escape is
    contained: the stage is marked [Crashed] and the cascade goes on
    to the next stage. The ["budget.exhaust"] fault site is
    evaluated at every stage entry; when it fires the stage is skipped
    as if its budget had already tripped. *)

type stage = Ilp | Heuristic | Single_bb

val stage_name : stage -> string
(** ["ilp"], ["heuristic"], ["single_bb"]. *)

type status =
  | Accepted
      (** candidate signed off; {!outcome} names the accepted
          candidate that was returned *)
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
      stage : stage;  (** the stage whose accepted candidate won *)
      levels : int array;
      leakage_nw : float;
      gap_pct : float option;
          (** optimality-gap bound [(leak - lb) / lb] in percent, where
              [lb] is the larger of the row-wise leakage lower bound
              [sum_i min_j L(i,j)] and the best C-free closure bound
              ({!Ilp_opt.result.lower_bound_nw}) any ILP solve of the
              stage reported, including one its budget cut short;
              [Some 0.] when the ILP proved optimality, [None] when the
              lower bound is not positive *)
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
  ilp : Ilp_opt.result option;
      (** the ilp stage's last solve, as {!Ilp_opt.optimize} returned it
          on the carried problem; [None] when the stage never solved *)
}

val verify : Problem.t -> max_clusters:int -> int array -> bool
(** The plain-loop check: right length, every level in range, at most
    [max_clusters] distinct levels, and every path's required reduction
    met — all recomputed with plain loops over the problem tables. *)

val solve :
  ?max_clusters:int -> ?budget:Fbb_util.Budget.t -> Problem.t -> result
(** Run the cascade ([max_clusters] defaults to 2; budget defaults to
    unlimited, in which case the ILP stage proves its answer optimal). The whole
    run sits inside a [cascade.solve] span with one [cascade.<stage>]
    span per attempted stage. *)
