(** One differential run: every solver against the oracle and the
    independent invariant checker.

    For a {!Case.t} this builds the problem once, then runs the paper's
    two-pass heuristic, the branch & bound exact solver (cold — no warm
    start, so the two searches stay independent), the signoff refinement
    loop, and — when the instance is small enough — the {!Oracle}
    brute force, cross-checking:

    - heuristic/B&B feasibility claims agree with each other and with
      the oracle's;
    - every returned assignment survives {!Invariant.check};
    - heuristic (and refined) leakage is never below the oracle optimum;
    - a proved-optimal B&B answer has exactly the oracle's optimum
      leakage;
    - signoff-clean refinement outcomes pass an independent full-STA
      re-check;
    - metamorphic properties of the optimum: row-permutation invariance,
      monotonicity in beta, and equivariance under scaling the leakage
      table.

    All tolerances are relative 1e-9 — far above float-summation noise,
    far below the leakage quantum of a single row level change. *)

type oracle_result = Checked of Oracle.verdict | Skipped

type bb_run = {
  levels : int array option;
  leakage_nw : float option;  (** recomputed from [levels], not the LP *)
  proved_optimal : bool;
  timed_out : bool;
}

type outputs = {
  oracle : oracle_result;
  heuristic : (int array * float) option;  (** (levels, leakage) *)
  bb : bb_run;
  refine : (int array * float * bool) option;
      (** (levels, leakage, signoff_clean) *)
}
(** Plain data, structurally comparable — the cross-job-count
    determinism suite asserts [outputs] equality at FBB_JOBS=1 vs 4. *)

type report = {
  case : Case.t;
  outputs : outputs;
  failures : string list;  (** empty = all checks passed *)
}

val run : ?metamorphic:bool -> Case.t -> report
(** [metamorphic] (default true) additionally rebuilds the problem under
    a row rotation, a smaller beta and a scaled leakage table — three
    extra oracle solves — on oracle-sized instances. The cold B&B runs
    under a 500,000-unit work budget, so its verdict does not depend on
    host load; a timed-out B&B skips the optimality comparison rather
    than failing. Exceptions while building the case
    are reported as a single failure prefixed ["build:"]. With fault
    injection off, any movement of the contained-fault counters
    ([bb.wave_faults], [ilp.reduce_faults]) during the run is a
    failure: it means the solvers absorbed a real worker crash. *)

val failed : report -> bool

(** {2 Cascade referee}

    Used by [fbbfuzz --faults]: the cascade under test runs with fault
    injection live, while the problem build, the oracle and the
    invariant checker run inside {!Fbb_fault.Fault.with_paused} —
    faults may degrade the cascade to a later stage but can never
    corrupt the ground truth it is judged against. *)

type cascade_report = {
  c_case : Case.t;
  c_result : Fbb_core.Cascade.result option;
      (** [None] when the cascade itself crashed — always a failure,
          since containing stage crashes is the cascade's contract *)
  c_optimum_nw : float option;
      (** the oracle optimum of the cascade's carried problem, on
          tractable feasible instances *)
  c_failures : string list;  (** empty = all checks passed *)
}

val run_cascade :
  ?max_clusters:int -> ?budget:Fbb_util.Budget.t -> Case.t -> cascade_report
(** Everything is judged on the cascade's carried
    {!Fbb_core.Cascade.result.problem}. Checks, for [Solved]:
    {!Fbb_core.Cascade.verify}, the invariant checker and the full-STA
    {!Invariant.signoff} accept the assignment, and on oracle-sized
    instances the leakage never beats the oracle optimum (with equality
    required of an optimality claim), and the reported gap is 0 on an
    optimality claim and otherwise never smaller than the true gap to
    the oracle optimum. For [Infeasible]:
    [max_single_level] is [None] and the oracle agrees. *)

val cascade_failed : cascade_report -> bool
