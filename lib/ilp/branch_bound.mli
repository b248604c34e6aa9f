(** 0-1 integer linear programming by branch and bound.

    LP-relaxation bounds come from {!Fbb_lp.Dual_simplex}: each solve
    builds one engine state from the packed rows with every column boxed
    in [[0, 1]] and solves the root LP once, in place. Every other node
    copies that solved root into a per-domain workspace, applies its
    branch fixings as bounds ([lo = hi]) and re-optimizes by dual
    simplex, so no LP ever runs a phase 1 and no constraint list is
    rebuilt per node. A node prunes only on the engine's certified
    bound, which never exceeds the LP optimum. Branching is on the most
    fractional variable, depth-first flavoured, exploring the nearest
    rounding first. A warm-start incumbent (e.g. from the paper's
    heuristic) makes pruning effective immediately. A
    {!Fbb_util.Budget} is the one limit: a tripped budget reproduces the
    paper's "ILP did not converge" behaviour on the largest designs.

    The search runs in waves: up to 32 open nodes (fewer when the
    budget has less work left) have their
    LP relaxations solved in parallel on the {!Fbb_par.Pool} domain pool,
    then the wave is folded sequentially in node order — incumbent
    updates, pruning bookkeeping, child ordering. The pruning threshold
    (incumbent best folded with [?cutoff]) is frozen at the start of each
    wave, so the set of explored nodes, the node count, the winning
    solution and its deterministic tie-breaking (first node in wave order
    wins among equal objectives) are all bit-identical at any job count;
    only wall-clock time and time-budget truncation depend on the
    machine. *)

type problem = {
  num_vars : int;  (** all variables are binary *)
  minimize : float array;
  rows : Fbb_lp.Dual_simplex.rows;
}

type limits = {
  max_nodes : int;
  max_seconds : float;
}
(** A node and wall-clock cap as one record. No solver reads it: it
    survives only as the argument of [Fbb_core.Flow.evaluate
    ?ilp_limits], which turns it into a {!Fbb_util.Budget.t}. *)

type status =
  | Proved_optimal  (** search exhausted; [best] is the optimum *)
  | Feasible  (** budget tripped; [best] is the best incumbent found *)
  | Proved_infeasible
  | Limit_reached  (** budget tripped before any feasible point was found *)

type result = {
  status : status;
  best : (float array * float) option;  (** (solution, objective) *)
  nodes : int;
  elapsed_s : float;
}

val solve :
  ?budget:Fbb_util.Budget.t -> ?incumbent:float array -> ?cutoff:float ->
  problem -> result
(** [incumbent], when given, must be a feasible 0/1 vector; it seeds the
    upper bound. Raises [Invalid_argument] if it is infeasible.

    [budget] (default unlimited) is the search's only limit. Its work is
    ticked once per expanded node {e in the sequential wave fold} (never
    inside the parallel LP solves), and it is consulted before each
    wave, whose width is [min 32] of its remaining work: a work budget
    of [k] stops the search after exactly [min k n] nodes, where [n] is
    the node count of the unlimited search, and the set of explored
    nodes, and hence the incumbent, is bit-identical at any job count.
    Every LP also re-checks it before each pivot with
    {!Fbb_util.Budget.ok}, root LP included, which consumes no work: a
    passed deadline stops the LP mid-solve. When the budget trips, or
    has no work left, the search stops at the wave boundary and reports
    [Feasible]/[Limit_reached] with the best incumbent found so far
    (anytime semantics).

    [cutoff] prunes any subtree whose LP bound is not strictly below it —
    useful when an external search already holds a solution of that
    objective; solutions at or above the cutoff are not reported.

    The whole solve runs inside a [bb.solve] observability span, each
    LP relaxation inside [bb.lp_bound]; node, prune, incumbent and
    LP-failure events accumulate on the [bb.*] counters (the delta of
    [bb.nodes] over a call equals [result.nodes]). An LP that reaches no
    certified answer (pivot limit, passed deadline, or a Farkas
    certificate that does not check) abandons that subtree, is counted
    on [bb.lp_pivot_limit] and downgrades the result to
    [Feasible]/[Limit_reached], like a tripped budget. A wave
    whose parallel map raises {!Fbb_par.Pool.Worker_error} (e.g. an
    injected ["pool.worker"] fault) is handled the same way: its nodes
    are abandoned, the incumbent and the rest of the frontier are kept,
    the search goes on, and [bb.wave_faults] counts the wave. *)

val objective_of : problem -> float array -> float
