(** End-to-end experiment flow: generate -> place -> pre-process ->
    optimize (the {!Cascade}: heuristic, then ILP), mirroring the
    paper's section 5 methodology. The bench harness and examples are
    thin wrappers over this module. *)

type prepared = {
  spec : Fbb_netlist.Benchmarks.spec;
  netlist : Fbb_netlist.Netlist.t;
  placement : Fbb_place.Placement.t;
}

val prepare :
  ?lib:Fbb_tech.Cell_library.t ->
  ?utilization:float ->
  Fbb_netlist.Benchmarks.spec ->
  prepared
(** Generate the benchmark netlist and place it on the paper's row count. *)

val problem : prepared -> beta:float -> Problem.t

type evaluation = {
  beta : float;
  constraints : int;  (** |Pi|, the paper's No.Constr *)
  jopt : int option;
  single_bb_nw : float option;  (** block-level FBB baseline leakage *)
  heuristic : (int * Cascade.attempt) list;
      (** the cascade's heuristic attempt, keyed by cluster budget C *)
  ilp : (int * Ilp_opt.result) list;
      (** the cascade's last ILP solve, keyed by C; reported as a
          timeout unless the cascade returned it proved optimal *)
}

val evaluate :
  ?cs:int list ->
  ?ilp_limits:Fbb_ilp.Branch_bound.limits ->
  prepared ->
  beta:float ->
  evaluation
(** Run one {!Cascade.solve} for each cluster budget in [cs] (default
    [[2; 3]]) on the freshly built problem: the heuristic, then the ILP
    warm-started from its signed-off answer, both inside signoff
    refinement. The heuristic column is the heuristic attempt; the ILP
    column is the ILP stage's last solve (its [nodes] count that solve
    only), with the cascade's answer when that answer is the ILP's,
    proved optimal and signed off.

    [ilp_limits] caps each C's cascade with one {!Fbb_util.Budget.t} of
    [max_nodes] work units and a [max_seconds] deadline: the heuristic
    takes half of it (its descent rounds) and the ILP what is left
    (subsets, interval-bound LPs and branch-and-bound nodes, the C-free
    closure's included), across all refinement iterations. Without it
    the cascade is unlimited. The option takes a
    {!Fbb_ilp.Branch_bound.limits} record rather than a budget only
    because the benchmark harness passes one; no solver reads the
    record. *)

val ilp_savings_pct : evaluation -> c:int -> float option
(** ILP leakage saving vs the Single BB baseline; [None] when the ILP
    did not prove optimality (the paper's "-" entries) or never ran. *)

val heuristic_savings_pct : evaluation -> c:int -> float option
(** Heuristic leakage saving vs the Single BB baseline; [None] when its
    answer did not sign off. *)
