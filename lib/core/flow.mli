(** End-to-end experiment flow: generate -> place -> pre-process ->
    optimize (heuristic and/or ILP), mirroring the paper's section 5
    methodology. The bench harness and examples are thin wrappers over
    this module. *)

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
  heuristic : (int * Heuristic.result) list;  (** keyed by cluster budget C *)
  ilp : (int * Ilp_opt.result) list;
}

val evaluate :
  ?cs:int list ->
  ?run_ilp:bool ->
  ?ilp_limits:Fbb_ilp.Branch_bound.limits ->
  prepared ->
  beta:float ->
  evaluation
(** Run the optimizers for each cluster budget in [cs] (default [[2; 3]]).
    The ILP (run when [run_ilp], default true) is warm-started from the
    heuristic solution of the same C. Both run inside {!Refine.solve}; an
    ILP entry is the result of the last refinement iteration's solve (its
    [nodes] count that solve only), reported as a timeout unless it
    proved optimality and signed off clean.

    [ilp_limits] caps each C's ILP with one {!Fbb_util.Budget.t} of
    [max_nodes] work units (subsets, interval-bound LPs and
    branch-and-bound nodes, the C-free closure's included) and a
    [max_seconds] deadline, spanning all of that C's refinement
    iterations; without it the ILP is unlimited. The option takes a
    {!Fbb_ilp.Branch_bound.limits} record rather than a budget only
    because the benchmark harness passes one; no solver reads the
    record. *)

val ilp_savings_pct : evaluation -> c:int -> float option
(** ILP leakage saving vs the Single BB baseline; [None] when the ILP
    timed out without proving optimality (the paper's "-" entries) or was
    not run. *)

val heuristic_savings_pct : evaluation -> c:int -> float option
