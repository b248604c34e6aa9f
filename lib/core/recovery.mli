(** Active leakage recovery with row-level *reverse* body bias — the
    fine-grained body-biasing use case of Khandelwal & Srivastava [7] that
    the paper contrasts itself with, implemented on the same row
    machinery.

    Where the FBB optimizer spends leakage to buy back timing, this one
    spends slack to buy back leakage: rows whose cells all have timing
    slack receive reverse bias (raising Vth, cutting subthreshold leakage)
    as deep as the slack — and the BTBT floor — allows.

    A recovery instance is an ordinary {!Problem.t}: the paper's
    row-clustering program with [beta = 0], levels from
    {!Fbb_tech.Bias.rbb_levels} (level 0 = NBB, level j = -j*50 mV), so
    every level's [reduction] is [<= 0], and [required.(k) = -slack_k].
    Timing is checked by {!Solution.Checker}, re-verified by the same
    full-STA sign-off and refined by the same loop ({!Refine.solve}) as
    forward bias. *)

val build : ?margin:float -> Fbb_place.Placement.t -> Problem.t
(** [Problem.build ~levels:(rbb_levels ()) ~beta:0.0 ?margin]. [margin] (default 0) relaxes the budget
    [p.dcrit] to [Dcrit * (1 + margin)]: a block clocked slower than its
    critical delay can recover more. Every per-cell longest path is a
    constraint. Raises [Invalid_argument] unless [margin] is finite and
    [>= 0]. *)

type result = {
  levels : int array;  (** RBB level per row *)
  clusters : int;
  nominal_leakage_nw : float;  (** all rows at NBB *)
  recovered_leakage_nw : float;
  savings_pct : float;
  signoff_clean : bool;
  iterations : int;
}

val optimize : ?max_clusters:int -> ?max_iterations:int -> Problem.t -> result
(** Greedy deepening in increasing criticality order (per-row 1/slack
    weight over every nominal path) with a cluster-budget merge phase,
    wrapped in {!Refine.solve} ([max_iterations] defaults to 8).
    [max_clusters] defaults to 2 (NBB plus one reverse rail pair); raises
    [Invalid_argument] when it is below 1. Never fails: the all-NBB
    assignment meets any budget at or above the nominal critical delay.
    Not the FBB {!Heuristic}: that one weights criticality per cell and
    merges towards the deeper level. *)
