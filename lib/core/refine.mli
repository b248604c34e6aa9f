(** Signoff-driven constraint refinement.

    The constraint set Pi holds only each cell's single longest path
    (section 4.1 / [11]); once the optimizer biases rows unevenly, a
    violating path that was not the longest through any of its cells can
    become critical. The classical remedy is the loop implemented here:
    solve, re-time the placed netlist with the bias applied (full STA, no
    path abstraction), fold any still-violating paths back into Pi, and
    re-solve, until signoff is clean or the iteration cap is hit.

    It is the one acceptance loop: Table 1's optimizers ({!Flow}), every
    {!Cascade} stage and RBB recovery ({!Recovery}) all run inside it.
    Both the heuristic and the exact solver converge within a couple of
    iterations on the benchmark suite (see the refinement tests). *)

type outcome = {
  problem : Problem.t;  (** final, possibly extended problem *)
  levels : int array;
  iterations : int;  (** solver invocations (>= 1) *)
  added_constraints : int;  (** paths folded in by the loop *)
  signoff_clean : bool;
}

val signoff :
  Problem.t -> levels:int array -> bool * Fbb_sta.Paths.path array
(** Re-time the placed netlist under the degraded conditions with the
    per-row bias applied, against the problem's budget [dcrit]. Returns
    whether the budget is met, and the per-cell longest paths that still
    exceed it (measured under the bias). *)

val solve :
  ?max_iterations:int ->
  solver:(Problem.t -> 'r) ->
  levels_of:('r -> int array option) ->
  Problem.t ->
  'r * outcome option
(** Generic refinement loop ([max_iterations] defaults to 10) around any
    solver whose result [levels_of] reads an assignment from. Returns the
    solver's own last result, on [outcome.problem], alongside the
    outcome; the outcome is [None] when the solver's first result has no
    assignment. *)

val heuristic :
  ?max_clusters:int -> ?max_iterations:int -> Problem.t -> outcome option
(** {!solve} around {!Heuristic.optimize}. *)
