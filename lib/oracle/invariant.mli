(** From-scratch invariant checker for solver outputs.

    Every check here is recomputed from primary sources — the placement,
    the nominal STA and the cell library — rather than from the problem's
    pre-assembled coefficient tables or the incremental
    {!Fbb_core.Solution.Checker}, so it can catch bugs in the table
    assembly and the fast paths alike. An empty result means the
    solution survived; otherwise each string describes one violated
    invariant. *)

val check :
  ?max_clusters:int ->
  ?reported_leakage_nw:float ->
  Fbb_core.Problem.t ->
  levels:int array ->
  string list
(** Structural and semantic invariants of a solver's answer:
    - the assignment has one in-range level per row;
    - at most [max_clusters] (default 2) distinct levels are used;
    - every constraint path meets its required reduction, with the
      per-row degraded delays re-derived from [Fbb_sta.Timing.gate_delay]
      and the bias speed-ups re-derived from [Fbb_tech.Device];
    - total leakage re-summed gate by gate from the cell library agrees
      with the problem's table-based accounting, and with
      [reported_leakage_nw] when the solver claimed a number. *)

val signoff : Fbb_core.Problem.t -> levels:int array -> string list
(** Full-STA re-verification: re-time the placed netlist under the
    degraded conditions with the bias applied (an independent
    [Fbb_sta.Timing.analyze] run, no path abstraction) and require the
    critical delay to stay within the problem's [dcrit]. Every answer
    {!Fbb_core.Refine.solve} reports clean — and so every accepted
    {!Fbb_core.Cascade} answer — must pass it. Only raw solver output,
    constrained by Pi alone, may legitimately fail it; that is exactly
    the gap {!Fbb_core.Refine} closes. *)
