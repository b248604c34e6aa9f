(** The row-clustering FBB allocation problem (paper section 4.1).

    Pre-processing a placed design against a slowdown coefficient [beta]
    produces everything both optimizers consume:

    - the critical path set Pi — the pruned per-cell longest paths whose
      degraded delay [pd * (1 + beta)] exceeds [Dcrit]. That screen is
      sound only when no level slows a gate, so with any negative
      [reduction] (reverse levels) Pi is every per-cell longest path;
    - per path the required delay reduction [b_k = pd*(1+beta) - Dcrit];
    - per (row, path) the total degraded delay of the path's cells in that
      row, from which the paper's coefficients follow as
      [a(i,j,k) = path_row_delay(k,i) * reduction(j)] — forward body bias
      scales every gate delay by the same level-dependent factor;
    - per (row, level) the row leakage [L(i,j)].

    Levels index the bias generator's voltages ({!Fbb_tech.Bias}), level 0
    being no body bias. The same program covers reverse-bias leakage
    recovery ({!Recovery}): [beta = 0], negative level reductions and
    [b_k = -slack_k]. *)

type rowvec = { idx : int array; coef : float array }
(** A sparse coefficient vector in struct-of-arrays form: [coef.(i)]
    belongs to index [idx.(i)], [idx] ascending. Parallel flat arrays
    keep the float payload unboxed in the optimizer inner loops. *)

type t = {
  placement : Fbb_place.Placement.t;
  analysis : Fbb_sta.Timing.t;  (** the nominal STA the tables came from *)
  beta : float;
  dcrit : float;
      (** timing budget, ps: the nominal critical delay times
          [1 + margin] (see {!build}) *)
  levels : float array;  (** generator voltages, ascending, [levels.(0) = 0] *)
  reduction : float array;
      (** per level: fractional delay reduction [1 - delay_factor];
          negative for reverse levels *)
  row_leak : float array array;  (** [row_leak.(i).(j)]: leakage in nW *)
  paths : Fbb_sta.Paths.path array;  (** the constraint set Pi *)
  required : float array;
      (** [b_k = pd*(1+beta) - dcrit] in ps: positive on screened forward
          problems, negative (minus the slack) on paths that meet the
          budget *)
  path_rows : rowvec array;
      (** per path: degraded delay of the path's cells per row *)
  row_paths : rowvec array;  (** transpose of [path_rows] *)
  nominal_slack : float array;  (** per path: [dcrit - pd], ps *)
  cache : Fbb_sta.Delay_cache.t option;
      (** the shared delay cache handed to {!build}, if any; consumers
          ({!Refine}) reuse it for incremental sign-off contexts *)
}

val leak_tables :
  Fbb_place.Placement.t -> levels:float array -> float array array
(** The [row_leak] table for a placement and level set. Die-independent:
    repeated-build loops compute it once and pass it to {!build} via
    [row_leak]. *)

val build :
  ?cache:Fbb_sta.Delay_cache.t ->
  ?analysis:Fbb_sta.Timing.t ->
  ?paths:Fbb_sta.Paths.path array ->
  ?row_leak:float array array ->
  ?levels:float array ->
  ?margin:float ->
  beta:float ->
  Fbb_place.Placement.t ->
  t
(** Runs nominal STA, extracts and prunes the path set, and assembles all
    coefficient tables. [levels] defaults to the 11 generator voltages.
    [margin] (default 0) sets the budget [dcrit] to the nominal critical
    delay times [1 + margin]; [margin = 0] is the paper's spec exactly.
    Raises [Invalid_argument] unless [margin] is finite and [>= 0].

    Repeated-build loops (Monte-Carlo recovery samples the same design at
    many [beta]s) can skip the per-build STA, extraction and leakage
    walks: [analysis] supplies a precomputed nominal analysis of the
    placement's netlist, [paths] a pre-extracted [Paths.through_cell] set
    of that analysis (re-screened here against [beta]), [row_leak] the
    {!leak_tables} of the same placement and [levels], and [cache] a
    shared {!Fbb_sta.Delay_cache} (used directly when [analysis] is
    absent, and carried in the problem either way). Results are
    bit-identical with or without them. *)

val num_rows : t -> int
val num_levels : t -> int
val num_paths : t -> int
(** [num_paths] is the paper's "No.Constr" — the timing constraints in the
    optimization. *)

val coefficient : t -> path:int -> row:int -> level:int -> float
(** [a(i,j,k)]: delay reduction (ps) of path [k] when row [i] is biased at
    [level]. Zero when the path has no cells in the row. *)

val achieved : t -> levels:int array -> path:int -> float
(** Total reduction of a path under a full row assignment. *)

val max_single_level : t -> int option
(** Smallest level that, applied to every row, meets all constraints;
    [None] when even the highest level cannot compensate the slowdown. *)

val extend : t -> Fbb_sta.Paths.path array -> t
(** Add timing constraints for further paths (gate sequences); their
    delays and coefficient tables are recomputed from the problem's own
    nominal analysis. Paths already present, or screened out as in
    {!build}, are dropped; the budget [dcrit] is kept. Used by the
    {!Refine} loop when signoff finds a violating path outside the
    original per-cell longest set. *)

val row_leakage : t -> row:int -> level:int -> float
val total_leakage : t -> levels:int array -> float
(** Design leakage (nW) under a row assignment. *)

val pp_summary : Format.formatter -> t -> unit
