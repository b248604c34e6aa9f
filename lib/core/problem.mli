(** The row-clustering FBB allocation problem (paper section 4.1).

    Pre-processing runs in two steps, split where the paper's flow
    splits design time from run time: {!prepare} computes once per
    placement everything that does not depend on [beta] (nominal STA,
    per-cell longest paths, per-level reductions and row leakage), and
    {!pose} turns that {!design} and a slowdown coefficient [beta] into
    everything both optimizers consume:

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

type design = {
  placement : Fbb_place.Placement.t;
  cache : Fbb_sta.Delay_cache.t;
      (** the placement's flat delay/leakage tables; {!Refine} and
          {!Fbb_variation.Tuning} build their incremental STA contexts
          on it *)
  analysis : Fbb_sta.Timing.t;  (** the nominal STA *)
  through : Fbb_sta.Paths.path array;
      (** the unscreened per-cell longest paths of [analysis] *)
  levels : float array;  (** generator voltages, ascending, [levels.(0) = 0] *)
  reduction : float array;
      (** per level: fractional delay reduction [1 - delay_factor];
          negative for reverse levels *)
  row_leak : float array array;  (** [row_leak.(i).(j)]: leakage in nW *)
}
(** The design-time half of the program: everything about a placed
    design that does not depend on [beta] (the paper's Fig. 2 computes it
    once, before any sensor reading). Immutable and closure-free, so one
    design is shared by every {!pose} on it — across requests, dies and
    pool domains — and marshals as plain data. A plain record, not a
    private one: the oracle's leakage-scale check rebuilds one with a
    scaled [row_leak]. *)

type t = {
  design : design;  (** the design the tables were posed on *)
  beta : float;
  dcrit : float;
      (** timing budget, ps: the nominal critical delay times
          [1 + margin] (see {!pose}) *)
  paths : Fbb_sta.Paths.path array;  (** the constraint set Pi *)
  required : float array;
      (** [b_k = pd*(1+beta) - dcrit] in ps: positive on screened forward
          problems, negative (minus the slack) on paths that meet the
          budget *)
  path_rows : rowvec array;
      (** per path: degraded delay of the path's cells per row *)
  row_paths : rowvec array;  (** transpose of [path_rows] *)
  nominal_slack : float array;  (** per path: [dcrit - pd], ps *)
}

val prepare : ?levels:float array -> Fbb_place.Placement.t -> design
(** Runs nominal STA on a shared delay cache, extracts the per-cell
    longest paths and tabulates per-level reductions and row leakage.
    [levels] defaults to the 11 generator voltages. Raises
    [Invalid_argument] unless [levels.(0) = 0]. *)

val pose : ?margin:float -> beta:float -> design -> t
(** Screens Pi against [beta] and assembles the coefficient tables.
    [margin] (default 0) sets the budget [dcrit] to the nominal critical
    delay times [1 + margin]; [margin = 0] is the paper's spec exactly.
    Raises [Invalid_argument] unless [beta] and [margin] are finite and
    [>= 0]. Reads the design only, so any number of poses, sequential or
    from pool domains, may share one. *)

val build :
  ?levels:float array -> ?margin:float -> beta:float -> Fbb_place.Placement.t -> t
(** [pose ?margin ~beta (prepare ?levels placement)]. *)

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

val select : t -> int array -> t
(** [select t kept] keeps the constraints [kept] (path indices into
    [t.paths]): path [k] of the result is [t.paths.(kept.(k))], with the
    same design, [beta] and [dcrit]. Selecting every index in order gives
    back [t]'s tables. *)

val row_leakage : t -> row:int -> level:int -> float
val total_leakage : t -> levels:int array -> float
(** Design leakage (nW) under a row assignment. *)

val pp_summary : Format.formatter -> t -> unit
