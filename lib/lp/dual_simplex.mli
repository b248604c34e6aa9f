(** Bounded-variable dual simplex: the branch-and-bound LP engine

    {v minimize c.x  subject to  lo_r <= a_r.x <= hi_r,  l_j <= x_j <= u_j v}

    Every column carries explicit finite bounds and every constraint row
    is a logical variable [s_r = a_r.x] with the row's bounds, so there
    are no bound rows and no artificials. The slack basis (every logical
    basic, every column at its cheaper bound) is dual feasible for any
    costs, so {!solve} runs the dual simplex from it directly: no
    phase 1, ever.

    A branch fixing ([lo = hi], {!fix}) keeps a dual feasible basis dual
    feasible, so a solved state is the warm start for every fixing
    below it: {!load} copies it into a reusable workspace and {!solve}
    re-optimizes from there.

    The tableau is dense in condensed (Tucker) form: one row per basic
    variable, one column per nonbasic one, [m * n] floats for [m] rows
    and [n] columns. Pricing takes the most infeasible basic variable;
    the ratio test prefers the largest pivot among ties and falls back
    to Bland's smallest-index rule after a run of degenerate pivots
    ([lp.bland_engaged]).

    Answers are certified against the original packed rows, not the
    tableau (Neumaier & Shcherbina, Math. Prog. 99, 2004):
    - an [Optimal] bound is recomputed from the final dual vector with
      an explicit floating-point rounding allowance subtracted, so it
      never exceeds the LP optimum;
    - [Infeasible] is returned only when the leaving row's Farkas
      combination excludes zero by interval evaluation over the boxes;
      a row that fails that check yields [Uncertified]. *)

type rows = {
  start : int array;
      (** row [r]'s entries are [start.(r)] to [start.(r+1) - 1];
          length [m + 1] *)
  idx : int array;  (** column of each entry *)
  coef : float array;  (** coefficient of each entry *)
  lo : float array;  (** per row: lower bound, [neg_infinity] when none *)
  hi : float array;  (** per row: upper bound, [infinity] when none *)
}
(** Constraint rows packed row-wise, as flat arrays. *)

val num_rows : rows -> int

val pack : num_vars:int -> Simplex.constr list -> rows
(** The rows of {!Simplex.constr}s: [Le] bounds above, [Ge] below, [Eq]
    both. Raises [Invalid_argument] on a variable outside
    [0 .. num_vars - 1]. *)

val satisfies : rows -> float array -> eps:float -> bool
(** Whether every row activity of [x] lies within its bounds (to
    [eps]). *)

type t
(** A mutable solver state: tableau, basis, bounds and primal values. *)

val create : cost:float array -> lo:float array -> hi:float array -> rows -> t
(** The slack-basis state for columns [0 .. n-1] with costs [cost] and
    bounds [lo], [hi]. Raises [Invalid_argument] unless every column
    bound is finite with [lo <= hi]. [cost] and the rows are shared,
    not copied, and must not be mutated afterwards. *)

val workspace : unit -> t
(** An empty state for {!load} to fill; its arrays grow to the largest
    state loaded and are reused after that. *)

val load : t -> from:t -> unit
(** [load w ~from] makes [w] an independent copy of [from]. *)

val fix : t -> int -> float -> unit
(** [fix t j v] sets column [j]'s bounds to [[v, v]]. The basis stays
    dual feasible; the next {!solve} restores primal feasibility. *)

type outcome =
  | Optimal of float
      (** the certified lower bound: at most the LP optimum, within the
          rounding allowance of it *)
  | Infeasible  (** certified by a Farkas row *)
  | Uncertified
      (** the dual ratio test found no entering column but the row's
          Farkas certificate did not check: no conclusion *)
  | Pivot_limit  (** the pivot limit ran out: no conclusion *)
  | Budget_exhausted
      (** the caller's {!Fbb_util.Budget} deadline passed: no
          conclusion *)

val solve : ?budget:Fbb_util.Budget.t -> t -> outcome
(** Re-optimize by dual simplex from the current basis.

    A solve that takes more than [200 * (m + n + 10)] pivots yields
    [Pivot_limit] and bumps [lp.pivot_limit]. [budget] is re-checked
    with {!Fbb_util.Budget.ok} before every pivot, the first included:
    it consumes no work (work ticks belong to the caller's sequential
    loop), so only its deadline can stop a solve, which then returns
    [Budget_exhausted] and bumps [lp.budget_stops].

    Counts go to [lp.solves] and [lp.pivots]; [lp.phase1_pivots] is
    registered and never moves. The ["lp.pivot_limit"] fault site is
    evaluated once per call and, when it fires, yields [Pivot_limit]
    without touching the state. *)

val value : t -> int -> float
(** Current value of column [j]. *)

val objective : t -> float
(** [c.x] at the current primal values. *)
