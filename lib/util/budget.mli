(** Cooperative budget / cancellation token for the solver stack.

    A budget bounds a computation two ways at once:

    - a {b work-tick budget}: a deterministic count of abstract work
      units (simplex pivots, B&B wave nodes, heuristic sweeps,
      Monte-Carlo samples, oracle leaves). Ticks are consumed at
      well-defined sequential points of each solver, so exhaustion —
      and therefore the anytime incumbent returned — is bit-identical
      at any {!Fbb_par.Pool} width and on any machine;
    - a {b wall-clock deadline}: seconds from creation, checked lazily
      on the same ticks. Deadlines make latency bounds real but are
      inherently machine-dependent; tests use work budgets only.

    Accounting is exact: a tick whose cost does not fit under the work
    limit is refused, trips the budget and charges nothing, and every
    tick after a trip is free. So [work_used b <= work] always holds,
    through {!sub} and {!consume} too. Exhaustion is sticky: once
    either limit trips, every subsequent {!tick} and {!ok} reports
    exhaustion, and {!reason} says which limit tripped first. The work
    counter is atomic, so a budget may be shared across domains —
    though solvers that promise determinism only consume it from their
    sequential driver loop (see DESIGN.md).

    [unlimited] is the zero-cost default every solver falls back to:
    no allocation per tick, no clock reads. *)

type t

type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | Work  (** the work-tick budget ran out *)

val unlimited : t
(** Never exhausts; ticks are (cheap) no-ops. *)

val create : ?deadline_s:float -> ?work:int -> unit -> t
(** [create ~deadline_s ~work ()] starts the clock now. Omitted limits
    are infinite; [create ()] behaves like {!unlimited} but is a fresh
    token (its {!work_used} still accumulates). [work] is clamped to
    [>= 0]; a zero work budget is exhausted by its first tick. *)

val is_unlimited : t -> bool
(** True only for {!unlimited} itself. *)

val tick : ?cost:int -> t -> bool
(** Consume [cost] (default 1) work units and re-check the deadline.
    Returns [true] when the computation may continue. A tick that would
    cross the work limit is refused: it returns [false], trips the
    budget and leaves {!work_used} unchanged. Every later tick returns
    [false] and charges nothing. *)

val ok : t -> bool
(** Like {!tick} with cost 0: re-checks the deadline without consuming
    work. *)

val exhausted : t -> bool
(** Sticky exhaustion flag ({!ok} plus a deadline re-check). *)

val reason : t -> reason option
(** Which limit tripped, once {!exhausted}. *)

val work_used : t -> int
(** Total work units consumed so far; never more than the work limit. *)

val remaining_work : t -> int option
(** [None] when no work limit was set; never negative. *)

val elapsed_s : t -> float
(** Wall-clock seconds since {!create}. *)

val remaining_s : t -> float option
(** Seconds until the deadline ([None] when no deadline; never
    negative). *)

val sub : ?work_frac:float -> ?deadline_frac:float -> ?max_work:int -> t -> t
(** A child budget carved out of the parent's {e remaining} allowance:
    its work limit is [frac] of the parent's remaining work (rounded
    up, at least 1 when the parent has any left) and its deadline
    [frac] of the parent's remaining seconds. Fractions default to
    1.0 (inherit everything left). [max_work] further caps the child's
    work, also under a parent with no work limit ({!unlimited}
    included, whose child is otherwise {!unlimited}). The child is
    independent — charge its {!work_used} back with {!consume} when
    the stage ends. An
    exhausted parent yields an already-tripped child with the parent's
    {!reason}. *)

val consume : t -> int -> unit
(** Account work performed elsewhere (e.g. by a child budget) against
    this budget, without the continue/stop verdict of {!tick}. Like a
    tick, work that does not fit under the limit trips the budget and
    is not charged. *)
