(** Closed-loop post-silicon tuning (the methodology of the paper's
    Figure 2): sense the slowdown, run the clustering optimizer for the
    measured coefficient, drive the bias generator, and verify the result
    with signoff STA under the true (per-gate) degradation and the applied
    per-row bias voltages.

    This is also the repository's strongest end-to-end validation of the
    optimizer: the verification step re-times the placed netlist
    independently of the optimizer's path abstraction. *)

type sensor_kind = Replica | In_situ

type outcome = {
  measured_beta : float;  (** after quantization and guardband *)
  raw_beta : float;  (** sensor reading before adjustment *)
  alarms_before : int;
  levels : int array option;  (** None when compensation was impossible *)
  clusters : int;
  leakage_nw : float;  (** design leakage with the bias applied *)
  nominal_leakage_nw : float;  (** leakage with no bias anywhere *)
  dcrit_nominal : float;
  dcrit_degraded : float;
  dcrit_compensated : float;
  timing_closed : bool;
      (** signoff: degraded-and-biased critical delay within the nominal
          budget *)
}

val compensate :
  ?max_clusters:int ->
  ?sensor:sensor_kind ->
  ?guardband:float ->
  ?resolution:float ->
  ?nominal:Fbb_sta.Timing.t ->
  ?paths:Fbb_sta.Paths.path array ->
  ?row_leak:float array array ->
  ?ctx:Fbb_sta.Timing.Incremental.ctx ->
  Fbb_place.Placement.t ->
  derate:(Fbb_netlist.Netlist.id -> float) ->
  outcome
(** One tuning shot. [guardband] (default 0.1) inflates the measured
    slowdown to cover sensing error and non-uniformity; [resolution]
    (default 0.01) quantizes the sensor reading; [sensor] defaults to
    [In_situ].

    Repeated-shot loops (Monte-Carlo runs one shot per sampled die on
    one design) can share work across shots: [nominal] is the
    precomputed NBB analysis, [paths] its [Paths.through_cell] set (for
    the per-shot problem build), [row_leak] the placement's
    {!Fbb_core.Problem.leak_tables} at the default generator levels, and
    [ctx] an incremental STA context created with this shot's [derate] —
    its bias is driven here (reset to NBB first), replacing the two
    from-scratch degraded/compensated analyses. Outcomes are
    bit-identical with or without them. *)
