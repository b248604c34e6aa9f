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
  ?ctx:Fbb_sta.Timing.Incremental.ctx ->
  Fbb_core.Problem.design ->
  derate:(Fbb_netlist.Netlist.id -> float) ->
  outcome
(** One tuning shot on a prepared design ({!Fbb_core.Problem.prepare} at
    the default generator levels): its nominal analysis is the sensors'
    reference and the per-shot problem is posed on it. [guardband]
    (default 0.1) inflates the measured slowdown to cover sensing error
    and non-uniformity; [resolution] (default 0.01) quantizes the sensor
    reading; [sensor] defaults to [In_situ]. Raises [Invalid_argument]
    unless [guardband] is finite.

    [ctx], when given, is an incremental STA context on the design's
    netlist created with this shot's [derate] (Monte-Carlo reuses the
    one its single-level search just drove): its bias is driven here,
    reset to NBB first. Without it the shot creates one on the design's
    delay cache. *)
