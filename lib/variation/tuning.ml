module Timing = Fbb_sta.Timing
module P = Fbb_place.Placement

type sensor_kind = Replica | In_situ

type outcome = {
  measured_beta : float;
  raw_beta : float;
  alarms_before : int;
  levels : int array option;
  clusters : int;
  leakage_nw : float;
  nominal_leakage_nw : float;
  dcrit_nominal : float;
  dcrit_degraded : float;
  dcrit_compensated : float;
  timing_closed : bool;
}

let compensations_c = Fbb_obs.Counter.make "tuning.compensations"

let compensate ?(max_clusters = 2) ?(sensor = In_situ) ?(guardband = 0.1)
    ?(resolution = 0.01) ?ctx (design : Fbb_core.Problem.design) ~derate =
  Fbb_obs.Span.with_ ~name:"tuning.compensate" @@ fun () ->
  if not (Float.is_finite guardband) then
    invalid_arg "Tuning.compensate: guardband must be finite";
  Fbb_obs.Counter.incr compensations_c;
  let { Fbb_core.Problem.placement; cache; analysis = nominal; _ } = design in
  let nl = P.netlist placement in
  let ctx =
    match ctx with
    | Some c ->
      if not (Timing.Incremental.netlist c == nl) then
        invalid_arg "Tuning.compensate: context is for a different netlist";
      c
    | None -> Timing.Incremental.create ~cache ~derate nl
  in
  (* The context may arrive with bias applied (e.g. the Monte-Carlo
     single-level search just drove it); reset to NBB to read the
     uncompensated degradation. *)
  let degraded = Timing.Incremental.set_uniform ctx 0.0 in
  let reading =
    match sensor with
    | Replica -> Sensor.critical_path_replica ~nominal ~degraded
    | In_situ -> Sensor.in_situ_monitors ~nominal ~degraded
  in
  let reading = Sensor.quantize ~resolution reading in
  let raw_beta = reading.Sensor.slowdown in
  let measured_beta = raw_beta *. (1.0 +. guardband) in
  let dcrit_nominal = Timing.dcrit nominal in
  let dcrit_degraded = Timing.dcrit degraded in
  let nominal_leakage_nw =
    Fbb_sta.Delay_cache.design_leakage cache ~bias:(fun _ -> 0.0)
  in
  let no_compensation () =
    {
      measured_beta;
      raw_beta;
      alarms_before = reading.Sensor.alarms;
      levels = Some (Array.make (P.num_rows placement) 0);
      clusters = 1;
      leakage_nw = nominal_leakage_nw;
      nominal_leakage_nw;
      dcrit_nominal;
      dcrit_degraded;
      dcrit_compensated = dcrit_degraded;
      timing_closed = dcrit_degraded <= dcrit_nominal +. 1e-6;
    }
  in
  if measured_beta <= 0.0 then no_compensation ()
  else begin
    match
      Fbb_core.Refine.heuristic ~max_clusters
        (Fbb_core.Problem.pose ~beta:measured_beta design)
    with
    | None ->
      (* Compensation impossible even at full bias. *)
      { (no_compensation ()) with levels = None; timing_closed = false }
    | Some r ->
      let levels = r.Fbb_core.Refine.levels in
      let bias g =
        let row = P.row_of placement g in
        if row < 0 then 0.0 else Fbb_tech.Bias.voltage levels.(row)
      in
      let compensated = Timing.Incremental.set_bias ctx bias in
      let dcrit_compensated = Timing.dcrit compensated in
      {
        measured_beta;
        raw_beta;
        alarms_before = reading.Sensor.alarms;
        levels = Some levels;
        clusters = Fbb_core.Solution.cluster_count levels;
        leakage_nw = Fbb_sta.Delay_cache.design_leakage cache ~bias;
        nominal_leakage_nw;
        dcrit_nominal;
        dcrit_degraded;
        dcrit_compensated;
        timing_closed = dcrit_compensated <= dcrit_nominal +. 1e-6;
      }
  end
