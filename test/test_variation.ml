(* Tests for Fbb_variation: derate models, timing sensors, and the
   closed-loop tuning flow (which doubles as an end-to-end check of the
   optimizer against independent signoff STA). *)

module M = Fbb_variation.Models
module Sensor = Fbb_variation.Sensor
module Tuning = Fbb_variation.Tuning
module T = Fbb_sta.Timing
module Pl = Fbb_place.Placement

let placement () = Lazy.force Tsupport.small_placement
let prepared = lazy (Fbb_core.Problem.prepare (placement ()))
let design () = Lazy.force prepared

let test_uniform () =
  Alcotest.(check (float 1e-12)) "uniform" 1.05 (M.uniform 0.05 3)

let test_die_to_die_stats () =
  let rng = Fbb_util.Rng.create ~seed:1 in
  let xs = Array.init 5_000 (fun _ -> M.die_to_die rng ~sigma:0.05) in
  Alcotest.(check bool) "mean near 1" true
    (Float.abs (Fbb_util.Stats.mean xs -. 1.0) < 0.01);
  Array.iter
    (fun x -> Alcotest.(check bool) "clamped" true (x >= 0.7 && x <= 1.5))
    xs

let test_within_die_per_gate () =
  let nl = Pl.netlist (placement ()) in
  let rng = Fbb_util.Rng.create ~seed:2 in
  let f = M.within_die rng ~sigma:0.04 nl in
  (* Deterministic per gate, varies across gates. *)
  let g0 = (Fbb_netlist.Netlist.gates nl).(0) in
  let g1 = (Fbb_netlist.Netlist.gates nl).(1) in
  Alcotest.(check (float 1e-12)) "stable" (f g0) (f g0);
  Alcotest.(check bool) "varies" true (f g0 <> f g1)

let test_spatial_correlation () =
  let pl = placement () in
  let rng = Fbb_util.Rng.create ~seed:3 in
  let f = M.spatially_correlated rng ~sigma:0.06 pl in
  (* Gates in the same row must be more similar than gates in far rows:
     compare within-row variance to cross-design variance. *)
  let nl = Pl.netlist pl in
  let by_row = Array.make (Pl.num_rows pl) [] in
  Array.iter
    (fun g ->
      let r = Pl.row_of pl g in
      if r >= 0 then by_row.(r) <- f g :: by_row.(r))
    (Fbb_netlist.Netlist.gates nl);
  let row_means =
    Array.map
      (fun l -> Fbb_util.Stats.mean (Array.of_list l))
      by_row
  in
  let spread, _ = Fbb_util.Stats.min_max row_means in
  let spread_hi = snd (Fbb_util.Stats.min_max row_means) in
  Alcotest.(check bool) "regional profile varies across rows" true
    (spread_hi -. spread > 0.005)

let test_temperature () =
  Alcotest.(check (float 1e-12)) "ref" 1.0 (M.temperature_derate 25.0);
  Alcotest.(check bool) "hotter is slower" true
    (M.temperature_derate 105.0 > 1.05)

let test_aging () =
  Alcotest.(check (float 1e-12)) "fresh" 1.0 (M.nbti_aging_derate 0.0);
  let y1 = M.nbti_aging_derate 1.0 in
  let y10 = M.nbti_aging_derate 10.0 in
  Alcotest.(check bool) "ages" true (y1 > 1.0);
  Alcotest.(check bool) "keeps aging" true (y10 > y1);
  Alcotest.(check bool) "sublinear" true (y10 -. y1 < 10.0 *. (y1 -. 1.0))

let test_combine () =
  let f = M.combine [ M.uniform 0.1; M.uniform 0.1 ] in
  Alcotest.(check (float 1e-9)) "product" 1.21 (f 0)

let test_sensors_uniform_slowdown () =
  (* Under a uniform derate both sensors must read exactly beta. *)
  let pl = placement () in
  let nl = Pl.netlist pl in
  let nominal = T.analyze nl in
  let degraded = T.analyze ~derate:(M.uniform 0.07) nl in
  let r1 = Sensor.critical_path_replica ~nominal ~degraded in
  let r2 = Sensor.in_situ_monitors ~nominal ~degraded in
  Alcotest.(check (float 1e-6)) "replica reads beta" 0.07 r1.Sensor.slowdown;
  Alcotest.(check (float 1e-6)) "in-situ reads beta" 0.07 r2.Sensor.slowdown;
  Alcotest.(check bool) "alarms raised" true (r2.Sensor.alarms > 0)

let test_sensor_no_slowdown () =
  let pl = placement () in
  let nl = Pl.netlist pl in
  let nominal = T.analyze nl in
  let r = Sensor.in_situ_monitors ~nominal ~degraded:nominal in
  Alcotest.(check (float 1e-9)) "zero" 0.0 r.Sensor.slowdown;
  Alcotest.(check int) "no alarms" 0 r.Sensor.alarms

let test_replica_misses_offpath_slowdown () =
  (* Degrade only gates off the nominal critical path: the replica reads
     ~0 while the in-situ monitors see the real slowdown. *)
  let pl = placement () in
  let nl = Pl.netlist pl in
  let nominal = T.analyze nl in
  let critical = Hashtbl.create 64 in
  List.iter (fun g -> Hashtbl.replace critical g ()) (T.critical_path nominal);
  let derate g = if Hashtbl.mem critical g then 1.0 else 1.25 in
  let degraded = T.analyze ~derate nl in
  let replica = Sensor.critical_path_replica ~nominal ~degraded in
  let insitu = Sensor.in_situ_monitors ~nominal ~degraded in
  Alcotest.(check (float 1e-6)) "replica blind" 0.0 replica.Sensor.slowdown;
  Alcotest.(check bool) "in-situ sees it" true (insitu.Sensor.slowdown > 0.01)

let test_quantize () =
  let r = { Sensor.slowdown = 0.053; alarms = 1 } in
  Alcotest.(check (float 1e-9)) "rounded up" 0.06
    (Sensor.quantize ~resolution:0.01 r).Sensor.slowdown

let test_tuning_closes_uniform_slowdown () =
  let o = Tuning.compensate (design ()) ~derate:(M.uniform 0.08) in
  Alcotest.(check bool) "timing closed" true o.Tuning.timing_closed;
  Alcotest.(check bool) "measured ~ 8%+guardband" true
    (o.Tuning.measured_beta >= 0.08);
  Alcotest.(check bool) "bias costs leakage" true
    (o.Tuning.leakage_nw > o.Tuning.nominal_leakage_nw);
  Alcotest.(check bool) "degraded was over budget" true
    (o.Tuning.dcrit_degraded > o.Tuning.dcrit_nominal);
  Alcotest.(check bool) "clusters within default budget" true
    (o.Tuning.clusters <= 2)

let test_tuning_no_slowdown_no_bias () =
  let o = Tuning.compensate (design ()) ~derate:(fun _ -> 1.0) in
  Alcotest.(check bool) "closed" true o.Tuning.timing_closed;
  Alcotest.(check (float 1e-9)) "no extra leakage" o.Tuning.nominal_leakage_nw
    o.Tuning.leakage_nw

let test_tuning_closes_correlated_variation () =
  let pl = placement () in
  let rng = Fbb_util.Rng.create ~seed:21 in
  let derate =
    M.combine
      [ M.spatially_correlated rng ~sigma:0.04 pl; M.uniform 0.03 ]
  in
  let o = Tuning.compensate ~guardband:0.3 (design ()) ~derate in
  Alcotest.(check bool) "timing closed under variation" true
    o.Tuning.timing_closed

let test_tuning_impossible_slowdown () =
  let o = Tuning.compensate (design ()) ~derate:(M.uniform 0.6) in
  Alcotest.(check bool) "reported impossible" true (o.Tuning.levels = None);
  Alcotest.(check bool) "not closed" false o.Tuning.timing_closed

let test_tuning_bad_guardband () =
  List.iter
    (fun guardband ->
      Alcotest.(check bool) (Printf.sprintf "guardband %g rejected" guardband)
        true
        (match
           Tuning.compensate ~guardband (design ()) ~derate:(M.uniform 0.08)
         with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ Float.nan; Float.infinity ]

let test_tuning_aging_monotone_leakage () =
  let leak_at years =
    (Tuning.compensate (design ()) ~derate:(fun _ -> M.nbti_aging_derate years))
      .Tuning.leakage_nw
  in
  let l0 = leak_at 0.0 and l3 = leak_at 3.0 and l10 = leak_at 10.0 in
  Alcotest.(check bool) "more aging, more compensation leakage" true
    (l0 <= l3 +. 1e-9 && l3 <= l10 +. 1e-9)

let test_montecarlo () =
  let pl = placement () in
  let mc = Fbb_variation.Montecarlo.run ~samples:8 ~sigma:0.04 pl in
  let open Fbb_variation.Montecarlo in
  Alcotest.(check int) "samples" 8 mc.samples;
  Alcotest.(check bool) "clustered yield >= as-is yield" true
    (mc.clustered.yield_pct >= mc.no_tuning.yield_pct);
  Alcotest.(check bool) "single-bb yield >= as-is yield" true
    (mc.single_bb.yield_pct >= mc.no_tuning.yield_pct);
  (* The clustered loop carries a sensing guardband while the Single BB
     baseline here searches the exact minimal level, so allow it a small
     handicap. *)
  if mc.clustered.yield_pct = mc.single_bb.yield_pct
     && mc.clustered.yield_pct > 0.0
  then
    Alcotest.(check bool) "clustered ships cheaper dies" true
      (mc.clustered.mean_leakage_nw <= mc.single_bb.mean_leakage_nw *. 1.15)

let test_montecarlo_deterministic () =
  let pl = placement () in
  let a = Fbb_variation.Montecarlo.run ~seed:5 ~samples:4 pl in
  let b = Fbb_variation.Montecarlo.run ~seed:5 ~samples:4 pl in
  Alcotest.(check (float 1e-9)) "same mean slowdown"
    a.Fbb_variation.Montecarlo.mean_measured_slowdown_pct
    b.Fbb_variation.Montecarlo.mean_measured_slowdown_pct

let suite =
  [
    ("montecarlo yield ordering", `Slow, test_montecarlo);
    ("montecarlo deterministic", `Slow, test_montecarlo_deterministic);
    ("uniform derate", `Quick, test_uniform);
    ("die-to-die stats", `Quick, test_die_to_die_stats);
    ("within-die per gate", `Quick, test_within_die_per_gate);
    ("spatial correlation", `Quick, test_spatial_correlation);
    ("temperature", `Quick, test_temperature);
    ("aging", `Quick, test_aging);
    ("combine", `Quick, test_combine);
    ("sensors read uniform slowdown", `Quick, test_sensors_uniform_slowdown);
    ("sensor reads zero at nominal", `Quick, test_sensor_no_slowdown);
    ("replica misses off-path slowdown", `Quick, test_replica_misses_offpath_slowdown);
    ("quantize", `Quick, test_quantize);
    ("tuning closes uniform slowdown", `Quick, test_tuning_closes_uniform_slowdown);
    ("tuning no slowdown, no bias", `Quick, test_tuning_no_slowdown_no_bias);
    ("tuning closes correlated variation", `Quick, test_tuning_closes_correlated_variation);
    ("tuning impossible slowdown", `Quick, test_tuning_impossible_slowdown);
    ("tuning rejects bad guardband", `Quick, test_tuning_bad_guardband);
    ("tuning aging monotone leakage", `Quick, test_tuning_aging_monotone_leakage);
  ]
