(* Lifetime tuning: NBTI aging slows the die year after year; the on-chip
   monitors periodically re-measure the slowdown and the optimizer
   re-allocates body bias (section 3.1's dynamic compensation case).

     dune exec examples/aging_tuning.exe

   The design also carries a fixed process corner and runs hot, so the
   aging rides on top of static variation - the bias schedule must keep
   absorbing the drift without burning the leakage budget. *)

module M = Fbb_variation.Models
module Tuning = Fbb_variation.Tuning

let () =
  let spec = Fbb_netlist.Benchmarks.find "c3540" in
  let prep = Fbb_core.Flow.prepare spec in
  let pl = prep.Fbb_core.Flow.placement in
  let design = Fbb_core.Problem.prepare pl in
  let rng = Fbb_util.Rng.create ~seed:7 in
  let corner = M.spatially_correlated rng ~sigma:0.03 pl in
  let temperature = M.temperature_derate 85.0 in
  Printf.printf
    "c3540 at an 85C operating point with a fixed within-die corner;\n\
     re-tuning every epoch over a 12-year lifetime (C = 2).\n\n";
  let tab =
    Fbb_util.Texttab.create
      ~headers:
        [
          "year"; "measured %"; "vbs used (V)"; "leak uW"; "leak x nominal";
          "slack ps"; "closed";
        ]
  in
  List.iter
    (fun years ->
      let derate =
        M.combine [ corner; (fun _ -> temperature); (fun _ -> M.nbti_aging_derate years) ]
      in
      let o = Tuning.compensate ~max_clusters:2 ~guardband:0.2 design ~derate in
      let vbs =
        match o.Tuning.levels with
        | None -> "-"
        | Some levels ->
          Fbb_core.Solution.clusters_used levels
          |> List.map (fun l -> Printf.sprintf "%.2f" (Fbb_tech.Bias.voltage l))
          |> String.concat "/"
      in
      Fbb_util.Texttab.add_row tab
        [
          Printf.sprintf "%.0f" years;
          Printf.sprintf "%.1f" (o.Tuning.measured_beta *. 100.0);
          vbs;
          Printf.sprintf "%.3f" (o.Tuning.leakage_nw /. 1000.0);
          Printf.sprintf "%.2f"
            (o.Tuning.leakage_nw /. o.Tuning.nominal_leakage_nw);
          Printf.sprintf "%.1f"
            (o.Tuning.dcrit_nominal -. o.Tuning.dcrit_compensated);
          (if o.Tuning.timing_closed then "yes" else "NO");
        ])
    [ 0.0; 1.0; 2.0; 4.0; 6.0; 8.0; 10.0; 12.0 ];
  Fbb_util.Texttab.print tab;
  print_endline
    "\nreading: the measured slowdown creeps up with t^0.16; each re-tune\n\
     bumps only the rows that need it, so the leakage cost of staying alive\n\
     grows in small steps rather than block-level jumps."
