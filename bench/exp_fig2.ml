(* Figure 2: the tuning methodology - several circuit blocks, a central
   body-bias generator with two distributable voltages per block, and
   per-block timing sensors triggering compensation.

   We simulate four fabricated blocks with different die conditions
   (process corner, temperature, aging), sense each with in-situ monitors
   and close the loop with the row-clustering optimizer (C = 2 as in the
   figure: vbs1/vbs2 per block). Signoff STA under the true per-gate
   degradation verifies each block. *)

module M = Fbb_variation.Models
module Tuning = Fbb_variation.Tuning
module T = Fbb_util.Texttab

let blocks =
  [
    ("c1355", "slow corner", fun _rng _pl -> M.uniform 0.06);
    ( "c3540",
      "hot die (105C)",
      fun _rng _pl -> fun g -> M.temperature_derate 105.0 *. M.uniform 0.02 g );
    ( "c5315",
      "aged 7 years",
      fun _rng _pl -> fun g -> M.nbti_aging_derate 7.0 *. M.uniform 0.01 g );
    ( "c7552",
      "within-die variation",
      fun rng pl ->
        M.combine [ M.spatially_correlated rng ~sigma:0.05 pl; M.uniform 0.04 ]
    );
  ]

let run () =
  Exp_common.header
    "Figure 2 - closed-loop tuning: 4 blocks, central generator, 2 vbs each";
  let tab =
    T.create
      ~headers:
        [
          "Block"; "Condition"; "alarms"; "meas B%"; "vbs1/vbs2 (V)";
          "leak x nom"; "slack ps"; "closed";
        ]
  in
  let rng = Fbb_util.Rng.create ~seed:2009 in
  List.iter
    (fun (name, condition, make_derate) ->
      let prep = Exp_common.prepare name in
      let pl = prep.Fbb_core.Flow.placement in
      let derate = make_derate (Fbb_util.Rng.split rng) pl in
      let o =
        Tuning.compensate ~max_clusters:2 ~guardband:0.15
          (Fbb_core.Problem.prepare pl) ~derate
      in
      let vbs_cell =
        match o.Tuning.levels with
        | None -> "-"
        | Some levels ->
          Fbb_core.Solution.clusters_used levels
          |> List.filter (fun l -> l > 0)
          |> List.map (fun l -> Printf.sprintf "%.2f" (Fbb_tech.Bias.voltage l))
          |> fun vs -> if vs = [] then "none" else String.concat "/" vs
      in
      T.add_row tab
        [
          name;
          condition;
          T.cell_i o.Tuning.alarms_before;
          T.cell_f ~digits:1 (o.Tuning.measured_beta *. 100.0);
          vbs_cell;
          T.cell_f ~digits:2 (o.Tuning.leakage_nw /. o.Tuning.nominal_leakage_nw);
          T.cell_f ~digits:1 (o.Tuning.dcrit_nominal -. o.Tuning.dcrit_compensated);
          (if o.Tuning.timing_closed then "yes" else "NO");
        ])
    blocks;
  T.print tab;
  print_endline
    "every block returns to its nominal timing budget; leakage cost stays\n\
     bounded because only the critical rows receive forward bias."
