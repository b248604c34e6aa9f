(* Section 5 sweep: c5315 at beta = 5 % from C = 2 to C = 11 clusters.
   The paper reports a marginal 2.56 % additional saving over the whole
   range - the argument for implementing only 2-3 clusters in layout. *)

module T = Fbb_util.Texttab

let run () =
  Exp_common.header "Section 5 - c5315 cluster-count sweep (beta = 5%)";
  let prep = Exp_common.prepare "c5315" in
  let p = Fbb_core.Flow.problem prep ~beta:0.05 in
  let tab =
    T.create ~headers:[ "C"; "heur savings %"; "clusters used"; "ILP savings %" ]
  in
  let single_bb =
    match Fbb_core.Heuristic.pass_one p with
    | Some j -> Fbb_core.Solution.leakage_nw p (Fbb_core.Solution.uniform p j)
    | None -> nan
  in
  let heur_first = ref None in
  let heur_last = ref None in
  List.iter
    (fun cmax ->
      let heur = Fbb_core.Refine.heuristic ~max_clusters:cmax p in
      let heur_saving =
        Option.map
          (fun (o : Fbb_core.Refine.outcome) ->
            Fbb_util.Stats.ratio_pct single_bb
              (Fbb_core.Solution.leakage_nw p o.Fbb_core.Refine.levels))
          heur
      in
      (match (heur_saving, !heur_first) with
      | Some s, None -> heur_first := Some s
      | _, _ -> ());
      (match heur_saving with Some s -> heur_last := Some s | None -> ());
      (* The exact solver is only attempted for small C: the level-subset
         space explodes combinatorially exactly as the paper observed. *)
      let ilp_saving =
        if cmax <= 4 then begin
          let config =
            {
              Fbb_core.Ilp_opt.max_clusters = cmax;
              budget = Fbb_util.Budget.create ~work:Exp_common.ilp_work ();
            }
          in
          let warm =
            Option.map (fun o -> o.Fbb_core.Refine.levels) heur
          in
          let r = Fbb_core.Ilp_opt.optimize ~config ?warm_start:warm p in
          if r.Fbb_core.Ilp_opt.proved_optimal then
            Option.map
              (fun leak -> Fbb_util.Stats.ratio_pct single_bb leak)
              r.Fbb_core.Ilp_opt.leakage_nw
          else None
        end
        else None
      in
      T.add_row tab
        [
          T.cell_i cmax;
          Exp_common.opt_pct heur_saving;
          (match heur with
          | Some o ->
            T.cell_i (Fbb_core.Solution.cluster_count o.Fbb_core.Refine.levels)
          | None -> "-");
          Exp_common.opt_pct ilp_saving;
        ])
    [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ];
  T.print tab;
  (match (!heur_first, !heur_last) with
  | Some a, Some b ->
    Printf.printf
      "marginal gain C=2 -> C=11: %.2f%% (paper: %.2f%%) - more clusters \
       than the layout can afford buy almost nothing\n"
      (b -. a) Paper_ref.c5315_sweep_c2_to_c11_gain_pct
  | _, _ -> print_endline "sweep incomplete")
