(* Bechamel micro-benchmarks: one per table/figure pipeline stage, so the
   cost of each reproduction ingredient is visible. The headline
   heuristic-vs-ILP wall-clock ratio (the paper's >1000x claim) is
   measured in the Table-1 experiment on full runs. *)

open Bechamel
open Toolkit

let small_problem =
  lazy
    (let prep = Exp_common.prepare "c1355" in
     Fbb_core.Flow.problem prep ~beta:0.05)

let tests () =
  let c1355 = Exp_common.prepare "c1355" in
  let nl = c1355.Fbb_core.Flow.netlist in
  let pl = c1355.Fbb_core.Flow.placement in
  let p = Lazy.force small_problem in
  let heuristic_of name =
    let prep = Exp_common.prepare name in
    let prob = Fbb_core.Flow.problem prep ~beta:0.05 in
    Test.make ~name:("table1 heuristic " ^ name)
      (Staged.stage (fun () ->
           ignore (Fbb_core.Heuristic.optimize ~max_clusters:2 prob)))
  in
  [
    Test.make ~name:"fig1 characterization sweep"
      (Staged.stage (fun () -> ignore (Fbb_tech.Characterize.figure1 ())));
    Test.make ~name:"fig1 transient inverter sim"
      (Staged.stage (fun () ->
           ignore (Fbb_tech.Transient.propagation_delay ~vbs:0.25 ())));
    Test.make ~name:"table1 sta c1355"
      (Staged.stage (fun () -> ignore (Fbb_sta.Timing.analyze nl)));
    Test.make ~name:"table1 path extraction c1355"
      (Staged.stage
         (let t = Fbb_sta.Timing.analyze nl in
          fun () -> ignore (Fbb_sta.Paths.through_cell t)));
    Test.make ~name:"table1 preprocessing c1355"
      (Staged.stage (fun () -> ignore (Fbb_core.Problem.build ~beta:0.05 pl)));
    heuristic_of "c1355";
    heuristic_of "c6288";
    heuristic_of "Industrial3";
    Test.make ~name:"table1 ilp (enumerate) c1355 beta=5 C=2"
      (Staged.stage (fun () -> ignore (Fbb_core.Ilp_opt.optimize p)));
    Test.make ~name:"ablation ilp monolithic (3-row alu)"
      (Staged.stage
         (let nl = Fbb_netlist.Generators.alu ~bits:4 () in
          let pl = Fbb_place.Placement.place ~target_rows:3 nl in
          let prob = Fbb_core.Problem.build ~beta:0.08 pl in
          fun () ->
            ignore
              (Fbb_ilp.Branch_bound.solve
                 ~budget:(Fbb_util.Budget.create ~work:100_000 ())
                 (Fbb_core.Ilp_opt.formulate ~max_clusters:2 prob))));
    Test.make ~name:"ablation ilp enumerate (3-row alu)"
      (Staged.stage
         (let nl = Fbb_netlist.Generators.alu ~bits:4 () in
          let pl = Fbb_place.Placement.place ~target_rows:3 nl in
          let prob = Fbb_core.Problem.build ~beta:0.08 pl in
          fun () ->
            let config =
              {
                Fbb_core.Ilp_opt.default_config with
                budget = Fbb_util.Budget.create ~work:100_000 ();
              }
            in
            ignore (Fbb_core.Ilp_opt.optimize ~config prob)));
    Test.make ~name:"fig6 placement c1355"
      (Staged.stage (fun () ->
           ignore (Fbb_place.Placement.place ~target_rows:13 nl)));
    Test.make ~name:"fig6 svg render"
      (Staged.stage
         (let levels = Array.make (Fbb_place.Placement.num_rows pl) 2 in
          fun () -> ignore (Fbb_layout.Render.svg pl ~levels)));
    Test.make ~name:"fig3 contact insertion"
      (Staged.stage
         (let levels = Array.make (Fbb_place.Placement.num_rows pl) 2 in
          fun () -> ignore (Fbb_layout.Bias_rails.insert pl ~levels)));
    Test.make ~name:"fig2 closed-loop tuning c1355"
      (Staged.stage (fun () ->
           ignore
             (Fbb_variation.Tuning.compensate (Fbb_core.Problem.prepare pl)
                ~derate:(Fbb_variation.Models.uniform 0.05))));
    Test.make ~name:"sweep incremental check-timing"
      (Staged.stage
         (let checker =
            Fbb_core.Solution.Checker.create p
              (Fbb_core.Solution.uniform p 3)
          in
          let n = Fbb_core.Problem.num_rows p in
          let i = ref 0 in
          fun () ->
            incr i;
            Fbb_core.Solution.Checker.set checker ~row:(!i mod n)
              ~level:(!i mod 11);
            ignore (Fbb_core.Solution.Checker.feasible checker)));
  ]

let run () =
  Exp_common.header "Bechamel micro-benchmarks (per-stage costs)";
  (* Measure the uninstrumented path: the harness installs a global
     aggregator sink, which would otherwise tax every span in the hot
     loops being timed. *)
  Fbb_obs.Sink.suspended @@ fun () ->
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let tab = Fbb_util.Texttab.create ~headers:[ "stage"; "time per run" ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] ->
            let cell =
              if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
              else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
              else Printf.sprintf "%.0f ns" ns
            in
            Fbb_util.Texttab.add_row tab [ name; cell ]
          | Some _ | None -> Fbb_util.Texttab.add_row tab [ name; "n/a" ])
        results)
    (tests ());
  Fbb_util.Texttab.print tab
