(* Randomized end-to-end properties over generated circuits and solver
   inputs: whatever the seed, structural and optimality invariants must
   hold. *)

module N = Fbb_netlist.Netlist
module S = Fbb_lp.Simplex

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"random module -> place -> optimize invariants" ~count:8
      (pair (int_range 1 1_000_000) (int_range 2 6))
      (fun (seed, rows) ->
        let nl = Fbb_netlist.Generators.random_module ~seed ~gates:250 () in
        let pl = Fbb_place.Placement.place ~target_rows:rows nl in
        let p = Fbb_core.Problem.build ~beta:0.07 pl in
        match Fbb_core.Heuristic.optimize ~max_clusters:2 p with
        | None ->
          (* only legal when even full bias cannot close timing *)
          Fbb_core.Problem.max_single_level p = None
        | Some r ->
          Fbb_core.Solution.meets_timing p r.Fbb_core.Heuristic.levels
          && Fbb_core.Solution.cluster_count r.Fbb_core.Heuristic.levels <= 2
          && r.Fbb_core.Heuristic.leakage_nw
             <= r.Fbb_core.Heuristic.single_bb_leakage_nw +. 1e-9);
    Test.make ~name:"resize with identity is structure-preserving" ~count:10
      (int_range 1 1_000_000)
      (fun seed ->
        let nl = Fbb_netlist.Generators.random_module ~seed ~gates:120 () in
        let nl' = N.resize nl (fun _ -> None) in
        N.size nl = N.size nl'
        && Array.for_all
             (fun g ->
               (N.cell nl g).Fbb_tech.Cell_library.name
               = (N.cell nl' g).Fbb_tech.Cell_library.name)
             (N.gates nl));
    Test.make ~name:"bench roundtrip preserves gate count" ~count:10
      (int_range 1 1_000_000)
      (fun seed ->
        let nl = Fbb_netlist.Generators.random_module ~seed ~gates:150 () in
        let nl' = Fbb_netlist.Bench_io.parse (Fbb_netlist.Bench_io.to_string nl) in
        N.gate_count nl = N.gate_count nl' && N.validate nl' = Ok ());
    Test.make ~name:"placement deterministic and exhaustive" ~count:10
      (int_range 1 1_000_000)
      (fun seed ->
        let nl = Fbb_netlist.Generators.random_module ~seed ~gates:200 () in
        let a = Fbb_place.Placement.place ~target_rows:4 nl in
        let b = Fbb_place.Placement.place ~target_rows:4 nl in
        Array.for_all
          (fun g ->
            Fbb_place.Placement.row_of a g = Fbb_place.Placement.row_of b g
            && Fbb_place.Placement.row_of a g >= 0)
          (N.gates nl));
    Test.make ~name:"simplex finds known-feasible optimum bound" ~count:50
      (int_range 1 1_000_000)
      (fun seed ->
        (* Build an LP that is feasible by construction: pick x*, derive
           Ax* as the rhs of >= constraints. The solver's optimum can then
           never exceed c . x*. *)
        let rng = Fbb_util.Rng.create ~seed in
        let n = 2 + Fbb_util.Rng.int rng 6 in
        let m = 1 + Fbb_util.Rng.int rng 5 in
        let xstar = Array.init n (fun _ -> Fbb_util.Rng.float rng 5.0) in
        let minimize = Array.init n (fun _ -> Fbb_util.Rng.float rng 10.0) in
        let constraints =
          List.init m (fun _ ->
              let coeffs =
                Array.init n (fun _ -> Fbb_util.Rng.float rng 3.0)
              in
              let rhs = ref 0.0 in
              Array.iteri (fun i a -> rhs := !rhs +. (a *. xstar.(i))) coeffs;
              {
                S.terms = Array.to_list (Array.mapi (fun i a -> (i, a)) coeffs);
                relation = S.Ge;
                rhs = !rhs;
              })
        in
        let problem = { S.num_vars = n; minimize; constraints; upper = None } in
        match S.solve problem with
        | S.Optimal { objective; solution } ->
          let star_obj = ref 0.0 in
          Array.iteri (fun i c -> star_obj := !star_obj +. (c *. xstar.(i))) minimize;
          objective <= !star_obj +. 1e-6
          && S.check problem solution ~eps:1e-6
        | S.Infeasible | S.Unbounded | S.Pivot_limit | S.Budget_exhausted ->
          false);
    Test.make ~name:"checker agrees with meets_timing on random assignments"
      ~count:30
      (int_range 1 1_000_000)
      (fun seed ->
        let p = Tsupport.small_problem () in
        let rng = Fbb_util.Rng.create ~seed in
        let levels =
          Array.init (Fbb_core.Problem.num_rows p) (fun _ ->
              Fbb_util.Rng.int rng 11)
        in
        let checker = Fbb_core.Solution.Checker.create p levels in
        Fbb_core.Solution.Checker.feasible checker
        = Fbb_core.Solution.meets_timing p levels);
  ]

let recovery_tests =
  let open QCheck in
  [
    Test.make ~name:"rbb recovery invariants on random modules" ~count:6
      (int_range 1 1_000_000)
      (fun seed ->
        let nl = Fbb_netlist.Generators.random_module ~seed ~gates:250 () in
        let pl = Fbb_place.Placement.place ~target_rows:4 nl in
        let t = Fbb_core.Recovery.build ~margin:0.06 pl in
        let r = Fbb_core.Recovery.optimize ~max_clusters:2 t in
        Fbb_core.Solution.meets_timing t r.Fbb_core.Recovery.levels
        && r.Fbb_core.Recovery.clusters <= 2
        && r.Fbb_core.Recovery.recovered_leakage_nw
           <= r.Fbb_core.Recovery.nominal_leakage_nw +. 1e-9
        && r.Fbb_core.Recovery.signoff_clean);
    Test.make ~name:"refined heuristic signoff-clean on random modules"
      ~count:6
      (int_range 1 1_000_000)
      (fun seed ->
        let nl = Fbb_netlist.Generators.random_module ~seed ~gates:250 () in
        let pl = Fbb_place.Placement.place ~target_rows:4 nl in
        let p = Fbb_core.Problem.build ~beta:0.06 pl in
        match Fbb_core.Refine.heuristic ~max_clusters:2 p with
        | None -> Fbb_core.Problem.max_single_level p = None
        | Some o -> o.Fbb_core.Refine.signoff_clean);
  ]

let suite =
  List.map (QCheck_alcotest.to_alcotest ~long:false)
    (qcheck_tests @ recovery_tests)
