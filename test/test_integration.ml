(* Cross-module integration tests: exact-vs-brute-force on tiny clustering
   instances, signoff verification of optimizer output, and bias-rail /
   area consistency over optimizer solutions. *)

module Problem = Fbb_core.Problem
module Solution = Fbb_core.Solution
module Heuristic = Fbb_core.Heuristic
module Ilp = Fbb_core.Ilp_opt

(* A tiny placed design: 3 rows, so 11^3 assignments are enumerable. *)
let tiny_placement =
  lazy
    (let nl = Fbb_netlist.Generators.alu ~bits:4 () in
     Fbb_place.Placement.place ~target_rows:3 nl)

let brute_force p ~max_clusters =
  let nlev = Problem.num_levels p in
  let nrows = Problem.num_rows p in
  assert (nrows = 3);
  let best = ref None in
  for a = 0 to nlev - 1 do
    for b = 0 to nlev - 1 do
      for c = 0 to nlev - 1 do
        let levels = [| a; b; c |] in
        if
          Solution.cluster_count levels <= max_clusters
          && Solution.meets_timing p levels
        then begin
          let leak = Solution.leakage_nw p levels in
          match !best with
          | Some b when b <= leak -> ()
          | Some _ | None -> best := Some leak
        end
      done
    done
  done;
  !best

let test_ilp_matches_brute_force () =
  List.iter
    (fun beta ->
      let p = Problem.build ~beta (Lazy.force tiny_placement) in
      List.iter
        (fun max_clusters ->
          let expected = brute_force p ~max_clusters in
          let config =
            {
              Ilp.max_clusters;
              budget = Fbb_util.Budget.create ~work:200_000 ();
            }
          in
          let r = Ilp.optimize ~config p in
          match (expected, r.Ilp.leakage_nw) with
          | None, None -> ()
          | Some e, Some got ->
            Alcotest.(check bool) "proved" true r.Ilp.proved_optimal;
            Alcotest.(check (float 1e-6))
              (Printf.sprintf "beta=%.2f C=%d" beta max_clusters)
              e got
          | None, Some _ -> Alcotest.fail "ilp found infeasible solution"
          | Some _, None -> Alcotest.fail "ilp missed the optimum")
        [ 1; 2; 3 ])
    [ 0.04; 0.08; 0.12 ]

let test_heuristic_never_beats_brute_force () =
  List.iter
    (fun beta ->
      let p = Problem.build ~beta (Lazy.force tiny_placement) in
      List.iter
        (fun max_clusters ->
          match
            (brute_force p ~max_clusters, Heuristic.optimize ~max_clusters p)
          with
          | Some optimum, Some r ->
            Alcotest.(check bool) "heuristic >= optimum" true
              (r.Heuristic.leakage_nw >= optimum -. 1e-6)
          | None, None -> ()
          | None, Some _ -> Alcotest.fail "heuristic solved infeasible"
          | Some _, None -> Alcotest.fail "heuristic missed feasible")
        [ 2; 3 ])
    [ 0.04; 0.08 ]

(* Apply an optimizer solution as per-gate bias and re-run signoff STA
   under the degraded conditions: the abstraction (paths + per-row sums)
   must agree with the independent full-netlist analysis. *)
let signoff_closes placement levels ~beta =
  let nl = Fbb_place.Placement.netlist placement in
  let bias g =
    let r = Fbb_place.Placement.row_of placement g in
    if r < 0 then 0.0 else Fbb_tech.Bias.voltage levels.(r)
  in
  let nominal = Fbb_sta.Timing.analyze nl in
  let compensated =
    Fbb_sta.Timing.analyze ~derate:(fun _ -> 1.0 +. beta) ~bias nl
  in
  Fbb_sta.Timing.dcrit compensated <= Fbb_sta.Timing.dcrit nominal +. 1e-6

let test_signoff_verifies_refined_heuristic () =
  List.iter
    (fun name ->
      let prep = Fbb_core.Flow.prepare (Fbb_netlist.Benchmarks.find name) in
      List.iter
        (fun beta ->
          let p = Fbb_core.Flow.problem prep ~beta in
          match Fbb_core.Refine.heuristic ~max_clusters:3 p with
          | None -> Alcotest.fail "expected solution"
          | Some o ->
            Alcotest.(check bool)
              (Printf.sprintf "%s beta=%.2f refinement converges" name beta)
              true o.Fbb_core.Refine.signoff_clean;
            Alcotest.(check bool)
              (Printf.sprintf "%s beta=%.2f independent signoff" name beta)
              true
              (signoff_closes prep.Fbb_core.Flow.placement
                 o.Fbb_core.Refine.levels ~beta))
        [ 0.05; 0.10 ])
    [ "c1355"; "c3540"; "c7552" ]

let test_refinement_catches_hidden_paths () =
  (* c1355's reconvergent XOR trees are exactly the case where the
     per-cell longest-path set is insufficient: the raw heuristic solution
     fails full-netlist signoff and the refinement loop must add
     constraints to fix it. *)
  let prep = Fbb_core.Flow.prepare (Fbb_netlist.Benchmarks.find "c1355") in
  let p = Fbb_core.Flow.problem prep ~beta:0.05 in
  let raw = Option.get (Heuristic.optimize ~max_clusters:2 p) in
  let raw_clean, offenders =
    Fbb_core.Refine.signoff p ~levels:raw.Heuristic.levels
  in
  let refined = Option.get (Fbb_core.Refine.heuristic ~max_clusters:2 p) in
  Alcotest.(check bool) "refined is clean" true
    refined.Fbb_core.Refine.signoff_clean;
  if not raw_clean then begin
    Alcotest.(check bool) "offending paths reported" true
      (Array.length offenders > 0);
    Alcotest.(check bool) "constraints were added" true
      (refined.Fbb_core.Refine.added_constraints > 0)
  end

let test_extend_dedups () =
  let p = Tsupport.small_problem () in
  let same = Fbb_core.Problem.extend p p.Fbb_core.Problem.paths in
  Alcotest.(check int) "no duplicates added"
    (Fbb_core.Problem.num_paths p)
    (Fbb_core.Problem.num_paths same)

let test_layout_of_optimizer_solutions () =
  let prep = Fbb_core.Flow.prepare (Fbb_netlist.Benchmarks.find "c5315") in
  let pl = prep.Fbb_core.Flow.placement in
  let p = Fbb_core.Flow.problem prep ~beta:0.05 in
  match Heuristic.optimize ~max_clusters:3 p with
  | None -> Alcotest.fail "expected solution"
  | Some r ->
    let levels = r.Heuristic.levels in
    let rails = Fbb_layout.Bias_rails.insert pl ~levels in
    Alcotest.(check bool) "at most two rail pairs at C=3" true
      (rails.Fbb_layout.Bias_rails.bias_pairs <= 2);
    Alcotest.(check bool) "rows still fit" true
      rails.Fbb_layout.Bias_rails.feasible;
    Alcotest.(check bool) "utilization increase within the paper bound" true
      (rails.Fbb_layout.Bias_rails.max_utilization_increase <= 0.06);
    let area = Fbb_layout.Area.of_assignment pl ~levels in
    Alcotest.(check bool) "area overhead sane" true
      (area.Fbb_layout.Area.overhead_pct >= 0.0
      && area.Fbb_layout.Area.overhead_pct < 10.0)

let test_savings_grow_with_beta_band () =
  (* The paper's strongest quantitative shape: beta=10% saves at least as
     much as beta=5% (more slowdown -> more expensive baseline -> bigger
     clustering win) on most designs. Check it for one design per class. *)
  List.iter
    (fun name ->
      let prep = Fbb_core.Flow.prepare (Fbb_netlist.Benchmarks.find name) in
      let saving beta =
        let p = Fbb_core.Flow.problem prep ~beta in
        match Heuristic.optimize ~max_clusters:3 p with
        | Some r -> r.Heuristic.savings_pct
        | None -> Alcotest.fail "expected solution"
      in
      Alcotest.(check bool)
        (name ^ ": beta=10 saves at least half of beta=5")
        true
        (saving 0.10 >= 0.5 *. saving 0.05))
    [ "c6288"; "adder_128bits" ]

let suite =
  [
    ("ilp matches brute force", `Slow, test_ilp_matches_brute_force);
    ( "heuristic never beats brute force",
      `Slow,
      test_heuristic_never_beats_brute_force );
    ( "signoff verifies refined heuristic",
      `Slow,
      test_signoff_verifies_refined_heuristic );
    ( "refinement catches hidden paths",
      `Quick,
      test_refinement_catches_hidden_paths );
    ("extend dedups", `Quick, test_extend_dedups);
    ("layout of optimizer solutions", `Quick, test_layout_of_optimizer_solutions);
    ("savings grow with beta", `Slow, test_savings_grow_with_beta_band);
  ]
