(* Tests for the degradation cascade (Fbb_core.Cascade): stage
   selection under loose/tight/zero budgets, the independent checks,
   full-STA sign-off of accepted answers, infeasibility proofs and
   fault-forced degradation. *)

module Cascade = Fbb_core.Cascade
module Budget = Fbb_util.Budget
module Problem = Fbb_core.Problem

let infeasible_problem () =
  (* Slowdown beyond the deepest bias level's compensation range. *)
  Fbb_core.Problem.build ~beta:0.6 (Lazy.force Tsupport.small_placement)

let test_unlimited_budget_is_exact () =
  let p = Tsupport.small_problem () in
  match Cascade.solve p with
  | {
   Cascade.outcome = Cascade.Solved { stage; levels; optimal; gap_pct; _ };
   exhausted;
   _;
  } ->
    Alcotest.(check bool) "the ilp answers" true (stage = Cascade.Ilp);
    Alcotest.(check bool) "proved optimal" true optimal;
    Alcotest.(check bool) "budget not exhausted" false exhausted;
    Alcotest.(check bool) "independently signed off" true
      (Cascade.verify p ~max_clusters:2 levels);
    (match gap_pct with
    | Some g -> Alcotest.(check bool) "gap non-negative" true (g >= 0.0)
    | None -> ())
  | { Cascade.outcome = Cascade.Infeasible; _ } ->
    Alcotest.fail "feasible instance reported infeasible"

let test_zero_budget_floor () =
  let p = Tsupport.small_problem () in
  match Cascade.solve ~budget:(Budget.create ~work:0 ()) p with
  | { Cascade.outcome = Cascade.Solved { stage; levels; _ }; attempts; _ } ->
    Alcotest.(check bool) "the single-bb floor answers" true
      (stage = Cascade.Single_bb);
    Alcotest.(check bool) "floor answer signed off" true
      (Cascade.verify p ~max_clusters:2 levels);
    (* The skipped stages are recorded as exhausted in the degradation
       report, not silently dropped. *)
    List.iter
      (fun a ->
        if a.Cascade.stage <> Cascade.Single_bb then
          Alcotest.(check bool)
            (Printf.sprintf "%s reported exhausted"
               (Cascade.stage_name a.Cascade.stage))
            true
            (a.Cascade.status = Cascade.Exhausted))
      attempts
  | _ -> Alcotest.fail "expected the single-bb floor to answer"

let test_tight_budgets_stay_feasible () =
  (* Whatever the budget, a feasible instance must yield a verified
     feasible assignment - the anytime contract. *)
  let p = Tsupport.small_problem () in
  List.iter
    (fun work ->
      match Cascade.solve ~budget:(Budget.create ~work ()) p with
      | { Cascade.outcome = Cascade.Solved { levels; _ }; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "signed off at work=%d" work)
          true
          (Cascade.verify p ~max_clusters:2 levels)
      | { Cascade.outcome = Cascade.Infeasible; _ } ->
        Alcotest.failf "feasible instance reported infeasible at work=%d" work)
    [ 1; 10; 100; 1000 ]

(* Each stage spends at most its slice: the heuristic half of the work
   left when it starts, the ilp stage all of it, the floor none; so the
   whole cascade spends at most its budget. *)
let test_stages_stay_within_their_slices () =
  let p = Tsupport.small_problem () in
  List.iter
    (fun work ->
      let r = Cascade.solve ~budget:(Budget.create ~work ()) p in
      let left =
        List.fold_left
          (fun left a ->
            let slice =
              match a.Cascade.stage with
              | Cascade.Heuristic -> (left + 1) / 2
              | Cascade.Ilp -> left
              | Cascade.Single_bb -> 0
            in
            Alcotest.(check bool)
              (Printf.sprintf "work %d: %s spent %d of a %d slice" work
                 (Cascade.stage_name a.Cascade.stage) a.Cascade.work_spent slice)
              true
              (a.Cascade.work_spent >= 0 && a.Cascade.work_spent <= slice);
            left - a.Cascade.work_spent)
          work r.Cascade.attempts
      in
      Alcotest.(check bool) (Printf.sprintf "work %d: within budget" work) true
        (left >= 0))
    [ 0; 1; 5; 20; 50; 300 ]

let test_infeasible_instance () =
  let p = infeasible_problem () in
  (match Cascade.solve p with
  | { Cascade.outcome = Cascade.Infeasible; _ } -> ()
  | _ -> Alcotest.fail "expected Infeasible");
  (* Infeasibility is an exact proof (max_single_level = None), so it
     must hold even when every budgeted stage is starved. *)
  match Cascade.solve ~budget:(Budget.create ~work:0 ()) p with
  | { Cascade.outcome = Cascade.Infeasible; _ } -> ()
  | _ -> Alcotest.fail "expected Infeasible at zero budget"

let test_verify_rejects_bad_assignments () =
  let p = Tsupport.small_problem () in
  let n = Problem.num_rows p in
  Alcotest.(check bool) "wrong length" false
    (Cascade.verify p ~max_clusters:2 (Array.make (n + 1) 0));
  Alcotest.(check bool) "zero bias violates timing" false
    (Cascade.verify p ~max_clusters:2 (Array.make n 0));
  Alcotest.(check bool) "cluster budget enforced" false
    (Cascade.verify p ~max_clusters:1 (Array.init n (fun i -> i mod 2)))

let test_attempts_are_reported () =
  let p = Tsupport.small_problem () in
  let r = Cascade.solve p in
  (* At least one attempt, ending in an accepted stage; work and time
     are reported per attempt. *)
  Alcotest.(check bool) "some attempt recorded" true (r.Cascade.attempts <> []);
  Alcotest.(check bool) "one attempt accepted" true
    (List.exists (fun a -> a.Cascade.status = Cascade.Accepted)
       r.Cascade.attempts);
  List.iter
    (fun a ->
      Alcotest.(check bool) "work spent non-negative" true
        (a.Cascade.work_spent >= 0);
      Alcotest.(check bool) "elapsed non-negative" true
        (a.Cascade.elapsed_s >= 0.0))
    r.Cascade.attempts

let test_fault_forced_degradation () =
  (* With budget.exhaust firing on every stage entry, only the
     budget-free floor remains - and its answer still passes the
     independent sign-off. *)
  let p = Tsupport.small_problem () in
  Fbb_fault.Fault.configure ~rate:1.0 ~seed:1;
  Fun.protect ~finally:Fbb_fault.Fault.clear (fun () ->
      match Cascade.solve p with
      | { Cascade.outcome = Cascade.Solved { stage; levels; _ }; _ } ->
        Alcotest.(check bool) "only the floor remains" true
          (stage = Cascade.Single_bb);
        Alcotest.(check bool) "floor answer signed off" true
          (Fbb_fault.Fault.with_paused (fun () ->
               Cascade.verify p ~max_clusters:2 levels))
      | _ -> Alcotest.fail "expected the floor to answer under faults")

(* Every pool task crashes (["pool.worker"] at rate 1, no other site
   live): the exact solvers must absorb it rather than raise. *)
let with_worker_faults f =
  Fbb_fault.Fault.configure ~rate:0.0 ~seed:1;
  Fbb_fault.Fault.set_site_rate "pool.worker" 1.0;
  Fun.protect ~finally:Fbb_fault.Fault.clear f

let test_bb_survives_worker_faults () =
  let module BB = Fbb_ilp.Branch_bound in
  (* min x0 + x1 subject to x0 + x1 >= 1. *)
  let problem =
    {
      BB.num_vars = 2;
      minimize = [| 1.0; 1.0 |];
      rows =
        Fbb_lp.Dual_simplex.pack ~num_vars:2
          [ { Fbb_lp.Simplex.terms = [ (0, 1.0); (1, 1.0) ];
              relation = Fbb_lp.Simplex.Ge; rhs = 1.0 } ];
    }
  in
  let wave_faults = Fbb_obs.Counter.make "bb.wave_faults" in
  with_worker_faults (fun () ->
      let before = Fbb_obs.Counter.read wave_faults in
      let r = BB.solve ~incumbent:[| 1.0; 1.0 |] problem in
      Alcotest.(check bool) "feasible, proof forfeited" true
        (r.BB.status = BB.Feasible);
      Alcotest.(check bool) "incumbent kept" true
        (r.BB.best = Some ([| 1.0; 1.0 |], 2.0));
      Alcotest.(check bool) "faulted waves counted" true
        (Fbb_obs.Counter.read wave_faults > before);
      let r = BB.solve problem in
      Alcotest.(check bool) "no incumbent: limit reached" true
        (r.BB.status = BB.Limit_reached))

let test_ilp_stage_survives_worker_faults () =
  let p = Tsupport.small_problem () in
  let r = with_worker_faults (fun () -> Cascade.solve p) in
  List.iter
    (fun a ->
      match (a.Cascade.stage, a.Cascade.status) with
      | Cascade.Ilp, Cascade.Crashed m -> Alcotest.failf "ilp crashed: %s" m
      | _ -> ())
    r.Cascade.attempts;
  match r.Cascade.outcome with
  | Cascade.Solved { levels; _ } ->
    Alcotest.(check bool) "answer signed off" true
      (Cascade.verify p ~max_clusters:2 levels)
  | Cascade.Infeasible -> Alcotest.fail "feasible instance reported infeasible"

(* ----- full-STA sign-off of every accepted answer ---------------------- *)

let uniform_level levels =
  Alcotest.(check bool) "floor answer is uniform" true
    (Array.for_all (( = ) levels.(0)) levels);
  levels.(0)

(* The Pi-only optimum of c1355 at 5 % misses Dcrit on the real netlist;
   the accepted answer must sign off under an independent full STA. *)
let test_c1355_signs_off () =
  let prepared = Fbb_core.Flow.prepare (Fbb_netlist.Benchmarks.find "c1355") in
  let p = Fbb_core.Flow.problem prepared ~beta:0.05 in
  let r =
    Cascade.solve ~max_clusters:2 ~budget:(Budget.create ~work:200_000 ()) p
  in
  match r.Cascade.outcome with
  | Cascade.Solved { stage; levels; optimal; _ } ->
    Alcotest.(check bool) "ilp answers" true (stage = Cascade.Ilp && optimal);
    Alcotest.(check (list string)) "full-STA sign-off" []
      (Fbb_oracle.Invariant.signoff p ~levels);
    Alcotest.(check bool) "violating paths folded in" true
      (Problem.num_paths r.Cascade.problem > Problem.num_paths p);
    Alcotest.(check bool) "meets the carried problem" true
      (Cascade.verify r.Cascade.problem ~max_clusters:2 levels)
  | Cascade.Infeasible -> Alcotest.fail "c1355 reported infeasible"

(* With 20 units the heuristic's 10-unit slice finishes c1355 and
   signs off; the ilp stage gets what it leaves, starts from that
   answer and may only improve on it. *)
let test_c1355_small_budget_reaches_the_heuristic () =
  let prepared = Fbb_core.Flow.prepare (Fbb_netlist.Benchmarks.find "c1355") in
  let p = Fbb_core.Flow.problem prepared ~beta:0.05 in
  let r = Cascade.solve ~max_clusters:2 ~budget:(Budget.create ~work:20 ()) p in
  let attempt stage =
    match
      List.find_opt (fun a -> a.Cascade.stage = stage) r.Cascade.attempts
    with
    | Some a -> a
    | None -> Alcotest.failf "no %s attempt" (Cascade.stage_name stage)
  in
  let h = attempt Cascade.Heuristic and i = attempt Cascade.Ilp in
  Alcotest.(check bool) "heuristic within its 10-unit slice" true
    (h.Cascade.work_spent <= 10);
  Alcotest.(check bool) "heuristic accepted" true
    (h.Cascade.status = Cascade.Accepted);
  Alcotest.(check bool) "ilp within what the heuristic left" true
    (i.Cascade.work_spent <= 20 - h.Cascade.work_spent);
  match r.Cascade.outcome with
  | Cascade.Solved { leakage_nw; levels; _ } ->
    Alcotest.(check bool) "no worse than the heuristic" true
      (leakage_nw <= Option.get h.Cascade.leakage_nw);
    Alcotest.(check (list string)) "full-STA sign-off" []
      (Fbb_oracle.Invariant.signoff p ~levels)
  | Cascade.Infeasible -> Alcotest.fail "c1355 reported infeasible"

let least_demanding beta =
  let p = Tsupport.small_problem ~beta () in
  (p, Tsupport.least_demanding_cut p)

let test_floor_is_raised () =
  let p, cut = least_demanding 0.16 in
  let full = Option.get (Problem.max_single_level p) in
  Alcotest.(check bool) "the cut set asks for a lower level" true
    (Option.get (Problem.max_single_level cut) < full);
  let r = Cascade.solve ~budget:(Budget.create ~work:0 ()) cut in
  match r.Cascade.outcome with
  | Cascade.Solved { stage; levels; _ } ->
    Alcotest.(check bool) "the floor answers" true (stage = Cascade.Single_bb);
    Alcotest.(check int) "raised to the lowest level that signs off" full
      (uniform_level levels);
    Alcotest.(check (list string)) "full-STA sign-off" []
      (Fbb_oracle.Invariant.signoff p ~levels)
  | Cascade.Infeasible -> Alcotest.fail "feasible instance reported infeasible"

let test_infeasible_iff_top_level_fails () =
  (* 0.24 is the last slowdown the highest level still compensates. *)
  List.iter
    (fun beta ->
      let p, cut = least_demanding beta in
      Alcotest.(check bool) "the cut set has a feasible uniform level" true
        (Problem.max_single_level cut <> None);
      let top = Problem.num_levels p - 1 in
      let top_fails =
        Fbb_oracle.Invariant.signoff p ~levels:(Fbb_core.Solution.uniform p top)
        <> []
      in
      let r = Cascade.solve ~budget:(Budget.create ~work:0 ()) cut in
      Alcotest.(check bool)
        (Printf.sprintf "beta %g: infeasible iff the highest level fails" beta)
        top_fails
        (r.Cascade.outcome = Cascade.Infeasible);
      if top_fails then
        Alcotest.(check bool) "proved on the carried problem" true
          (Problem.max_single_level r.Cascade.problem = None))
    [ 0.24; 0.28 ]

(* Under a moderate budget the exact stage may stop at an unproved
   incumbent. The cascade must still return nothing worse than the
   heuristic's signed-off answer: here, case 199 of the seed-1 fuzz
   sequence at 200 work units, an incumbent 7.8 % above the heuristic's
   answer (which is the optimum) would otherwise win. *)
let test_moderate_budget_keeps_the_heuristic_answer () =
  let case =
    Fbb_oracle.Case.make ~beta:0.085305648613293539 ~seed:193656 ~gates:91
      ~rows:4 ()
  in
  let p = Fbb_oracle.Case.build case in
  let heuristic =
    match Fbb_core.Refine.heuristic ~max_clusters:2 p with
    | Some o when o.Fbb_core.Refine.signoff_clean ->
      Fbb_core.Solution.leakage_nw p o.Fbb_core.Refine.levels
    | Some _ | None -> Alcotest.fail "the heuristic does not sign off"
  in
  match
    (Cascade.solve ~max_clusters:2 ~budget:(Budget.create ~work:200 ()) p)
      .Cascade.outcome
  with
  | Cascade.Solved { leakage_nw; _ } ->
    Alcotest.(check bool)
      (Printf.sprintf "answer %.6f nW within the heuristic's %.6f nW"
         leakage_nw heuristic)
      true
      (leakage_nw <= heuristic +. 1e-9)
  | Cascade.Infeasible -> Alcotest.fail "feasible instance reported infeasible"

let suite =
  [
    ("unlimited budget is exact", `Quick, test_unlimited_budget_is_exact);
    ("zero budget falls to the floor", `Quick, test_zero_budget_floor);
    ("tight budgets stay feasible", `Quick, test_tight_budgets_stay_feasible);
    ("stages stay within their slices", `Quick,
     test_stages_stay_within_their_slices);
    ("infeasible instance", `Quick, test_infeasible_instance);
    ("verify rejects bad assignments", `Quick,
     test_verify_rejects_bad_assignments);
    ("attempts are reported", `Quick, test_attempts_are_reported);
    ("fault-forced degradation", `Quick, test_fault_forced_degradation);
    ("b&b survives worker faults", `Quick, test_bb_survives_worker_faults);
    ("ilp stage survives worker faults", `Quick,
     test_ilp_stage_survives_worker_faults);
    ("c1355 answer signs off", `Quick, test_c1355_signs_off);
    ("c1355 small budget reaches the heuristic", `Quick,
     test_c1355_small_budget_reaches_the_heuristic);
    ("floor is raised until it signs off", `Quick, test_floor_is_raised);
    ("infeasible iff the highest level fails", `Quick,
     test_infeasible_iff_top_level_fails);
    ("moderate budget keeps the heuristic answer", `Quick,
     test_moderate_budget_keeps_the_heuristic_answer);
  ]
