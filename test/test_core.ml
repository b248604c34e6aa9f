(* Tests for Fbb_core: problem pre-processing, CheckTiming, heuristic,
   ILP formulation and both exact strategies. *)

module Problem = Fbb_core.Problem
module Solution = Fbb_core.Solution
module Heuristic = Fbb_core.Heuristic
module Ilp = Fbb_core.Ilp_opt
module BB = Fbb_ilp.Branch_bound

let problem = Tsupport.small_problem

let test_problem_shape () =
  let p = problem () in
  Alcotest.(check int) "rows" 6 (Problem.num_rows p);
  Alcotest.(check int) "levels" 11 (Problem.num_levels p);
  Alcotest.(check bool) "has constraints" true (Problem.num_paths p > 0);
  Array.iter
    (fun req -> Alcotest.(check bool) "required positive" true (req > 0.0))
    p.Problem.required

let test_levels_must_start_at_zero () =
  Alcotest.(check bool) "rejected" true
    (match
       Problem.build ~levels:[| 0.1; 0.2 |] ~beta:0.05
         (Lazy.force Tsupport.small_placement)
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_coefficient_consistency () =
  let p = problem () in
  (* achieved == sum of per-row coefficients for any assignment. *)
  let rng = Fbb_util.Rng.create ~seed:4 in
  for _ = 1 to 10 do
    let levels =
      Array.init (Problem.num_rows p) (fun _ -> Fbb_util.Rng.int rng 11)
    in
    for k = 0 to Problem.num_paths p - 1 do
      let direct = Problem.achieved p ~levels ~path:k in
      let via_coeff = ref 0.0 in
      for r = 0 to Problem.num_rows p - 1 do
        via_coeff :=
          !via_coeff +. Problem.coefficient p ~path:k ~row:r ~level:levels.(r)
      done;
      Alcotest.(check (float 1e-6)) "achieved = sum coefficients" direct
        !via_coeff
    done
  done

let test_zero_level_reduces_nothing () =
  let p = problem () in
  for k = 0 to Problem.num_paths p - 1 do
    Alcotest.(check (float 1e-12)) "level 0 reduction" 0.0
      (Problem.achieved p ~levels:(Solution.uniform p 0) ~path:k)
  done

let test_row_leak_monotone () =
  let p = problem () in
  for r = 0 to Problem.num_rows p - 1 do
    for j = 1 to Problem.num_levels p - 1 do
      Alcotest.(check bool) "leak grows with level" true
        (Problem.row_leakage p ~row:r ~level:j
        > Problem.row_leakage p ~row:r ~level:(j - 1))
    done
  done

let test_row_leak_matches_library () =
  let p = problem () in
  let pl = Lazy.force Tsupport.small_placement in
  let nl = Fbb_place.Placement.netlist pl in
  let lib = Fbb_netlist.Netlist.library nl in
  let direct =
    Array.fold_left
      (fun acc g ->
        acc
        +. Fbb_tech.Cell_library.leakage_nw lib (Fbb_netlist.Netlist.cell nl g)
             ~vbs:0.0)
      0.0
      (Fbb_netlist.Netlist.gates nl)
  in
  Alcotest.(check (float 1e-6)) "total NBB leak"
    direct
    (Solution.leakage_nw p (Solution.uniform p 0))

let test_max_single_level () =
  let p = problem () in
  match Problem.max_single_level p with
  | None -> Alcotest.fail "expected feasible"
  | Some j ->
    Alcotest.(check bool) "uniform j meets timing" true
      (Solution.meets_timing p (Solution.uniform p j));
    if j > 0 then
      Alcotest.(check bool) "uniform j-1 violates" false
        (Solution.meets_timing p (Solution.uniform p (j - 1)))

let test_infeasible_beta () =
  (* A slowdown beyond the maximum compensable range: max speed-up is 21%,
     so beta = 60% cannot be fixed. *)
  let p = Fbb_core.Problem.build ~beta:0.6 (Lazy.force Tsupport.small_placement) in
  Alcotest.(check bool) "no single level" true
    (Problem.max_single_level p = None);
  Alcotest.(check bool) "heuristic returns None" true
    (Heuristic.optimize ~max_clusters:2 p = None)

let test_checker_incremental_matches_full () =
  let p = problem () in
  let rng = Fbb_util.Rng.create ~seed:11 in
  let levels = Solution.uniform p 5 in
  let checker = Solution.Checker.create p levels in
  for _ = 1 to 200 do
    let row = Fbb_util.Rng.int rng (Problem.num_rows p) in
    let level = Fbb_util.Rng.int rng (Problem.num_levels p) in
    Solution.Checker.set checker ~row ~level;
    levels.(row) <- level;
    Alcotest.(check bool) "incremental = full"
      (Solution.meets_timing p levels)
      (Solution.Checker.feasible checker)
  done

let test_clusters_used () =
  Alcotest.(check (list int)) "distinct sorted" [ 0; 2; 5 ]
    (Solution.clusters_used [| 5; 0; 2; 2; 0 |]);
  Alcotest.(check int) "count" 3 (Solution.cluster_count [| 5; 0; 2; 2; 0 |])

let test_worst_margin () =
  let p = problem () in
  match Problem.max_single_level p with
  | None -> Alcotest.fail "infeasible"
  | Some j ->
    Alcotest.(check bool) "feasible margin >= 0" true
      (Solution.worst_margin p (Solution.uniform p j) >= 0.0);
    if j > 0 then
      Alcotest.(check bool) "infeasible margin < 0" true
        (Solution.worst_margin p (Solution.uniform p 0) < 0.0)

let test_pass_one_is_single_bb () =
  let p = problem () in
  Alcotest.(check bool) "pass_one = max_single_level" true
    (Heuristic.pass_one p = Problem.max_single_level p)

let test_heuristic_valid () =
  let p = problem () in
  List.iter
    (fun cmax ->
      match Heuristic.optimize ~max_clusters:cmax p with
      | None -> Alcotest.fail "expected a solution"
      | Some r ->
        Alcotest.(check bool) "meets timing" true
          (Solution.meets_timing p r.Heuristic.levels);
        Alcotest.(check bool) "within cluster budget" true
          (r.Heuristic.clusters <= cmax);
        Alcotest.(check bool) "never exceeds the single-BB baseline" true
          (r.Heuristic.leakage_nw <= r.Heuristic.single_bb_leakage_nw +. 1e-9);
        Alcotest.(check bool) "savings non-negative" true
          (r.Heuristic.savings_pct >= -1e-9))
    [ 1; 2; 3; 4 ]

let test_heuristic_c1_is_single_bb () =
  let p = problem () in
  match Heuristic.optimize ~max_clusters:1 p with
  | None -> Alcotest.fail "expected solution"
  | Some r ->
    Alcotest.(check (float 1e-9)) "C=1 equals Single BB"
      r.Heuristic.single_bb_leakage_nw r.Heuristic.leakage_nw

let test_heuristic_monotone_in_c () =
  let p = problem () in
  let leak c =
    match Heuristic.optimize ~max_clusters:c p with
    | Some r -> r.Heuristic.leakage_nw
    | None -> Alcotest.fail "expected solution"
  in
  Alcotest.(check bool) "C=3 at least as good as C=2" true
    (leak 3 <= leak 2 +. 1e-9);
  Alcotest.(check bool) "C=2 at least as good as C=1" true
    (leak 2 <= leak 1 +. 1e-9)

let test_criticality_nonnegative () =
  let p = problem () in
  Array.iter
    (fun ct -> Alcotest.(check bool) "ct >= 0" true (ct >= 0.0))
    (Heuristic.criticality p)

let test_ilp_enumerate_valid () =
  let p = problem () in
  let config =
    { Ilp.default_config with budget = Fbb_util.Budget.create ~work:100_000 () }
  in
  let r = Ilp.optimize ~config p in
  Alcotest.(check bool) "proved" true r.Ilp.proved_optimal;
  match r.Ilp.levels with
  | None -> Alcotest.fail "no solution"
  | Some levels ->
    Alcotest.(check bool) "meets timing" true (Solution.meets_timing p levels);
    Alcotest.(check bool) "within budget" true
      (Solution.cluster_count levels <= 2)

let test_ilp_beats_heuristic () =
  let p = problem () in
  let h = Option.get (Heuristic.optimize ~max_clusters:2 p) in
  let r =
    Ilp.optimize
      ~config:
        { Ilp.default_config with budget = Fbb_util.Budget.create ~work:100_000 () }
      ~warm_start:h.Heuristic.levels p
  in
  match r.Ilp.leakage_nw with
  | Some leak ->
    Alcotest.(check bool) "ilp <= heuristic" true
      (leak <= h.Heuristic.leakage_nw +. 1e-6)
  | None -> Alcotest.fail "no ilp solution"

(* A small problem so the paper's monolithic program finishes quickly. *)
let small_exact_problem =
  lazy
    (let nl = Fbb_netlist.Generators.prefix_adder ~bits:8 () in
     let pl = Fbb_place.Placement.place ~target_rows:3 nl in
     Problem.build ~beta:0.08 pl)

let small_exact_budget () = Fbb_util.Budget.create ~work:200_000 ()

let test_strategies_agree () =
  (* The production solve (dominance-reduced, enumerated subsets)
     against the paper's unreduced 0-1 program solved as one search. *)
  let p = Lazy.force small_exact_problem in
  let a =
    Ilp.optimize
      ~config:{ Ilp.default_config with budget = small_exact_budget () } p
  in
  let b =
    BB.solve ~budget:(small_exact_budget ()) (Ilp.formulate ~max_clusters:2 p)
  in
  Alcotest.(check bool) "both proved" true
    (a.Ilp.proved_optimal && b.BB.status = BB.Proved_optimal);
  match (a.Ilp.leakage_nw, b.BB.best) with
  | Some la, Some (_, lb) -> Alcotest.(check (float 1e-3)) "same optimum" lb la
  | _, _ -> Alcotest.fail "missing solutions"

let test_constraint_reduction_lossless () =
  (* The reduced solve keeps a subset of the timing rows, and its answer
     still meets every path, including the dropped ones. *)
  let p = Lazy.force small_exact_problem in
  let a =
    Ilp.optimize
      ~config:{ Ilp.default_config with budget = small_exact_budget () } p
  in
  Alcotest.(check bool) "reduction keeps at most every constraint" true
    (a.Ilp.constraints_solved <= a.Ilp.constraints_total);
  Alcotest.(check int) "every path counted" (Problem.num_paths p)
    a.Ilp.constraints_total;
  match a.Ilp.levels with
  | Some levels ->
    Alcotest.(check bool) "meets every unreduced path" true
      (Solution.meets_timing p levels)
  | None -> Alcotest.fail "missing solution"

let test_ilp_infeasible_beta () =
  let p = Problem.build ~beta:0.6 (Lazy.force Tsupport.small_placement) in
  let r = Ilp.optimize p in
  Alcotest.(check bool) "no solution" true (r.Ilp.levels = None);
  Alcotest.(check bool) "proved" true r.Ilp.proved_optimal

let test_formulation_shape () =
  let p = problem () in
  let bbp = Ilp.formulate ~max_clusters:2 p in
  let nrows = Problem.num_rows p and nlev = Problem.num_levels p in
  Alcotest.(check int) "variables = N*P + P"
    ((nrows * nlev) + nlev)
    bbp.Fbb_ilp.Branch_bound.num_vars;
  (* timing + assignment + linking + budget + y-bounds *)
  Alcotest.(check int) "constraint count"
    (Problem.num_paths p + nrows + nlev + 1 + nlev)
    (Fbb_lp.Dual_simplex.num_rows bbp.Fbb_ilp.Branch_bound.rows)

let recovery_t =
  lazy (Fbb_core.Recovery.build ~margin:0.08 (Lazy.force Tsupport.small_placement))

let test_recovery_valid () =
  let t = Lazy.force recovery_t in
  let r = Fbb_core.Recovery.optimize ~max_clusters:2 t in
  Alcotest.(check bool) "meets budget" true
    (Solution.meets_timing t r.Fbb_core.Recovery.levels);
  Alcotest.(check bool) "clusters within budget" true
    (r.Fbb_core.Recovery.clusters <= 2);
  Alcotest.(check bool) "recovers leakage" true
    (r.Fbb_core.Recovery.savings_pct > 0.0);
  Alcotest.(check bool) "signoff clean" true r.Fbb_core.Recovery.signoff_clean;
  Alcotest.(check bool) "never exceeds nominal" true
    (r.Fbb_core.Recovery.recovered_leakage_nw
    <= r.Fbb_core.Recovery.nominal_leakage_nw +. 1e-9)

let test_recovery_monotone_in_margin () =
  let pl = Lazy.force Tsupport.small_placement in
  let rec_at margin =
    (Fbb_core.Recovery.optimize
       (Fbb_core.Recovery.build ~margin pl))
      .Fbb_core.Recovery.recovered_leakage_nw
  in
  Alcotest.(check bool) "more margin, more recovery" true
    (rec_at 0.12 <= rec_at 0.04 +. 1e-6)

let test_recovery_zero_margin_safe () =
  let pl = Lazy.force Tsupport.small_placement in
  let t = Fbb_core.Recovery.build pl in
  let r = Fbb_core.Recovery.optimize t in
  (* With no margin the result may be all-NBB, but must never violate. *)
  Alcotest.(check bool) "meets budget" true
    (Solution.meets_timing t r.Fbb_core.Recovery.levels);
  Alcotest.(check bool) "signoff" true r.Fbb_core.Recovery.signoff_clean

let test_recovery_signoff_independent () =
  (* Verify with a fully independent STA that the stretched netlist stays
     inside the budget. *)
  let pl = Lazy.force Tsupport.small_placement in
  let t = Fbb_core.Recovery.build ~margin:0.08 pl in
  let r = Fbb_core.Recovery.optimize t in
  let nl = Fbb_place.Placement.netlist pl in
  let bias g =
    let row = Fbb_place.Placement.row_of pl g in
    if row < 0 then 0.0
    else t.Problem.design.levels.(r.Fbb_core.Recovery.levels.(row))
  in
  let biased = Fbb_sta.Timing.analyze ~bias nl in
  Alcotest.(check bool) "independent signoff" true
    (Fbb_sta.Timing.dcrit biased <= t.Problem.dcrit +. 1e-6)

(* c1355 at a 5 % margin and C = 2 is a recovery answer that takes a
   second refinement iteration: the first greedy answer fails sign-off
   and [Problem.extend] folds offenders into the reverse-level problem.
   Levels and leakage are pinned bit for bit. *)
let test_recovery_c1355_refined () =
  let prep = Fbb_core.Flow.prepare (Fbb_netlist.Benchmarks.find "c1355") in
  let p = Fbb_core.Recovery.build ~margin:0.05 prep.Fbb_core.Flow.placement in
  let r = Fbb_core.Recovery.optimize ~max_clusters:2 p in
  Alcotest.(check int) "two iterations" 2 r.Fbb_core.Recovery.iterations;
  Alcotest.(check bool) "signoff clean" true r.Fbb_core.Recovery.signoff_clean;
  Alcotest.(check (array int)) "levels"
    [| 2; 2; 2; 2; 2; 1; 2; 2; 2; 2; 2; 2; 2 |]
    r.Fbb_core.Recovery.levels;
  Alcotest.(check int64) "leakage bits" 0x404ac713de637608L
    (Int64.bits_of_float r.Fbb_core.Recovery.recovered_leakage_nw)

let test_recovery_keeps_every_path () =
  (* Reverse levels slow gates, so the forward screen (drop paths that
     meet dcrit) is unsound: every per-cell longest path is a constraint,
     with [required = -slack]. *)
  let p = Lazy.force recovery_t in
  let through = Fbb_sta.Paths.through_cell p.Problem.design.analysis in
  Alcotest.(check int) "all through-cell paths" (Array.length through)
    (Problem.num_paths p);
  Array.iteri
    (fun k (path : Fbb_sta.Paths.path) ->
      Alcotest.(check bool) "same path" true
        (path.Fbb_sta.Paths.gates = p.Problem.paths.(k).Fbb_sta.Paths.gates);
      Alcotest.(check (float 0.0)) "required is minus the slack"
        (-.p.Problem.nominal_slack.(k))
        p.Problem.required.(k))
    through

let test_recovery_extend_keeps_safe_offender () =
  (* A path that meets the budget at nominal timing can still break it
     under reverse bias, so [extend] on a reverse-level problem must keep
     it. Drop the shortest path, then hand it back. *)
  let p = Lazy.force recovery_t in
  let n = Problem.num_paths p in
  let shortest = p.Problem.paths.(n - 1) in
  Alcotest.(check bool) "safe at nominal" true
    (shortest.Fbb_sta.Paths.delay < p.Problem.dcrit);
  (* [extend] reads only [paths] of the tables; it rebuilds the rest. *)
  let trimmed =
    { p with Problem.paths = Array.sub p.Problem.paths 0 (n - 1) }
  in
  let back = Problem.extend trimmed [| shortest |] in
  Alcotest.(check int) "offender kept" n (Problem.num_paths back);
  Alcotest.(check (float 0.0)) "budget kept" p.Problem.dcrit back.Problem.dcrit

let test_refine_signoff_direct () =
  let p = problem () in
  (* A maximal uniform assignment always passes signoff (bias only speeds
     things up); an all-NBB assignment fails whenever constraints exist. *)
  let clean_hi, offenders_hi =
    Fbb_core.Refine.signoff p ~levels:(Solution.uniform p 10)
  in
  Alcotest.(check bool) "max bias closes" true clean_hi;
  Alcotest.(check int) "no offenders" 0 (Array.length offenders_hi);
  let clean_lo, offenders_lo =
    Fbb_core.Refine.signoff p ~levels:(Solution.uniform p 0)
  in
  Alcotest.(check bool) "NBB fails under slowdown" false clean_lo;
  Alcotest.(check bool) "offenders reported" true
    (Array.length offenders_lo > 0)

let test_refine_generic_solver () =
  let p = problem () in
  (* A constant solver returning the maximal assignment must converge in
     one iteration. *)
  let o =
    Option.get
      (snd
         (Fbb_core.Refine.solve
            ~solver:(fun q -> Some (Solution.uniform q 10))
            ~levels_of:Fun.id p))
  in
  Alcotest.(check int) "one iteration" 1 o.Fbb_core.Refine.iterations;
  Alcotest.(check bool) "clean" true o.Fbb_core.Refine.signoff_clean;
  (* A solver that always fails propagates None. *)
  Alcotest.(check bool) "none propagates" true
    (snd (Fbb_core.Refine.solve ~solver:(fun _ -> None) ~levels_of:Fun.id p)
    = None)

let test_heuristic_bad_c () =
  let p = problem () in
  Alcotest.(check bool) "C=0 rejected" true
    (match Heuristic.optimize ~max_clusters:0 p with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_extend_empty () =
  let p = problem () in
  Alcotest.(check int) "no-op" (Problem.num_paths p)
    (Problem.num_paths (Problem.extend p [||]))

let test_recovery_bad_margin () =
  let pl = Lazy.force Tsupport.small_placement in
  List.iter
    (fun margin ->
      Alcotest.(check bool) (Printf.sprintf "margin %g rejected" margin) true
        (match Fbb_core.Recovery.build ~margin pl with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ -0.1; Float.nan; Float.infinity ]

let test_problem_bad_beta () =
  let d = Problem.prepare (Lazy.force Tsupport.small_placement) in
  List.iter
    (fun beta ->
      Alcotest.(check bool) (Printf.sprintf "beta %g rejected" beta) true
        (match Problem.pose ~beta d with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ Float.nan; Float.infinity; -0.05 ]

(* Structural equality that counts nan as equal to itself: the nominal
   analysis keeps nan placeholders for non-flip-flop endpoints. *)
let same a b = compare a b = 0

(* One prepared design posed many times, sequentially and from pool
   domains, gives exactly the problems fresh builds give, and comes out
   of it unchanged. *)
let test_shared_design_bit_identical () =
  let pl = Lazy.force Tsupport.small_placement in
  let d = Problem.prepare pl in
  let before = Marshal.to_string d [] in
  let grid =
    Array.of_list
      (List.concat_map
         (fun beta -> List.map (fun margin -> (beta, margin)) [ 0.0; 0.05 ])
         [ 0.0; 0.05; 0.10 ])
  in
  let pose (beta, margin) = Problem.pose ~margin ~beta d in
  let sequential = Array.map pose grid in
  let pooled =
    let prev = Fbb_par.Pool.jobs () in
    Fbb_par.Pool.set_jobs 3;
    Fun.protect
      ~finally:(fun () -> Fbb_par.Pool.set_jobs prev)
      (fun () -> Fbb_par.Pool.parallel_map ~chunk:1 grid ~f:pose)
  in
  Array.iteri
    (fun i (beta, margin) ->
      let fresh = Problem.build ~margin ~beta pl in
      let name = Printf.sprintf "beta %g margin %g" beta margin in
      Alcotest.(check bool) (name ^ ", sequential") true
        (same sequential.(i) fresh);
      Alcotest.(check bool) (name ^ ", pooled") true (same pooled.(i) fresh))
    grid;
  (* A request whose sign-off folds paths in extends its own problem
     only. *)
  let r =
    Fbb_core.Cascade.solve
      (Tsupport.least_demanding_cut (Problem.pose ~beta:0.16 d))
  in
  Alcotest.(check bool) "the request refined" true
    (Problem.num_paths r.Fbb_core.Cascade.problem > 1);
  Alcotest.(check bool) "design unchanged" true
    (Marshal.to_string d [] = before)

let test_select () =
  let rng = Fbb_util.Rng.create ~seed:11 in
  List.iter
    (fun p ->
      let m = Problem.num_paths p in
      for _ = 1 to 20 do
        let kept =
          Array.of_list
            (List.filter
               (fun _ -> Fbb_util.Rng.int rng 2 = 0)
               (List.init m Fun.id))
        in
        let q = Problem.select p kept in
        let take a = Array.map (fun k -> a.(k)) kept in
        Alcotest.(check bool) "same design" true
          (q.Problem.design == p.Problem.design);
        Alcotest.(check bool) "same beta and budget" true
          (q.Problem.beta = p.Problem.beta && q.Problem.dcrit = p.Problem.dcrit);
        Alcotest.(check bool) "paths" true (q.Problem.paths = take p.Problem.paths);
        Alcotest.(check bool) "required" true
          (q.Problem.required = take p.Problem.required);
        Alcotest.(check bool) "nominal slack" true
          (q.Problem.nominal_slack = take p.Problem.nominal_slack);
        Alcotest.(check bool) "path rows" true
          (q.Problem.path_rows = take p.Problem.path_rows);
        (* row_paths is the transpose of path_rows, paths ascending. *)
        Array.iteri
          (fun r (rv : Problem.rowvec) ->
            let want = ref [] in
            Array.iteri
              (fun k (pr : Problem.rowvec) ->
                Array.iteri
                  (fun i row -> if row = r then want := (k, pr.coef.(i)) :: !want)
                  pr.idx)
              q.Problem.path_rows;
            Alcotest.(check bool) "row paths" true
              (List.combine (Array.to_list rv.idx) (Array.to_list rv.coef)
              = List.rev !want))
          q.Problem.row_paths
      done;
      Alcotest.(check bool) "selecting every path is the identity" true
        (same (Problem.select p (Array.init m Fun.id)) p))
    [ problem (); Lazy.force recovery_t ]

let test_recovery_bad_c () =
  let t = Lazy.force recovery_t in
  Alcotest.(check bool) "C=0 rejected" true
    (match Fbb_core.Recovery.optimize ~max_clusters:0 t with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_zero_beta () =
  (* No slowdown: no constraints, jopt = 0, nothing to optimize. *)
  let p = Fbb_core.Problem.build ~beta:0.0 (Lazy.force Tsupport.small_placement) in
  Alcotest.(check int) "no constraints" 0 (Problem.num_paths p);
  Alcotest.(check (option int)) "jopt 0" (Some 0) (Heuristic.pass_one p);
  match Heuristic.optimize ~max_clusters:2 p with
  | None -> Alcotest.fail "expected trivial solution"
  | Some r ->
    Alcotest.(check (float 1e-9)) "no savings to make" 0.0
      r.Heuristic.savings_pct;
    Alcotest.(check (list int)) "all NBB" [ 0 ]
      (Solution.clusters_used r.Heuristic.levels)

(* ----- refine / recovery edge cases ------------------------------------- *)

let test_refine_zero_beta () =
  (* No slowdown means an empty critical-path set: the refinement loop
     must converge immediately with nothing to fold in. *)
  let p = Fbb_core.Problem.build ~beta:0.0 (Lazy.force Tsupport.small_placement) in
  Alcotest.(check int) "no constraints" 0 (Problem.num_paths p);
  match Fbb_core.Refine.heuristic p with
  | None -> Alcotest.fail "zero beta must be solvable"
  | Some o ->
    Alcotest.(check int) "one iteration" 1 o.Fbb_core.Refine.iterations;
    Alcotest.(check int) "nothing folded in" 0 o.Fbb_core.Refine.added_constraints;
    Alcotest.(check bool) "clean" true o.Fbb_core.Refine.signoff_clean

let test_refine_feasible_noop () =
  (* An input the solver already answers signoff-clean: the loop must be
     a no-op — one solve, zero added constraints, the problem returned
     unchanged. *)
  let p = problem () in
  let o =
    Option.get
      (snd
         (Fbb_core.Refine.solve
            ~solver:(fun q -> Some (Solution.uniform q 10))
            ~levels_of:Fun.id p))
  in
  Alcotest.(check int) "one iteration" 1 o.Fbb_core.Refine.iterations;
  Alcotest.(check int) "no added constraints" 0
    o.Fbb_core.Refine.added_constraints;
  Alcotest.(check int) "constraint set unchanged" (Problem.num_paths p)
    (Problem.num_paths o.Fbb_core.Refine.problem)

let test_refine_infeasible_at_max_bias () =
  (* A slowdown beyond the deepest bias level: the loop must propagate
     the heuristic's infeasibility instead of iterating. *)
  let p = Tsupport.small_problem ~beta:0.6 () in
  Alcotest.(check bool) "no single level" true (Problem.max_single_level p = None);
  Alcotest.(check bool) "refine reports infeasible" true
    (Fbb_core.Refine.heuristic p = None)

let test_recovery_empty_paths () =
  (* A constraint-free recovery instance: nothing bounds the greedy
     deepening, and any assignment trivially meets the (empty) budget.
     The optimizer must still terminate within its iteration cap. *)
  let t = Lazy.force recovery_t in
  let empty =
    {
      t with
      Problem.paths = [||];
      required = [||];
      nominal_slack = [||];
      path_rows = [||];
      row_paths =
        Array.map (fun _ -> { Problem.idx = [||]; coef = [||] })
          t.Problem.row_paths;
    }
  in
  let r = Fbb_core.Recovery.optimize ~max_iterations:3 empty in
  let nrows = Fbb_place.Placement.num_rows t.Problem.design.placement in
  Alcotest.(check int) "levels per row" nrows
    (Array.length r.Fbb_core.Recovery.levels);
  Alcotest.(check bool) "terminates within the cap" true
    (r.Fbb_core.Recovery.iterations <= 3);
  Alcotest.(check bool) "empty budget trivially met" true
    (Solution.meets_timing empty r.Fbb_core.Recovery.levels);
  Alcotest.(check bool) "recovers no more than nominal" true
    (r.Fbb_core.Recovery.recovered_leakage_nw
     <= r.Fbb_core.Recovery.nominal_leakage_nw +. 1e-9)

let test_recovery_impossible_budget () =
  (* A budget below the nominal critical delay cannot be met even at
     all-NBB (RBB only slows things down): signoff must honestly report
     failure instead of claiming a clean result. *)
  let t = Lazy.force recovery_t in
  let tight = { t with Problem.dcrit = t.Problem.dcrit /. 2.0 } in
  let r = Fbb_core.Recovery.optimize ~max_iterations:2 tight in
  Alcotest.(check bool) "signoff honestly fails" false
    r.Fbb_core.Recovery.signoff_clean;
  let clean, offenders =
    Fbb_core.Refine.signoff tight ~levels:(Solution.uniform tight 0)
  in
  Alcotest.(check bool) "even all-NBB misses the budget" false clean;
  Alcotest.(check bool) "offenders reported" true (Array.length offenders > 0)

let test_recovery_single_cluster_uniform () =
  (* C=1 leaves room for exactly one level across the block, so the
     assignment must be uniform. *)
  let t = Lazy.force recovery_t in
  let r = Fbb_core.Recovery.optimize ~max_clusters:1 t in
  Alcotest.(check int) "one cluster" 1 r.Fbb_core.Recovery.clusters;
  Alcotest.(check bool) "uniform assignment" true
    (Array.for_all
       (fun l -> l = r.Fbb_core.Recovery.levels.(0))
       r.Fbb_core.Recovery.levels)

let test_flow_end_to_end () =
  let spec = Fbb_netlist.Benchmarks.find "c1355" in
  let prep = Fbb_core.Flow.prepare spec in
  let ev =
    Fbb_core.Flow.evaluate ~cs:[ 2 ] prep ~beta:0.05
      ~ilp_limits:{ BB.max_nodes = 100_000; max_seconds = Float.infinity }
  in
  Alcotest.(check bool) "has constraints" true (ev.Fbb_core.Flow.constraints > 0);
  Alcotest.(check bool) "single bb present" true
    (ev.Fbb_core.Flow.single_bb_nw <> None);
  (match Fbb_core.Flow.heuristic_savings_pct ev ~c:2 with
  | Some s -> Alcotest.(check bool) "heuristic non-negative" true (s >= -1e-9)
  | None -> Alcotest.fail "no heuristic result");
  match Fbb_core.Flow.ilp_savings_pct ev ~c:2 with
  | Some s ->
    let h = Option.get (Fbb_core.Flow.heuristic_savings_pct ev ~c:2) in
    Alcotest.(check bool) "ilp >= heuristic" true (s >= h -. 1e-6)
  | None -> Alcotest.fail "ilp timed out on c1355"

let suite =
  [
    ("problem shape", `Quick, test_problem_shape);
    ("levels must start at zero", `Quick, test_levels_must_start_at_zero);
    ("coefficient consistency", `Quick, test_coefficient_consistency);
    ("zero level reduces nothing", `Quick, test_zero_level_reduces_nothing);
    ("row leak monotone", `Quick, test_row_leak_monotone);
    ("row leak matches library", `Quick, test_row_leak_matches_library);
    ("max single level", `Quick, test_max_single_level);
    ("infeasible beta", `Quick, test_infeasible_beta);
    ("checker incremental = full", `Quick, test_checker_incremental_matches_full);
    ("clusters used", `Quick, test_clusters_used);
    ("worst margin", `Quick, test_worst_margin);
    ("pass one = single bb", `Quick, test_pass_one_is_single_bb);
    ("heuristic valid across C", `Quick, test_heuristic_valid);
    ("heuristic C=1 = single bb", `Quick, test_heuristic_c1_is_single_bb);
    ("heuristic monotone in C", `Quick, test_heuristic_monotone_in_c);
    ("criticality non-negative", `Quick, test_criticality_nonnegative);
    ("ilp enumerate valid", `Slow, test_ilp_enumerate_valid);
    ("ilp beats heuristic", `Slow, test_ilp_beats_heuristic);
    ("exact strategies agree", `Slow, test_strategies_agree);
    ("constraint reduction lossless", `Slow, test_constraint_reduction_lossless);
    ("ilp infeasible beta", `Quick, test_ilp_infeasible_beta);
    ("ilp formulation shape", `Quick, test_formulation_shape);
    ("rbb recovery valid", `Quick, test_recovery_valid);
    ("rbb recovery monotone in margin", `Quick, test_recovery_monotone_in_margin);
    ("rbb recovery zero margin safe", `Quick, test_recovery_zero_margin_safe);
    ("rbb recovery independent signoff", `Quick, test_recovery_signoff_independent);
    ("rbb recovery c1355 refined", `Quick, test_recovery_c1355_refined);
    ("rbb recovery keeps every path", `Quick, test_recovery_keeps_every_path);
    ( "rbb recovery extend keeps safe offender",
      `Quick,
      test_recovery_extend_keeps_safe_offender );
    ("refine signoff direct", `Quick, test_refine_signoff_direct);
    ("refine generic solver", `Quick, test_refine_generic_solver);
    ("heuristic rejects C=0", `Quick, test_heuristic_bad_c);
    ("extend with empty set", `Quick, test_extend_empty);
    ("recovery rejects bad margin", `Quick, test_recovery_bad_margin);
    ("problem rejects bad beta", `Quick, test_problem_bad_beta);
    ("shared design is bit-identical", `Quick, test_shared_design_bit_identical);
    ("select keeps a path subset", `Quick, test_select);
    ("recovery rejects C < 1", `Quick, test_recovery_bad_c);
    ("zero beta is trivial", `Quick, test_zero_beta);
    ("refine zero beta converges at once", `Quick, test_refine_zero_beta);
    ("refine feasible input is a no-op", `Quick, test_refine_feasible_noop);
    ( "refine infeasible at max bias",
      `Quick,
      test_refine_infeasible_at_max_bias );
    ("rbb recovery empty path set", `Quick, test_recovery_empty_paths);
    ("rbb recovery impossible budget", `Quick, test_recovery_impossible_budget);
    ( "rbb recovery single cluster uniform",
      `Quick,
      test_recovery_single_cluster_uniform );
    ("flow end to end (c1355)", `Slow, test_flow_end_to_end);
  ]
