(* Tests for Fbb_lp (simplex) and Fbb_ilp (branch and bound). *)

module S = Fbb_lp.Simplex
module BB = Fbb_ilp.Branch_bound

let lp ?upper num_vars minimize constraints =
  { S.num_vars; minimize = Array.of_list minimize; constraints; upper }

let c terms relation rhs = { S.terms; relation; rhs }

let bb num_vars minimize constraints =
  { BB.num_vars; minimize; rows = Fbb_lp.Dual_simplex.pack ~num_vars constraints }

let expect_opt name problem expected_obj =
  match S.solve problem with
  | S.Optimal { objective; solution } ->
    Alcotest.(check (float 1e-6)) name expected_obj objective;
    Alcotest.(check bool) "solution feasible" true
      (S.check problem solution ~eps:1e-6)
  | S.Infeasible -> Alcotest.failf "%s: infeasible" name
  | S.Unbounded -> Alcotest.failf "%s: unbounded" name
  | S.Pivot_limit -> Alcotest.failf "%s: pivot limit" name
  | S.Budget_exhausted -> Alcotest.failf "%s: budget exhausted" name

let test_lp_max_basic () =
  (* max 3x+2y st x+y<=4, x+3y<=6 -> 12 at (4,0) *)
  expect_opt "basic max"
    (lp 2 [ -3.0; -2.0 ]
       [ c [ (0, 1.0); (1, 1.0) ] S.Le 4.0; c [ (0, 1.0); (1, 3.0) ] S.Le 6.0 ])
    (-12.0)

let test_lp_min_with_eq () =
  expect_opt "min with equality"
    (lp 2 [ 1.0; 1.0 ]
       [ c [ (0, 1.0); (1, 1.0) ] S.Ge 2.0; c [ (0, 1.0); (1, -1.0) ] S.Eq 1.0 ])
    2.0

let test_lp_negative_rhs () =
  (* -x <= -3  <=>  x >= 3 *)
  expect_opt "negative rhs" (lp 1 [ 1.0 ] [ c [ (0, -1.0) ] S.Le (-3.0) ]) 3.0

let test_lp_infeasible () =
  match
    S.solve
      (lp 1 [ 1.0 ] [ c [ (0, 1.0) ] S.Le 1.0; c [ (0, 1.0) ] S.Ge 2.0 ])
  with
  | S.Infeasible -> ()
  | S.Optimal _ | S.Unbounded | S.Pivot_limit | S.Budget_exhausted ->
    Alcotest.fail "expected infeasible"

let test_lp_unbounded () =
  match S.solve (lp 1 [ -1.0 ] []) with
  | S.Unbounded -> ()
  | S.Optimal _ | S.Infeasible | S.Pivot_limit | S.Budget_exhausted ->
    Alcotest.fail "expected unbounded"

let test_lp_upper_bounds () =
  expect_opt "upper bound binds"
    (lp ~upper:[| 5.0 |] 1 [ -1.0 ] [])
    (-5.0)

let test_lp_degenerate () =
  (* Multiple redundant constraints through one vertex. *)
  expect_opt "degenerate"
    (lp 2 [ -1.0; -1.0 ]
       [
         c [ (0, 1.0); (1, 1.0) ] S.Le 1.0;
         c [ (0, 2.0); (1, 2.0) ] S.Le 2.0;
         c [ (0, 1.0) ] S.Le 1.0;
         c [ (1, 1.0) ] S.Le 1.0;
       ])
    (-1.0)

let test_lp_duplicate_terms () =
  (* (x + x) <= 4 must densify to 2x <= 4. *)
  expect_opt "duplicate terms"
    (lp 1 [ -1.0 ] [ c [ (0, 1.0); (0, 1.0) ] S.Le 4.0 ])
    (-2.0)

(* Brute-force reference for small 0-1 programs. It checks the
   constraint list itself, not the packed rows the solver reads, so a
   packing fault cannot hide from it. *)
let brute (p, constraints) =
  let n = p.BB.num_vars in
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun i -> if mask land (1 lsl i) <> 0 then 1.0 else 0.0) in
    let ok =
      List.for_all
        (fun (cc : S.constr) ->
          let lhs =
            List.fold_left (fun a (v, co) -> a +. (co *. x.(v))) 0.0 cc.S.terms
          in
          match cc.S.relation with
          | S.Le -> lhs <= cc.S.rhs +. 1e-9
          | S.Ge -> lhs >= cc.S.rhs -. 1e-9
          | S.Eq -> Float.abs (lhs -. cc.S.rhs) <= 1e-9)
        constraints
    in
    if ok then begin
      let obj = BB.objective_of p x in
      match !best with
      | Some b when b <= obj -> ()
      | Some _ | None -> best := Some obj
    end
  done;
  !best

let random_problem rng =
  let open Fbb_util in
  let n = 3 + Rng.int rng 8 in
  let m = 1 + Rng.int rng 6 in
  let minimize =
    Array.init n (fun _ -> float_of_int (1 + Rng.int rng 20))
  in
  let constraints =
    List.init m (fun _ ->
        let terms =
          List.init n (fun v -> (v, float_of_int (Rng.int rng 4)))
          |> List.filter (fun (_, co) -> co > 0.0)
        in
        if terms = [] then c [ (0, 1.0) ] S.Ge 0.0
        else
          let total =
            List.fold_left (fun a (_, co) -> a +. co) 0.0 terms
          in
          let relation =
            match Rng.int rng 4 with 0 -> S.Le | 1 -> S.Eq | _ -> S.Ge
          in
          c terms relation (Float.of_int (Rng.int rng (int_of_float total + 1))))
  in
  (bb n minimize constraints, constraints)

let test_bb_vs_brute_force () =
  let rng = Fbb_util.Rng.create ~seed:123 in
  for _ = 1 to 60 do
    let ((p, _) as problem) = random_problem rng in
    let r = BB.solve p in
    match (brute problem, r.BB.best) with
    | None, None -> ()
    | Some expected, Some (_, got) ->
      Alcotest.(check (float 1e-6)) "optimum matches brute force" expected got
    | None, Some _ -> Alcotest.fail "bb found solution to infeasible problem"
    | Some _, None -> Alcotest.fail "bb missed a feasible solution"
  done

(* The root bound never passes the 0-1 optimum, is infinite on a
   certified-infeasible LP, and a solve that branched reports it. *)
let test_bb_root_bound () =
  let rng = Fbb_util.Rng.create ~seed:321 in
  for _ = 1 to 60 do
    let ((p, _) as problem) = random_problem rng in
    let r = BB.solve p in
    match (brute problem, BB.root_bound p) with
    | Some opt, Some lb ->
      Alcotest.(check bool) "root bound <= optimum" true (lb <= opt +. 1e-9);
      Option.iter
        (fun rb ->
          Alcotest.(check bool) "solve's root bound <= optimum" true
            (rb <= opt +. 1e-9))
        r.BB.root_bound
    | Some _, None | None, _ -> ()
  done;
  let infeasible =
    bb 1 [| 1.0 |] [ c [ (0, 1.0) ] S.Ge 2.0 ]
  in
  Alcotest.(check (option (float 0.0))) "certified infeasible" (Some Float.infinity)
    (BB.root_bound infeasible)

let test_bb_status_optimal () =
  let p =
    bb 2 [| 1.0; 2.0 |]
      [ c [ (0, 1.0); (1, 1.0) ] S.Ge 1.0 ]
  in
  let r = BB.solve p in
  Alcotest.(check bool) "proved optimal" true (r.BB.status = BB.Proved_optimal);
  match r.BB.best with
  | Some (_, obj) -> Alcotest.(check (float 1e-9)) "picks cheaper var" 1.0 obj
  | None -> Alcotest.fail "no solution"

let test_bb_infeasible () =
  let p =
    bb 2 [| 1.0; 1.0 |]
      [
        c [ (0, 1.0); (1, 1.0) ] S.Le 1.0;
        c [ (0, 1.0) ] S.Ge 1.0;
        c [ (1, 1.0) ] S.Ge 1.0;
      ]
  in
  Alcotest.(check bool) "infeasible" true
    ((BB.solve p).BB.status = BB.Proved_infeasible)

let test_bb_warm_start () =
  let p =
    bb 3 [| 3.0; 5.0; 4.0 |]
      [
        c [ (0, 1.0); (1, 1.0) ] S.Ge 1.0;
        c [ (1, 1.0); (2, 1.0) ] S.Ge 1.0;
        c [ (0, 1.0); (2, 1.0) ] S.Ge 1.0;
      ]
  in
  let r = BB.solve ~incumbent:[| 1.0; 1.0; 1.0 |] p in
  (match r.BB.best with
  | Some (_, obj) -> Alcotest.(check (float 1e-9)) "optimal 7" 7.0 obj
  | None -> Alcotest.fail "no solution");
  Alcotest.check_raises "bad incumbent rejected"
    (Invalid_argument "Branch_bound.solve: infeasible incumbent") (fun () ->
      ignore (BB.solve ~incumbent:[| 0.0; 0.0; 0.0 |] p))

let test_bb_cutoff () =
  let p =
    bb 1 [| 5.0 |]
      [ c [ (0, 1.0) ] S.Ge 1.0 ]
  in
  let r = BB.solve ~cutoff:5.0 p in
  Alcotest.(check bool) "cutoff suppresses equal solutions" true
    (r.BB.best = None);
  let r2 = BB.solve ~cutoff:5.1 p in
  Alcotest.(check bool) "cutoff admits better solutions" true
    (r2.BB.best <> None)

let test_lp_pivot_limit () =
  (* The basic max problem needs at least one pivot to leave the
     origin; a zero budget must surface as a typed outcome, not an
     exception. *)
  let p =
    lp 2 [ -3.0; -2.0 ]
      [ c [ (0, 1.0); (1, 1.0) ] S.Le 4.0; c [ (0, 1.0); (1, 3.0) ] S.Le 6.0 ]
  in
  let limit_c = Fbb_obs.Counter.make "lp.pivot_limit" in
  let before = Fbb_obs.Counter.read limit_c in
  (match S.solve ~max_pivots:0 p with
  | S.Pivot_limit -> ()
  | S.Optimal _ | S.Infeasible | S.Unbounded | S.Budget_exhausted ->
    Alcotest.fail "expected pivot limit");
  Alcotest.(check int) "lp.pivot_limit counter bumped" (before + 1)
    (Fbb_obs.Counter.read limit_c);
  (* An ample budget still solves the same problem. *)
  expect_opt "same problem, ample budget" p (-12.0)

let test_bb_counters_match_result () =
  let nodes_c = Fbb_obs.Counter.make "bb.nodes" in
  let pruned_c = Fbb_obs.Counter.make "bb.pruned" in
  let rng = Fbb_util.Rng.create ~seed:321 in
  for _ = 1 to 10 do
    let p = fst (random_problem rng) in
    let n0 = Fbb_obs.Counter.read nodes_c in
    let p0 = Fbb_obs.Counter.read pruned_c in
    let r = BB.solve p in
    Alcotest.(check int) "bb.nodes delta equals result.nodes" r.BB.nodes
      (Fbb_obs.Counter.read nodes_c - n0);
    Alcotest.(check bool) "pruned delta bounded by nodes" true
      (let dp = Fbb_obs.Counter.read pruned_c - p0 in
       dp >= 0 && dp <= r.BB.nodes)
  done

(* A work budget of k stops the search after exactly min k n nodes, n
   being the unlimited search's count: the last wave is cut to the work
   left. The parity row 2 x_1 + ... + 2 x_9 = 9 is LP-feasible but has no
   0/1 point, so proving that takes a deep search (n > 33), and a
   mid-wave cut (k = 5, 31, 33) must land exactly, at any pool width. *)
let test_bb_node_limit () =
  let n = 9 in
  let p =
    bb n (Array.make n 1.0)
      [ c (List.init n (fun v -> (v, 2.0))) S.Eq (float_of_int n) ]
  in
  let full = BB.solve p in
  Alcotest.(check bool) "unlimited search proves infeasibility" true
    (full.BB.status = BB.Proved_infeasible);
  Alcotest.(check bool) "deeper than the budgets tried" true
    (full.BB.nodes > 33);
  let at_jobs jobs f =
    let prev = Fbb_par.Pool.jobs () in
    Fbb_par.Pool.set_jobs jobs;
    Fun.protect ~finally:(fun () -> Fbb_par.Pool.set_jobs prev) f
  in
  List.iter
    (fun k ->
      List.iter
        (fun jobs ->
          let budget = Fbb_util.Budget.create ~work:k () in
          let r = at_jobs jobs (fun () -> BB.solve ~budget p) in
          let tag s = Printf.sprintf "%s (work %d, jobs %d)" s k jobs in
          Alcotest.(check int) (tag "nodes") (min k full.BB.nodes) r.BB.nodes;
          Alcotest.(check int) (tag "work charged") r.BB.nodes
            (Fbb_util.Budget.work_used budget);
          Alcotest.(check bool) (tag "truncated") true
            (r.BB.status = BB.Limit_reached))
        [ 1; 4 ])
    [ 0; 1; 5; 31; 33 ]

(* ----- bounded dual simplex ---------------------------------------- *)

module D = Fbb_lp.Dual_simplex

(* A random LP shaped like [Ilp_opt.formulate_subset]: [nrows] design
   rows choosing among [ns] levels (column [i * ns + q]), [Ge] timing
   rows with non-negative coefficients (delay times a per-level
   reduction), one [Eq] assignment row per design row, non-negative
   costs, every column in [0, 1], and a few random fixings. Up to two
   [Le] cap rows, like [Ilp_opt.formulate]'s budget rows, cover the
   third relation. Timing requirements reach past what full bias
   achieves, so some draws are infeasible. *)
let subset_lp seed =
  let module R = Fbb_util.Rng in
  let rng = R.create ~seed in
  let nrows = R.int_in rng 2 7 and ns = R.int_in rng 1 4 in
  let n = nrows * ns in
  let reduction =
    Array.init ns (fun q -> 0.05 *. float_of_int (q + 1) +. R.float rng 0.04)
  in
  let cost = Array.init n (fun _ -> R.float rng 100.0) in
  let timing =
    List.init (R.int_in rng 1 8) (fun _ ->
        let terms = ref [] and full = ref 0.0 in
        for i = 0 to nrows - 1 do
          if R.bool rng then begin
            let d = 1.0 +. R.float rng 50.0 in
            full := !full +. (d *. reduction.(ns - 1));
            for q = 0 to ns - 1 do
              terms := ((i * ns) + q, d *. reduction.(q)) :: !terms
            done
          end
        done;
        c (List.rev !terms) S.Ge (!full *. R.float rng 1.0))
  in
  let assignment =
    List.init nrows (fun i -> c (List.init ns (fun q -> ((i * ns) + q, 1.0))) S.Eq 1.0)
  in
  let caps =
    List.init (R.int rng 3) (fun _ ->
        let terms =
          List.init n (fun j -> (j, R.float rng 1.0))
          |> List.filter (fun _ -> R.bool rng)
        in
        c terms S.Le (R.float rng (float_of_int nrows)))
  in
  let fixes =
    List.init (R.int rng 4) (fun _ -> (R.int rng n, float_of_int (R.int rng 2)))
    |> List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b)
  in
  (n, cost, timing @ assignment @ caps, fixes)

(* The reference: the two-phase solver with the fixings as equalities. *)
let reference (n, cost, constraints, fixes) =
  let fixed = List.map (fun (j, v) -> c [ (j, 1.0) ] S.Eq v) fixes in
  S.solve (lp ~upper:(Array.make n 1.0) n (Array.to_list cost) (constraints @ fixed))

let engine (n, cost, constraints, _) =
  D.create ~cost ~lo:(Array.make n 0.0) ~hi:(Array.make n 1.0)
    (D.pack ~num_vars:n constraints)

let close ?(rel = 1e-7) a b = Float.abs (a -. b) <= rel *. Float.max 1.0 (Float.abs b)

let dual_matches_reference =
  QCheck.Test.make ~name:"dual simplex matches the two-phase reference" ~count:300
    (QCheck.int_range 1 1_000_000) (fun seed ->
      let lpx = subset_lp seed in
      let _, _, _, fixes = lpx in
      (* Cold: fixings on the fresh slack basis. *)
      let cold = engine lpx in
      List.iter (fun (j, v) -> D.fix cold j v) fixes;
      let cold_out = D.solve cold in
      (* Warm: the solved root copied into a workspace, then fixed. *)
      let root = engine lpx in
      let warm =
        match D.solve root with
        | D.Optimal _ ->
          let w = D.workspace () in
          D.load w ~from:root;
          List.iter (fun (j, v) -> D.fix w j v) fixes;
          Some (D.solve w, w)
        | D.Infeasible | D.Uncertified | D.Pivot_limit | D.Budget_exhausted -> None
      in
      match (reference lpx, cold_out) with
      | S.Infeasible, D.Infeasible ->
        Option.fold ~none:true ~some:(fun (o, _) -> o = D.Infeasible) warm
      | S.Optimal { objective; _ }, D.Optimal bound ->
        let agrees t = close (D.objective t) objective in
        agrees cold
        && bound <= objective +. (1e-12 *. Float.max 1.0 (Float.abs objective))
        && close ~rel:1e-6 bound objective
        && Option.fold ~none:false
             ~some:(fun (o, w) ->
               (match o with D.Optimal _ -> true | _ -> false)
               && agrees w
               && close (D.objective w) (D.objective cold))
             warm
      | _, _ -> false)

let test_dual_no_phase1 () =
  let phase1 = Fbb_obs.Counter.make "lp.phase1_pivots" in
  let pivots = Fbb_obs.Counter.make "lp.pivots" in
  let before = Fbb_obs.Counter.read phase1 and pivots0 = Fbb_obs.Counter.read pivots in
  let rng = Fbb_util.Rng.create ~seed:99 in
  for _ = 1 to 10 do
    ignore (BB.solve (fst (random_problem rng)))
  done;
  Alcotest.(check bool) "pivots ran" true (Fbb_obs.Counter.read pivots > pivots0);
  Alcotest.(check int) "lp.phase1_pivots unchanged" before
    (Fbb_obs.Counter.read phase1)

let test_dual_deadline_stop () =
  (* Needs pivots: every timing row starts violated at the slack basis. *)
  let lpx = subset_lp 7 in
  let budget = Fbb_util.Budget.create ~deadline_s:0.0 () in
  Unix.sleepf 0.002;
  let stops = Fbb_obs.Counter.make "lp.budget_stops" in
  let pivots = Fbb_obs.Counter.make "lp.pivots" in
  let s0 = Fbb_obs.Counter.read stops and p0 = Fbb_obs.Counter.read pivots in
  Alcotest.(check bool) "budget exhausted" true
    (D.solve ~budget (engine lpx) = D.Budget_exhausted);
  Alcotest.(check int) "lp.budget_stops bumped" (s0 + 1) (Fbb_obs.Counter.read stops);
  Alcotest.(check int) "no pivot taken" p0 (Fbb_obs.Counter.read pivots);
  Alcotest.(check bool) "work untouched" true (Fbb_util.Budget.work_used budget = 0)

let test_dual_certified_infeasible () =
  (* x0 + x1 >= 3 over [0, 1] boxes: no point, and the certificate
     shows it. *)
  let t =
    D.create ~cost:[| 1.0; 1.0 |] ~lo:[| 0.0; 0.0 |] ~hi:[| 1.0; 1.0 |]
      (D.pack ~num_vars:2 [ c [ (0, 1.0); (1, 1.0) ] S.Ge 3.0 ])
  in
  Alcotest.(check bool) "infeasible" true (D.solve t = D.Infeasible)

let suite =
  [
    ("lp max basic", `Quick, test_lp_max_basic);
    ("lp min with equality", `Quick, test_lp_min_with_eq);
    ("lp negative rhs", `Quick, test_lp_negative_rhs);
    ("lp infeasible", `Quick, test_lp_infeasible);
    ("lp unbounded", `Quick, test_lp_unbounded);
    ("lp upper bounds", `Quick, test_lp_upper_bounds);
    ("lp degenerate", `Quick, test_lp_degenerate);
    ("lp duplicate terms", `Quick, test_lp_duplicate_terms);
    ("lp pivot limit", `Quick, test_lp_pivot_limit);
    ("bb vs brute force", `Slow, test_bb_vs_brute_force);
    ("bb proved optimal", `Quick, test_bb_status_optimal);
    ("bb infeasible", `Quick, test_bb_infeasible);
    ("bb warm start", `Quick, test_bb_warm_start);
    ("bb cutoff", `Quick, test_bb_cutoff);
    ("bb node limit", `Quick, test_bb_node_limit);
    ("bb counters match result", `Quick, test_bb_counters_match_result);
    ("dual no phase 1 in branch and bound", `Quick, test_dual_no_phase1);
    ("dual deadline stops before first pivot", `Quick, test_dual_deadline_stop);
    ("dual certified infeasible", `Quick, test_dual_certified_infeasible);
    QCheck_alcotest.to_alcotest ~long:false dual_matches_reference;
    ("bb root bound", `Quick, test_bb_root_bound);
  ]
