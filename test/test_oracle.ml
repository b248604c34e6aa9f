(* The exact oracle, the differential harness, and the regression
   corpus. The corpus replay is the contract that every bug the fuzzer
   ever caught stays fixed: cases under test/corpus/ are replayed
   through the full differential run on every test invocation. *)

module Problem = Fbb_core.Problem
module Solution = Fbb_core.Solution
module Heuristic = Fbb_core.Heuristic
module Oracle = Fbb_oracle.Oracle
module Invariant = Fbb_oracle.Invariant
module Case = Fbb_oracle.Case
module Differential = Fbb_oracle.Differential
module Shrink = Fbb_oracle.Shrink

let case ?beta ?max_clusters ?level_stride ?max_paths ~seed ~gates ~rows () =
  Case.make ?beta ?max_clusters ?level_stride ?max_paths ~seed ~gates ~rows ()

(* ----- oracle vs the production solvers --------------------------------- *)

let test_oracle_matches_bb () =
  (* A handful of deterministic small instances: the oracle's optimum
     must coincide with a proved-optimal branch & bound and lower-bound
     the heuristic. *)
  List.iter
    (fun (seed, gates, rows, beta) ->
      let c = case ~beta ~seed ~gates ~rows () in
      let p = Case.build c in
      Alcotest.(check bool)
        (Printf.sprintf "tractable s%d" seed)
        true
        (Oracle.tractable ~max_clusters:2 p);
      match Oracle.solve p with
      | Oracle.Infeasible ->
        Alcotest.failf "s%d unexpectedly infeasible" seed
      | Oracle.Optimal opt ->
        Alcotest.(check (list string))
          (Printf.sprintf "s%d optimum passes the invariant checker" seed)
          []
          (Invariant.check ~reported_leakage_nw:opt.Oracle.leakage_nw p
             ~levels:opt.Oracle.levels);
        let tol = 1e-9 *. Float.max 1.0 opt.Oracle.leakage_nw in
        let bb =
          Fbb_core.Ilp_opt.optimize
            ~config:Fbb_core.Ilp_opt.default_config p
        in
        Alcotest.(check bool)
          (Printf.sprintf "s%d bb proved optimal" seed)
          true bb.Fbb_core.Ilp_opt.proved_optimal;
        (match bb.Fbb_core.Ilp_opt.levels with
        | None -> Alcotest.failf "s%d bb found nothing" seed
        | Some levels ->
          let bleak = Solution.leakage_nw p levels in
          Alcotest.(check bool)
            (Printf.sprintf "s%d bb matches oracle optimum" seed)
            true
            (Float.abs (bleak -. opt.Oracle.leakage_nw) <= tol));
        (match Heuristic.optimize p with
        | None -> Alcotest.failf "s%d heuristic claims infeasible" seed
        | Some h ->
          Alcotest.(check bool)
            (Printf.sprintf "s%d heuristic above oracle optimum" seed)
            true
            (Solution.leakage_nw p h.Heuristic.levels
             >= opt.Oracle.leakage_nw -. tol)))
    [ (11, 60, 3, 0.06); (23, 80, 4, 0.08); (5, 100, 5, 0.05) ]

let test_oracle_infeasible_iff_no_single_level () =
  (* Slowdown far beyond what the deepest bias can compensate: both the
     oracle and the uniform baseline must agree the case is hopeless. *)
  let p = Case.build (case ~beta:0.6 ~seed:3 ~gates:60 ~rows:3 ()) in
  Alcotest.(check bool) "no uniform level" true (Problem.max_single_level p = None);
  Alcotest.(check bool) "oracle infeasible" true (Oracle.solve p = Oracle.Infeasible);
  (* ...and a mild case is feasible on both sides. *)
  let q = Case.build (case ~beta:0.05 ~seed:3 ~gates:60 ~rows:3 ()) in
  Alcotest.(check bool) "uniform level exists" true
    (Problem.max_single_level q <> None);
  Alcotest.(check bool) "oracle optimal" true
    (match Oracle.solve q with Oracle.Optimal _ -> true | _ -> false)

let test_oracle_tractability_gate () =
  let p = Case.build (case ~seed:9 ~gates:150 ~rows:10 ()) in
  Alcotest.(check bool) "10 rows not tractable" true
    (not (Oracle.tractable ~max_clusters:2 p));
  Alcotest.check_raises "solve refuses intractable instances"
    (Invalid_argument "Oracle.solve: instance exceeds the brute-force bounds")
    (fun () -> ignore (Oracle.solve p))

let test_oracle_respects_budget () =
  (* With C=3 allowed the optimum can only improve, and every verdict
     stays within its own budget. *)
  let p = Case.build (case ~seed:17 ~gates:70 ~rows:4 ()) in
  let distinct levels =
    List.length
      (List.sort_uniq compare (Array.to_list levels))
  in
  match Oracle.solve ~max_clusters:2 p, Oracle.solve ~max_clusters:3 p with
  | Oracle.Optimal a, Oracle.Optimal b ->
    Alcotest.(check bool) "C=2 verdict within budget" true
      (distinct a.Oracle.levels <= 2);
    Alcotest.(check bool) "C=3 verdict within budget" true
      (distinct b.Oracle.levels <= 3);
    Alcotest.(check bool) "wider budget never hurts" true
      (b.Oracle.leakage_nw
       <= a.Oracle.leakage_nw +. (1e-9 *. Float.max 1.0 a.Oracle.leakage_nw))
  | _ -> Alcotest.fail "expected both budgets feasible"

(* ----- corpus replay ---------------------------------------------------- *)

let test_corpus_replays_clean () =
  (* cwd is test/ under dune runtest but the project root under
     dune exec; accept either. *)
  let dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus" in
  let corpus = Case.load_dir dir in
  Alcotest.(check bool)
    (Printf.sprintf "corpus holds >= 5 cases (got %d)" (List.length corpus))
    true
    (List.length corpus >= 5);
  List.iter
    (fun (path, c) ->
      let r = Differential.run c in
      if Differential.failed r then
        Alcotest.failf "%s: %s" path
          (String.concat "; " r.Differential.failures))
    corpus

(* ----- case serialization ----------------------------------------------- *)

let test_case_roundtrip () =
  let cases =
    [
      case ~seed:1 ~gates:40 ~rows:2 ();
      case ~beta:0.123 ~max_clusters:3 ~level_stride:2 ~max_paths:7 ~seed:99
        ~gates:512 ~rows:8 ();
    ]
  in
  List.iter
    (fun c ->
      match Case.of_string (Case.to_string c) with
      | Ok c' ->
        Alcotest.(check bool)
          (Printf.sprintf "%s roundtrips" (Case.name c))
          true (c = c')
      | Error m -> Alcotest.failf "%s: %s" (Case.name c) m)
    cases;
  (match Case.of_string "fbbcase 99\nseed 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad header accepted");
  (match Case.of_string "fbbcase 1\ngates -4\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid field values accepted");
  Alcotest.(check (list (pair string reject)))
    "missing corpus dir is empty" []
    (Case.load_dir "no-such-directory")

(* ----- shrinking -------------------------------------------------------- *)

let test_shrink_minimizes () =
  (* Failure injected by predicate, so the shrinker's own mechanics are
     tested in isolation: "fails" = rows >= 3 and gates >= 30. The
     minimum under the move set is rows 3 with the smallest reachable
     gate count. *)
  let big = case ~seed:5 ~gates:160 ~rows:6 ~max_paths:40 () in
  let run c =
    if c.Case.rows >= 3 && c.Case.gates >= 30 then [ "injected" ] else []
  in
  let minimized, progress = Shrink.minimize ~run big in
  Alcotest.(check bool) "still failing" true (run minimized <> []);
  Alcotest.(check int) "rows minimized" 3 minimized.Case.rows;
  Alcotest.(check bool) "gates reduced" true (minimized.Case.gates < 60);
  Alcotest.(check bool) "made progress" true (progress.Shrink.steps > 0);
  (* A passing case is returned untouched. *)
  let passing, progress = Shrink.minimize ~run:(fun _ -> []) big in
  Alcotest.(check bool) "nothing to shrink" true
    (passing = big && progress.Shrink.steps = 0);
  (* Build failures do not count as reproductions. *)
  let minimized, _ =
    Shrink.minimize
      ~run:(fun c -> if c.Case.gates < 100 then [ "build: boom" ] else [ "real" ])
      big
  in
  Alcotest.(check bool) "never shrinks into build failures" true
    (minimized.Case.gates >= 100)

(* ----- metamorphic properties, directly --------------------------------- *)

let test_permutation_invariance () =
  let c = case ~seed:29 ~gates:80 ~rows:4 () in
  let p = Case.build c in
  match Oracle.solve p with
  | Oracle.Infeasible -> Alcotest.fail "expected feasible"
  | Oracle.Optimal opt ->
    let n = Problem.num_rows p in
    (* reversal, a permutation the fuzzer's rotation does not cover *)
    let perm = Array.init n (fun i -> n - 1 - i) in
    let q =
      Problem.build ~levels:p.Problem.design.levels ~beta:c.Case.beta
        (Fbb_place.Placement.permute_rows p.Problem.design.placement perm)
    in
    (match Oracle.solve q with
    | Oracle.Infeasible -> Alcotest.fail "permutation broke feasibility"
    | Oracle.Optimal opt' ->
      Alcotest.(check bool) "optimum invariant under row reversal" true
        (Float.abs (opt'.Oracle.leakage_nw -. opt.Oracle.leakage_nw)
         <= 1e-9 *. Float.max 1.0 opt.Oracle.leakage_nw))

(* ----- heuristic C=1 collapses to Single BB (satellite) ------------------ *)

let test_single_cluster_equals_single_bb =
  QCheck.Test.make ~count:25 ~name:"heuristic C=1 = max_single_level"
    QCheck.(make Gen.(tup3 (int_range 0 10_000) (int_range 30 120) (int_range 2 6)))
    (fun (seed, gates, rows) ->
      let p = Case.build (case ~beta:0.07 ~seed ~gates ~rows ()) in
      match Heuristic.optimize ~max_clusters:1 p, Problem.max_single_level p with
      | None, None -> true
      | Some _, None | None, Some _ ->
        QCheck.Test.fail_report "feasibility disagreement"
      | Some h, Some j ->
        let uniform = Array.make (Problem.num_rows p) j in
        (* With one cluster allowed, no assignment can beat the best
           uniform level, and the heuristic must find exactly it. *)
        h.Heuristic.levels = uniform
        && Float.abs
             (h.Heuristic.leakage_nw -. Solution.leakage_nw p uniform)
           <= 1e-9 *. Float.max 1.0 h.Heuristic.leakage_nw)

(* Cut to one path, the Pi-only optimum of this case misses Dcrit on the
   real netlist: the referee must see the cascade refine it to a
   signed-off answer, and would report an accepted Pi-only one. *)
let test_cascade_referee_signs_off () =
  let c = case ~max_paths:1 ~seed:5 ~gates:60 ~rows:3 () in
  let p = Case.build c in
  let raw = Option.get (Fbb_core.Ilp_opt.optimize p).Fbb_core.Ilp_opt.levels in
  Alcotest.(check bool) "the Pi-only optimum fails sign-off" true
    (Invariant.signoff p ~levels:raw <> []);
  let r = Differential.run_cascade c in
  Alcotest.(check (list string)) "referee clean" [] r.Differential.c_failures;
  match r.Differential.c_result with
  | Some res ->
    Alcotest.(check bool) "paths folded in" true
      (Problem.num_paths res.Fbb_core.Cascade.problem > Problem.num_paths p);
    Alcotest.(check bool) "refereed against the oracle" true
      (r.Differential.c_optimum_nw <> None)
  | None -> Alcotest.fail "cascade crashed"

(* ----- the exact solver's prunes, refereed ------------------------------ *)

(* The C-free closure, the interval-family bounds and the floor stop only
   prune, so the exact solver must land on the oracle optimum, proved,
   cold and warm-started alike (from the heuristic and from the optimum
   itself), and its closure floor must never pass the optimum. Returns
   the disagreements. *)
let ilp_refereed c =
  let module Ilp = Fbb_core.Ilp_opt in
  let p = Case.build c in
  let max_clusters = c.Case.max_clusters in
  if not (Oracle.tractable ~max_clusters p) then []
  else
    let verdict = Oracle.solve ~max_clusters p in
    let warm_starts =
      ("cold", None)
      :: ( "heuristic",
           Option.map
             (fun h -> h.Heuristic.levels)
             (Heuristic.optimize ~max_clusters p) )
      ::
      (match verdict with
      | Oracle.Optimal opt -> [ ("optimum", Some opt.Oracle.levels) ]
      | Oracle.Infeasible -> [])
    in
    List.concat_map
      (fun (name, warm_start) ->
        let r =
          Ilp.optimize
            ~config:{ Ilp.max_clusters; budget = Fbb_util.Budget.unlimited }
            ?warm_start p
        in
        let fail fmt =
          Printf.ksprintf (fun m -> [ Case.name c ^ " " ^ name ^ ": " ^ m ]) fmt
        in
        match (verdict, r.Ilp.levels) with
        | _, _ when not r.Ilp.proved_optimal -> fail "not proved"
        | Oracle.Infeasible, None -> []
        | Oracle.Infeasible, Some _ -> fail "answer to an infeasible case"
        | Oracle.Optimal _, None -> fail "no answer"
        | Oracle.Optimal opt, Some levels ->
          let tol = 1e-9 *. Float.max 1.0 opt.Oracle.leakage_nw in
          let leak = Solution.leakage_nw p levels in
          (if Float.abs (leak -. opt.Oracle.leakage_nw) > tol then
             fail "leakage %.12g, oracle %.12g" leak opt.Oracle.leakage_nw
           else [])
          @
          match r.Ilp.lower_bound_nw with
          | Some lb when lb > opt.Oracle.leakage_nw +. tol ->
            fail "floor %.12g above the optimum %.12g" lb opt.Oracle.leakage_nw
          | Some _ | None -> [])
      warm_starts

let test_ilp_prunes_on_corpus () =
  let dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus" in
  Alcotest.(check (list string)) "exact solver = oracle on the corpus" []
    (List.concat_map (fun (_, c) -> ilp_refereed c) (Case.load_dir dir))

(* The cascade's gap rests on the closure floor of every ILP solve it
   ran, budget-truncated ones included: the referee checks it against the
   oracle optimum of the carried problem at tight and loose budgets. *)
let test_cascade_gap_refereed () =
  let dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus" in
  let failures =
    List.concat_map
      (fun (_, c) ->
        List.concat_map
          (fun budget ->
            (Differential.run_cascade ~max_clusters:c.Case.max_clusters
               ~budget c)
              .Differential.c_failures)
          [
            Fbb_util.Budget.create ~work:20 ();
            Fbb_util.Budget.create ~work:200 ();
            Fbb_util.Budget.unlimited;
          ])
      (Case.load_dir dir)
  in
  Alcotest.(check (list string)) "referee clean" [] failures

let test_ilp_prunes_random =
  QCheck.Test.make ~count:80 ~name:"exact solver = oracle, cold and warm"
    QCheck.(
      make
        Gen.(
          tup4 (int_range 0 100_000) (int_range 40 160) (int_range 2 5)
            (tup3 (int_range 4 10) (int_range 2 3) (int_range 1 2))))
    (fun (seed, gates, rows, (beta_pct, max_clusters, level_stride)) ->
      let c =
        case ~beta:(float_of_int beta_pct /. 100.0) ~max_clusters ~level_stride
          ~seed ~gates ~rows ()
      in
      match ilp_refereed c with
      | [] -> true
      | failures -> QCheck.Test.fail_report (String.concat "; " failures))

let suite =
  [
    ("oracle matches proved-optimal bb", `Quick, test_oracle_matches_bb);
    ( "oracle infeasible iff no single level",
      `Quick,
      test_oracle_infeasible_iff_no_single_level );
    ("oracle tractability gate", `Quick, test_oracle_tractability_gate);
    ("oracle respects cluster budget", `Quick, test_oracle_respects_budget);
    ("corpus replays clean", `Quick, test_corpus_replays_clean);
    ("cascade referee signs off", `Quick, test_cascade_referee_signs_off);
    ("case serialization roundtrip", `Quick, test_case_roundtrip);
    ("shrinker minimizes greedily", `Quick, test_shrink_minimizes);
    ("optimum invariant under row reversal", `Quick, test_permutation_invariance);
    QCheck_alcotest.to_alcotest test_single_cluster_equals_single_bb;
    ( "exact solver prunes refereed on corpus",
      `Quick,
      test_ilp_prunes_on_corpus );
    QCheck_alcotest.to_alcotest test_ilp_prunes_random;
    ("cascade gap refereed on corpus", `Quick, test_cascade_gap_refereed);
  ]
