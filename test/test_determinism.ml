(* Cross-job-count determinism of the parallel hot paths: Monte-Carlo
   sampling, branch-and-bound, constraint reduction and the full ILP
   flow must produce bit-identical results at any pool width. *)

module BB = Fbb_ilp.Branch_bound
module S = Fbb_lp.Simplex

let at_jobs n f =
  let prev = Fbb_par.Pool.jobs () in
  Fbb_par.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Fbb_par.Pool.set_jobs prev) f

let check_eq name a b = Alcotest.(check bool) name true (a = b)

(* ----- Monte-Carlo ------------------------------------------------------ *)

let test_montecarlo () =
  let pl = Lazy.force Tsupport.small_placement in
  let run () =
    Fbb_variation.Montecarlo.run ~seed:7 ~samples:6 ~sigma:0.05 pl
  in
  let a = at_jobs 1 run in
  let b = at_jobs 4 run in
  (* Record equality covers every yield percentage and leakage statistic
     down to the last float bit. *)
  check_eq "mc records bit-identical jobs=1 vs 4" a b

(* ----- branch and bound ------------------------------------------------- *)

let c terms relation rhs = { S.terms; relation; rhs }

let random_problem rng =
  let open Fbb_util in
  let n = 3 + Rng.int rng 8 in
  let m = 1 + Rng.int rng 6 in
  let minimize = Array.init n (fun _ -> float_of_int (1 + Rng.int rng 20)) in
  let constraints =
    List.init m (fun _ ->
        let terms =
          List.init n (fun v -> (v, float_of_int (Rng.int rng 4)))
          |> List.filter (fun (_, co) -> co > 0.0)
        in
        if terms = [] then c [ (0, 1.0) ] S.Ge 0.0
        else
          let total = List.fold_left (fun a (_, co) -> a +. co) 0.0 terms in
          c terms S.Ge (Float.of_int (Rng.int rng (int_of_float total + 1))))
  in
  {
    BB.num_vars = n;
    minimize;
    rows = Fbb_lp.Dual_simplex.pack ~num_vars:n constraints;
  }

let test_branch_bound () =
  let rng = Fbb_util.Rng.create ~seed:321 in
  for i = 1 to 25 do
    let p = random_problem rng in
    let a = at_jobs 1 (fun () -> BB.solve p) in
    let b = at_jobs 4 (fun () -> BB.solve p) in
    let tag fmt = Printf.sprintf fmt i in
    check_eq (tag "status equal (case %d)") a.BB.status b.BB.status;
    (* [best] carries the winning 0/1 vector: equality means the same
       solution, not merely the same objective, at both widths. *)
    check_eq (tag "incumbent equal (case %d)") a.BB.best b.BB.best;
    check_eq (tag "node count equal (case %d)") a.BB.nodes b.BB.nodes
  done

(* ----- constraint reduction and the full ILP flow ----------------------- *)

let test_reduce_paths () =
  let p = Tsupport.small_problem () in
  let a = at_jobs 1 (fun () -> Fbb_core.Ilp_opt.reduce_paths p) in
  let b = at_jobs 4 (fun () -> Fbb_core.Ilp_opt.reduce_paths p) in
  check_eq "kept set identical jobs=1 vs 4" a b;
  Alcotest.(check bool) "reduction keeps at least one constraint" true
    (a <> [])

let test_ilp_flow () =
  let p = Tsupport.small_problem ~beta:0.05 () in
  let run () =
    let r = Fbb_core.Ilp_opt.optimize p in
    (r.Fbb_core.Ilp_opt.levels, r.Fbb_core.Ilp_opt.leakage_nw,
     r.Fbb_core.Ilp_opt.proved_optimal, r.Fbb_core.Ilp_opt.nodes)
  in
  let a = at_jobs 1 run in
  let b = at_jobs 4 run in
  check_eq "ilp assignment/leakage/nodes identical jobs=1 vs 4" a b

(* ----- the differential fuzz harness ------------------------------------ *)

let test_differential_harness () =
  (* The whole oracle/heuristic/B&B/refine cross-check — the fuzzer's
     inner loop — must produce identical verdicts at any pool width,
     both the solver outputs and the (hopefully empty) failure lists. *)
  let module D = Fbb_oracle.Differential in
  let cases =
    [
      Fbb_oracle.Case.make ~seed:11 ~gates:60 ~rows:3 ();
      Fbb_oracle.Case.make ~beta:0.08 ~seed:23 ~gates:90 ~rows:4 ();
      Fbb_oracle.Case.make ~beta:0.05 ~max_clusters:3 ~level_stride:2 ~seed:37
        ~gates:120 ~rows:5 ();
    ]
  in
  List.iter
    (fun c ->
      let a = at_jobs 1 (fun () -> D.run c) in
      let b = at_jobs 4 (fun () -> D.run c) in
      let tag s = Printf.sprintf "%s (%s)" s (Fbb_oracle.Case.name c) in
      check_eq (tag "differential outputs identical jobs=1 vs 4")
        a.D.outputs b.D.outputs;
      check_eq (tag "failure lists identical jobs=1 vs 4")
        a.D.failures b.D.failures)
    cases

(* ----- budget-bounded anytime runs -------------------------------------- *)

module Budget = Fbb_util.Budget

let test_budgeted_branch_bound () =
  (* A work budget truncates the B&B at a deterministic wave boundary:
     the anytime incumbent, node count and work consumed must be
     bit-identical at any pool width. *)
  let rng = Fbb_util.Rng.create ~seed:654 in
  for i = 1 to 10 do
    let p = random_problem rng in
    let run jobs =
      at_jobs jobs (fun () ->
          let budget = Budget.create ~work:25 () in
          let r = BB.solve ~budget p in
          (r.BB.status, r.BB.best, r.BB.nodes, Budget.work_used budget))
    in
    let a = run 1 and b = run 4 in
    check_eq
      (Printf.sprintf "budgeted bb identical jobs=1 vs 4 (case %d)" i)
      a b
  done

let test_budgeted_montecarlo () =
  let pl = Lazy.force Tsupport.small_placement in
  let run jobs =
    at_jobs jobs (fun () ->
        Fbb_variation.Montecarlo.run
          ~budget:(Budget.create ~work:2 ())
          ~seed:7 ~samples:64 ~sigma:0.05 pl)
  in
  let a = run 1 and b = run 4 in
  check_eq "truncated mc records bit-identical jobs=1 vs 4" a b;
  Alcotest.(check bool) "truncation engaged" false
    a.Fbb_variation.Montecarlo.complete;
  Alcotest.(check bool) "a strict prefix was evaluated" true
    (a.Fbb_variation.Montecarlo.samples > 0
    && a.Fbb_variation.Montecarlo.samples < 64)

let test_cascade () =
  (* The whole degradation cascade - stage choice, statuses and work
     accounting - must be identical at any width, for every budget
     regime (elapsed_s is wall clock and excluded). *)
  let p = Tsupport.small_problem () in
  List.iter
    (fun work ->
      let run jobs =
        at_jobs jobs (fun () ->
            let r =
              Fbb_core.Cascade.solve ~budget:(Budget.create ~work ()) p
            in
            ( r.Fbb_core.Cascade.outcome,
              r.Fbb_core.Cascade.exhausted,
              List.map
                (fun a ->
                  ( a.Fbb_core.Cascade.stage,
                    a.Fbb_core.Cascade.status,
                    a.Fbb_core.Cascade.leakage_nw,
                    a.Fbb_core.Cascade.work_spent ))
                r.Fbb_core.Cascade.attempts ))
      in
      let a = run 1 and b = run 4 in
      check_eq
        (Printf.sprintf "cascade identical jobs=1 vs 4 (work=%d)" work)
        a b)
    [ 0; 5; 50; 5000 ]

(* ----- the serving plane ------------------------------------------------ *)

let test_serve_script () =
  (* End to end through fbbd: a fixed request script over a live
     server — admission, same-netlist batching, budgeted cascade —
     must yield bit-identical response payloads per request id at any
     pool width (elapsed_ms, the only wall-clock field, is zeroed by
     the canonicalizer). *)
  let a = Test_serve.script_replay ~jobs:1 () in
  let b = Test_serve.script_replay ~jobs:4 () in
  check_eq "serve script payloads bit-identical jobs=1 vs 4" a b

let test_serve_script_recorded () =
  (* The flight recorder is observation-only: replaying the script
     with the recorder sink capturing every span must leave payloads
     bit-identical to the recorder-off baseline at any pool width,
     while still producing a record per solve. *)
  let baseline = Test_serve.script_replay ~jobs:1 () in
  let recorded jobs =
    Fbb_obs.Flight.clear ();
    Fbb_obs.Sink.with_installed (Fbb_obs.Flight.sink ()) @@ fun () ->
    Test_serve.script_replay ~jobs ()
  in
  let a = recorded 1 in
  check_eq "recorder-on payloads match baseline jobs=1" baseline a;
  Alcotest.(check bool) "every solve recorded" true
    (Fbb_obs.Flight.size () >= List.length baseline);
  let b = recorded 4 in
  check_eq "recorder-on payloads match baseline jobs=4" baseline b;
  Fbb_obs.Flight.clear ()

(* ----- live telemetry is read-only -------------------------------------- *)

let test_cascade_with_telemetry () =
  (* The telemetry plane only reads solver state, so running a traced
     cascade under a live sampler + /metrics endpoint must not perturb
     results: bit-identical at jobs 1 vs 4, telemetry on, against the
     telemetry-off baseline. Work budgets (not wall deadlines) keep the
     truncation point deterministic. *)
  let p = Tsupport.small_problem () in
  let solve () =
    let r = Fbb_core.Cascade.solve ~budget:(Budget.create ~work:50 ()) p in
    ( r.Fbb_core.Cascade.outcome,
      r.Fbb_core.Cascade.exhausted,
      List.map
        (fun a ->
          ( a.Fbb_core.Cascade.stage,
            a.Fbb_core.Cascade.status,
            a.Fbb_core.Cascade.leakage_nw,
            a.Fbb_core.Cascade.work_spent ))
        r.Fbb_core.Cascade.attempts )
  in
  let baseline = at_jobs 1 solve in
  let with_telemetry jobs =
    at_jobs jobs (fun () ->
        let sampler = Fbb_obs.Telemetry.start ~tick_s:0.01 () in
        match Fbb_obs.Telemetry.serve ~port:0 () with
        | Error m -> Alcotest.failf "serve: %s" m
        | Ok srv ->
          Fun.protect ~finally:(fun () ->
              Fbb_obs.Telemetry.shutdown srv;
              Fbb_obs.Telemetry.stop sampler)
          @@ fun () ->
          Fbb_obs.Sink.with_installed Fbb_obs.Sink.null @@ fun () ->
          Fbb_obs.Context.with_ (Fbb_obs.Context.make ()) @@ fun () ->
          let r = solve () in
          (* Scrape mid-session so the endpoint demonstrably served
             while the solver ran. *)
          let url =
            Printf.sprintf "http://127.0.0.1:%d/metrics"
              (Fbb_obs.Telemetry.port srv)
          in
          (match Fbb_obs.Telemetry.http_get url with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "live scrape failed: %s" m);
          r)
  in
  check_eq "telemetry jobs=1 matches baseline" baseline (with_telemetry 1);
  check_eq "telemetry jobs=4 matches baseline" baseline (with_telemetry 4)

let suite =
  [
    Alcotest.test_case "montecarlo" `Quick test_montecarlo;
    Alcotest.test_case "budgeted branch and bound" `Quick
      test_budgeted_branch_bound;
    Alcotest.test_case "budgeted montecarlo" `Quick test_budgeted_montecarlo;
    Alcotest.test_case "cascade" `Quick test_cascade;
    Alcotest.test_case "cascade with live telemetry" `Quick
      test_cascade_with_telemetry;
    Alcotest.test_case "serve script replay" `Quick test_serve_script;
    Alcotest.test_case "serve script replay with flight recorder" `Quick
      test_serve_script_recorded;
    Alcotest.test_case "branch and bound" `Quick test_branch_bound;
    Alcotest.test_case "reduce_paths" `Quick test_reduce_paths;
    Alcotest.test_case "ilp flow" `Quick test_ilp_flow;
    Alcotest.test_case "differential harness" `Quick test_differential_harness;
  ]
