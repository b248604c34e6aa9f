module Problem = Fbb_core.Problem
module Solution = Fbb_core.Solution
module Heuristic = Fbb_core.Heuristic
module Ilp = Fbb_core.Ilp_opt
module Refine = Fbb_core.Refine

module Cascade = Fbb_core.Cascade

type oracle_result = Checked of Oracle.verdict | Skipped

type bb_run = {
  levels : int array option;
  leakage_nw : float option;
  proved_optimal : bool;
  timed_out : bool;
}

type outputs = {
  oracle : oracle_result;
  heuristic : (int array * float) option;
  bb : bb_run;
  refine : (int array * float * bool) option;
}

type report = { case : Case.t; outputs : outputs; failures : string list }

let failed r = r.failures <> []

let runs_c = Fbb_obs.Counter.make "differential.runs"
let failures_c = Fbb_obs.Counter.make "differential.failures"
let cascade_runs_c = Fbb_obs.Counter.make "differential.cascade_runs"
let cascade_failures_c = Fbb_obs.Counter.make "differential.cascade_failures"

let leak_tol v = 1e-9 *. Float.max 1.0 (Float.abs v)

let empty_outputs =
  {
    oracle = Skipped;
    heuristic = None;
    bb = { levels = None; leakage_nw = None; proved_optimal = false;
           timed_out = false };
    refine = None;
  }

type cascade_report = {
  c_case : Case.t;
  c_result : Cascade.result option;  (* None: the whole cascade crashed *)
  c_optimum_nw : float option;
  c_failures : string list;
}

let cascade_failed r = r.c_failures <> []

(* Referee for the fault-injection fuzzer: the cascade runs with
   whatever faults the caller configured live, while every ground-truth
   computation (problem build, oracle, invariant checker) runs under
   [Fault.with_paused] so injected faults can degrade the answer but
   never corrupt the ruler it is measured with. A budget-truncated or
   fault-degraded cascade may land on a worse stage; what it may never
   do is return an unverified assignment, beat the oracle optimum, or
   claim infeasibility on a feasible instance. *)
let run_cascade ?(max_clusters = 2) ?budget case =
  Fbb_obs.Counter.incr cascade_runs_c;
  Fbb_obs.Span.with_ ~name:"differential.cascade" @@ fun () ->
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let optimum = ref None in
  let finish c_result =
    if !failures <> [] then Fbb_obs.Counter.incr cascade_failures_c;
    { c_case = case; c_result; c_optimum_nw = !optimum;
      c_failures = List.rev !failures }
  in
  match Fbb_fault.Fault.with_paused (fun () -> Case.build case) with
  | exception e ->
    fail "build: %s" (Printexc.to_string e);
    finish None
  | p -> (
    let c = max_clusters in
    match Cascade.solve ~max_clusters:c ?budget p with
    | exception e ->
      (* The cascade's contract is to contain stage failures; an escape
         is itself a finding. *)
      fail "cascade: escaped exception %s" (Printexc.to_string e);
      finish None
    | r ->
      (* Everything is refereed on the carried problem: the cascade's
         answer must meet the paths its sign-offs folded in, and an
         optimality claim is a claim about that problem. *)
      let rp = r.Cascade.problem in
      Fbb_fault.Fault.with_paused (fun () ->
          let msl = Problem.max_single_level rp in
          (match r.Cascade.outcome with
          | Cascade.Infeasible ->
            if msl <> None then
              fail
                "cascade: claims infeasible but a uniform feasible level \
                 exists";
            if Oracle.tractable ~max_clusters:c rp then (
              match Oracle.solve ~max_clusters:c rp with
              | Oracle.Optimal opt ->
                fail
                  "cascade: claims infeasible, oracle optimum is %.9f nW"
                  opt.Oracle.leakage_nw
              | Oracle.Infeasible -> ())
          | Cascade.Solved { stage; levels; leakage_nw; gap_pct; optimal } ->
            if not (Cascade.verify rp ~max_clusters:c levels) then
              fail "cascade: accepted assignment fails independent sign-off";
            List.iter (fun m -> fail "cascade: %s" m)
              (Invariant.check ~max_clusters:c
                 ~reported_leakage_nw:leakage_nw rp ~levels);
            List.iter (fun m -> fail "cascade: %s" m)
              (Invariant.signoff rp ~levels);
            if msl = None then
              fail
                "cascade: returned a solution although no uniform level is \
                 feasible (stage %s)"
                (Cascade.stage_name stage);
            if Oracle.tractable ~max_clusters:c rp then (
              match Oracle.solve ~max_clusters:c rp with
              | Oracle.Infeasible ->
                fail "cascade: solved an instance the oracle proves infeasible"
              | Oracle.Optimal opt ->
                optimum := Some opt.Oracle.leakage_nw;
                let tol = leak_tol opt.Oracle.leakage_nw in
                if leakage_nw < opt.Oracle.leakage_nw -. tol then
                  fail
                    "cascade: leakage %.9f nW beats the oracle optimum %.9f \
                     nW"
                    leakage_nw opt.Oracle.leakage_nw;
                if
                  optimal
                  && Float.abs (leakage_nw -. opt.Oracle.leakage_nw) > tol
                then
                  fail
                    "cascade: claims optimality at %.9f nW, oracle optimum \
                     is %.9f nW"
                    leakage_nw opt.Oracle.leakage_nw;
                (* The gap is a bound: the lower bound behind it may not
                   pass the optimum, and a proved answer has none. *)
                match gap_pct with
                | Some g when optimal && g <> 0.0 ->
                  fail "cascade: proved answer reports gap %.6f%%" g
                | Some g when leakage_nw /. (1.0 +. (g /. 100.0))
                              > opt.Oracle.leakage_nw +. tol ->
                  fail
                    "cascade: gap %.6f%% implies a lower bound above the \
                     oracle optimum %.9f nW"
                    g opt.Oracle.leakage_nw
                | Some _ | None -> ()));
          finish (Some r)))

(* The oracle for a transformed problem, used by the metamorphic checks:
   same bounds as the primary solve, so tractability cannot diverge
   between the two sides of a comparison. *)
let oracle_of ~max_clusters p =
  if Oracle.tractable ~max_clusters p then Some (Oracle.solve ~max_clusters p)
  else None

(* Counters of pool faults the solvers absorb (a branch-and-bound wave
   abandoned, a dominance reduction skipped). Without fault injection
   they must stay still, or the containment is hiding a real worker
   crash. *)
let contained_faults =
  List.map Fbb_obs.Counter.make [ "bb.wave_faults"; "ilp.reduce_faults" ]

let run ?(metamorphic = true) case =
  Fbb_obs.Counter.incr runs_c;
  Fbb_obs.Span.with_ ~name:"differential.run" @@ fun () ->
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let faults_before = List.map Fbb_obs.Counter.read contained_faults in
  let finish outputs =
    if not (Fbb_fault.Fault.active ()) then
      List.iter2
        (fun c before ->
          let moved = Fbb_obs.Counter.read c - before in
          if moved <> 0 then
            fail "%s moved by %d without fault injection"
              (Fbb_obs.Counter.name c) moved)
        contained_faults faults_before;
    if !failures <> [] then Fbb_obs.Counter.incr failures_c;
    { case; outputs; failures = List.rev !failures }
  in
  match Case.build case with
  | exception e ->
    fail "build: %s" (Printexc.to_string e);
    finish empty_outputs
  | p ->
    let c = case.Case.max_clusters in
    (* --- heuristic ----------------------------------------------------- *)
    let heuristic =
      match Heuristic.optimize ~max_clusters:c p with
      | None -> None
      | Some r ->
        let leak = Solution.leakage_nw p r.Heuristic.levels in
        List.iter (fun m -> fail "heuristic: %s" m)
          (Invariant.check ~max_clusters:c ~reported_leakage_nw:r.Heuristic.leakage_nw
             p ~levels:r.Heuristic.levels);
        Some (r.Heuristic.levels, leak)
    in
    let msl = Problem.max_single_level p in
    if (heuristic = None) <> (msl = None) then
      fail
        "heuristic: infeasibility claim disagrees with max_single_level \
         (heuristic %s, single-level %s)"
        (if heuristic = None then "None" else "Some")
        (if msl = None then "None" else "Some");
    (* --- branch & bound (cold: no warm start) -------------------------- *)
    let bb =
      let config =
        {
          Ilp.max_clusters = c;
          budget = Fbb_util.Budget.create ~work:500_000 ();
        }
      in
      let r = Ilp.optimize ~config p in
      let leakage_nw =
        Option.map (fun l -> Solution.leakage_nw p l) r.Ilp.levels
      in
      Option.iter
        (fun levels ->
          List.iter (fun m -> fail "bb: %s" m)
            (Invariant.check ~max_clusters:c ?reported_leakage_nw:r.Ilp.leakage_nw
               p ~levels))
        r.Ilp.levels;
      if r.Ilp.proved_optimal && r.Ilp.levels = None && msl <> None then
        fail "bb: proved infeasible but a uniform feasible level exists";
      if (not r.Ilp.timed_out) && r.Ilp.levels <> None && msl = None then
        fail "bb: found a solution on a problem with no feasible uniform level";
      {
        levels = r.Ilp.levels;
        leakage_nw;
        proved_optimal = r.Ilp.proved_optimal;
        timed_out = r.Ilp.timed_out;
      }
    in
    (* --- oracle -------------------------------------------------------- *)
    let oracle =
      if not (Oracle.tractable ~max_clusters:c p) then Skipped
      else begin
        let verdict = Oracle.solve ~max_clusters:c p in
        (match verdict with
        | Oracle.Infeasible ->
          if heuristic <> None then
            fail "oracle: infeasible, but the heuristic returned a solution";
          if bb.proved_optimal && bb.levels <> None then
            fail "oracle: infeasible, but B&B proved a solution optimal"
        | Oracle.Optimal opt ->
          List.iter (fun m -> fail "oracle self-check: %s" m)
            (Invariant.check ~max_clusters:c
               ~reported_leakage_nw:opt.Oracle.leakage_nw p
               ~levels:opt.Oracle.levels);
          let tol = leak_tol opt.Oracle.leakage_nw in
          (match heuristic with
          | None ->
            fail "oracle: optimum %.3f nW exists, heuristic claims infeasible"
              opt.Oracle.leakage_nw
          | Some (_, hleak) ->
            if hleak < opt.Oracle.leakage_nw -. tol then
              fail
                "heuristic leakage %.9f nW beats the oracle optimum %.9f nW \
                 — the oracle search or the feasibility check disagree"
                hleak opt.Oracle.leakage_nw);
          (match bb with
          | { proved_optimal = true; leakage_nw = Some bleak; _ } ->
            if Float.abs (bleak -. opt.Oracle.leakage_nw) > tol then
              fail
                "bb: proved-optimal leakage %.9f nW differs from oracle \
                 optimum %.9f nW"
                bleak opt.Oracle.leakage_nw
          | { proved_optimal = true; leakage_nw = None; _ } -> ()
          | _ -> ()));
        Checked verdict
      end
    in
    (* --- signoff refinement -------------------------------------------- *)
    let refine =
      match Refine.heuristic ~max_clusters:c p with
      | None ->
        if msl <> None then
          fail "refine: returned None although the problem is feasible";
        None
      | Some o ->
        let rp = o.Refine.problem in
        let leak = Solution.leakage_nw rp o.Refine.levels in
        if o.Refine.signoff_clean then begin
          List.iter (fun m -> fail "refine: %s" m)
            (Invariant.check ~max_clusters:c rp ~levels:o.Refine.levels);
          List.iter (fun m -> fail "refine: %s" m)
            (Invariant.signoff rp ~levels:o.Refine.levels);
          (* The refined constraint set is a superset of the original, so
             its solutions can never beat the original optimum. *)
          match oracle with
          | Checked (Oracle.Optimal opt) ->
            if leak < opt.Oracle.leakage_nw -. leak_tol opt.Oracle.leakage_nw
            then
              fail
                "refine: signoff-clean leakage %.9f nW beats the oracle \
                 optimum %.9f nW of the unrefined problem"
                leak opt.Oracle.leakage_nw
          | Checked Oracle.Infeasible | Skipped -> ()
        end;
        Some (o.Refine.levels, leak, o.Refine.signoff_clean)
    in
    (* --- metamorphic properties of the optimum ------------------------- *)
    (match oracle with
    | Checked (Oracle.Optimal opt) when metamorphic ->
      Fbb_obs.Span.with_ ~name:"differential.metamorphic" @@ fun () ->
      let retruncate q =
        match case.Case.max_paths with
        | None -> q
        | Some n -> Case.truncate_paths q n
      in
      let tol = leak_tol opt.Oracle.leakage_nw in
      (* Row-permutation invariance: rotating the row stack permutes the
         leakage table and the constraint coefficients but cannot change
         the optimum value. *)
      let nrows = Problem.num_rows p in
      let perm = Array.init nrows (fun i -> (i + 1) mod nrows) in
      let permuted =
        retruncate
          (Problem.build ~levels:p.Problem.design.levels ~beta:case.Case.beta
             (Fbb_place.Placement.permute_rows p.Problem.design.placement perm))
      in
      (match oracle_of ~max_clusters:c permuted with
      | Some (Oracle.Optimal opt') ->
        if Float.abs (opt'.Oracle.leakage_nw -. opt.Oracle.leakage_nw) > tol
        then
          fail
            "metamorphic: row permutation moved the optimum from %.9f to \
             %.9f nW"
            opt.Oracle.leakage_nw opt'.Oracle.leakage_nw
      | Some Oracle.Infeasible ->
        fail "metamorphic: row permutation made the problem infeasible"
      | None -> ());
      (* Beta monotonicity: a milder slowdown relaxes every constraint,
         so the optimum cannot grow. *)
      let milder = { case with Case.beta = case.Case.beta *. 0.8 } in
      (match
         match Case.build milder with
         | q -> oracle_of ~max_clusters:c q
         | exception _ -> None
       with
      | Some (Oracle.Optimal opt') ->
        if opt'.Oracle.leakage_nw > opt.Oracle.leakage_nw +. tol then
          fail
            "metamorphic: beta %.4f optimum %.9f nW exceeds beta %.4f \
             optimum %.9f nW"
            milder.Case.beta opt'.Oracle.leakage_nw case.Case.beta
            opt.Oracle.leakage_nw
      | Some Oracle.Infeasible ->
        fail "metamorphic: reducing beta made the problem infeasible"
      | None -> ());
      (* Leakage-scale equivariance: scaling the objective table scales
         the optimum value. The argmin itself need not be byte-identical
         — scaled sums round differently, so a near-tie can resolve the
         other way — but whatever the scaled oracle picks must still be
         an optimum of the original problem. *)
      let scale = 1.75 in
      let d = p.Problem.design in
      let scaled =
        {
          p with
          Problem.design =
            {
              d with
              row_leak = Array.map (Array.map (fun v -> v *. scale)) d.row_leak;
            };
        }
      in
      (match oracle_of ~max_clusters:c scaled with
      | Some (Oracle.Optimal opt') ->
        let want = opt.Oracle.leakage_nw *. scale in
        if Float.abs (opt'.Oracle.leakage_nw -. want) > leak_tol want then
          fail
            "metamorphic: scaling leakage by %.2f gave optimum %.9f nW, \
             expected %.9f nW"
            scale opt'.Oracle.leakage_nw want;
        let back = Solution.leakage_nw p opt'.Oracle.levels in
        if Float.abs (back -. opt.Oracle.leakage_nw) > tol then
          fail
            "metamorphic: the scaled argmin is not an optimum of the \
             original problem (%.9f nW vs %.9f nW)"
            back opt.Oracle.leakage_nw
      | Some Oracle.Infeasible ->
        fail "metamorphic: scaling the leakage table changed feasibility"
      | None -> ())
    | _ -> ());
    finish { oracle; heuristic; bb; refine }
