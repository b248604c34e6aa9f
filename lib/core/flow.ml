module B = Fbb_netlist.Benchmarks

type prepared = {
  spec : B.spec;
  netlist : Fbb_netlist.Netlist.t;
  placement : Fbb_place.Placement.t;
}

let prepare ?lib ?utilization spec =
  Fbb_obs.Span.with_ ~name:"flow.prepare" @@ fun () ->
  let netlist =
    Fbb_obs.Span.with_ ~name:"flow.generate" @@ fun () ->
    spec.B.generate ?lib ()
  in
  let placement =
    Fbb_obs.Span.with_ ~name:"flow.place" @@ fun () ->
    Fbb_place.Placement.place ?utilization ~target_rows:spec.B.rows netlist
  in
  { spec; netlist; placement }

let problem prepared ~beta =
  Fbb_obs.Span.with_ ~name:"flow.problem" @@ fun () ->
  Problem.build ~beta prepared.placement

type evaluation = {
  beta : float;
  constraints : int;
  jopt : int option;
  single_bb_nw : float option;
  heuristic : (int * Heuristic.result) list;
  ilp : (int * Ilp_opt.result) list;
}

let evaluate ?(cs = [ 2; 3 ]) ?(run_ilp = true) ?ilp_limits prepared ~beta =
  Fbb_obs.Span.with_ ~name:"flow.evaluate" @@ fun () ->
  let p = problem prepared ~beta in
  let jopt = Heuristic.pass_one p in
  let single_bb_nw =
    Option.map (fun j -> Solution.leakage_nw p (Solution.uniform p j)) jopt
  in
  (* Both optimizers run inside the signoff refinement loop; leakage is
     comparable across extended problems because the leakage tables do not
     depend on the constraint set. *)
  let refined =
    Fbb_obs.Span.with_ ~name:"flow.heuristic" @@ fun () ->
    List.filter_map
      (fun c -> Option.map (fun o -> (c, o)) (Refine.heuristic ~max_clusters:c p))
      cs
  in
  let heuristic =
    List.filter_map
      (fun (c, (o : Refine.outcome)) ->
        match (jopt, single_bb_nw) with
        | Some j, Some base when o.Refine.signoff_clean ->
          let leak = Solution.leakage_nw p o.Refine.levels in
          Some
            ( c,
              {
                Heuristic.jopt = j;
                levels = o.Refine.levels;
                clusters = Solution.cluster_count o.Refine.levels;
                leakage_nw = leak;
                single_bb_leakage_nw = base;
                savings_pct = Fbb_util.Stats.ratio_pct base leak;
                complete = true;
              } )
        | _, _ -> None)
      refined
  in
  let ilp =
    if not run_ilp then []
    else
      Fbb_obs.Span.with_ ~name:"flow.ilp" @@ fun () ->
      List.map
        (fun c ->
          (* One budget per C, spanning all of its refinement iterations. *)
          let budget =
            match ilp_limits with
            | None -> Fbb_util.Budget.unlimited
            | Some { Fbb_ilp.Branch_bound.max_nodes; max_seconds } ->
              Fbb_util.Budget.create ~work:max_nodes ~deadline_s:max_seconds ()
          in
          let config = { Ilp_opt.max_clusters = c; budget } in
          (* Start from the heuristic's refined constraint set and keep
             refining on the ILP's own solutions. *)
          let p0 =
            match List.assoc_opt c refined with
            | Some o -> o.Refine.problem
            | None -> p
          in
          let warm_start =
            Option.map
              (fun (r : Heuristic.result) -> r.Heuristic.levels)
              (List.assoc_opt c heuristic)
          in
          (* Only a proof counts as an answer: an unproved incumbent
             would make Table 1 print a number it cannot back. *)
          let r, refined_ilp =
            Refine.solve ~max_iterations:4
              ~solver:(Ilp_opt.optimize ~config ?warm_start)
              ~levels_of:(fun (r : Ilp_opt.result) ->
                if r.Ilp_opt.proved_optimal then r.Ilp_opt.levels else None)
              p0
          in
          match refined_ilp with
          | Some o when o.Refine.signoff_clean ->
            ( c,
              {
                r with
                Ilp_opt.leakage_nw =
                  Some (Solution.leakage_nw p o.Refine.levels);
              } )
          | Some _ | None ->
            (* Not proved within budget (or signoff never closed): keep the
               solver metadata but report it as a timeout, the paper's "-"
               case. *)
            (c, { r with Ilp_opt.proved_optimal = false; timed_out = true }))
        cs
  in
  { beta; constraints = Problem.num_paths p; jopt; single_bb_nw; heuristic; ilp }

(* Savings against a zero/NaN baseline are meaningless; drop them here
   so report columns show "-" instead of inf/nan. *)
let finite_opt = function
  | Some v when Float.is_finite v -> Some v
  | Some _ | None -> None

let heuristic_savings_pct ev ~c =
  finite_opt
    (Option.map
       (fun (r : Heuristic.result) -> r.Heuristic.savings_pct)
       (List.assoc_opt c ev.heuristic))

let ilp_savings_pct ev ~c =
  match (List.assoc_opt c ev.ilp, ev.single_bb_nw) with
  | Some r, Some base when r.Ilp_opt.proved_optimal ->
    Option.bind r.Ilp_opt.leakage_nw (fun leak ->
        Fbb_util.Stats.ratio_pct_opt base leak)
  | Some _, _ | None, _ -> None
