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
  heuristic : (int * Cascade.attempt) list;
  ilp : (int * Ilp_opt.result) list;
}

let evaluate ?(cs = [ 2; 3 ]) ?ilp_limits prepared ~beta =
  Fbb_obs.Span.with_ ~name:"flow.evaluate" @@ fun () ->
  let p = problem prepared ~beta in
  let jopt = Heuristic.pass_one p in
  let single_bb_nw =
    Option.map (fun j -> Solution.leakage_nw p (Solution.uniform p j)) jopt
  in
  let runs =
    List.map
      (fun c ->
        (* One budget per C, shared by all of its stages. *)
        let budget =
          match ilp_limits with
          | None -> Fbb_util.Budget.unlimited
          | Some { Fbb_ilp.Branch_bound.max_nodes; max_seconds } ->
            Fbb_util.Budget.create ~work:max_nodes ~deadline_s:max_seconds ()
        in
        (c, Cascade.solve ~max_clusters:c ~budget p))
      cs
  in
  let heuristic =
    List.filter_map
      (fun (c, r) ->
        List.find_opt
          (fun a -> a.Cascade.stage = Cascade.Heuristic)
          r.Cascade.attempts
        |> Option.map (fun a -> (c, a)))
      runs
  in
  (* Only a proof counts as an ILP answer: an unproved incumbent would
     make Table 1 print a number it cannot back, so it is reported as a
     timeout, the paper's "-" case. A proved answer carries the
     cascade's leakage, [Solution.leakage_nw] of its levels, rather
     than the branch and bound's objective sum. *)
  let ilp =
    List.filter_map
      (fun (c, r) ->
        Option.map
          (fun (i : Ilp_opt.result) ->
            match r.Cascade.outcome with
            | Cascade.Solved
                { stage = Cascade.Ilp; leakage_nw; optimal = true; _ } ->
              (c, { i with Ilp_opt.leakage_nw = Some leakage_nw })
            | Cascade.Solved _ | Cascade.Infeasible ->
              (c, { i with Ilp_opt.proved_optimal = false; timed_out = true }))
          r.Cascade.ilp)
      runs
  in
  { beta; constraints = Problem.num_paths p; jopt; single_bb_nw; heuristic; ilp }

let heuristic_savings_pct ev ~c =
  match (List.assoc_opt c ev.heuristic, ev.single_bb_nw) with
  | Some { Cascade.status = Cascade.Accepted; leakage_nw = Some leak; _ },
    Some base ->
    Fbb_util.Stats.ratio_pct_opt base leak
  | Some _, _ | None, _ -> None

let ilp_savings_pct ev ~c =
  match (List.assoc_opt c ev.ilp, ev.single_bb_nw) with
  | Some r, Some base when r.Ilp_opt.proved_optimal ->
    Option.bind r.Ilp_opt.leakage_nw (fun leak ->
        Fbb_util.Stats.ratio_pct_opt base leak)
  | Some _, _ | None, _ -> None
