module B = Fbb_util.Budget

type stage = Ilp | Heuristic | Single_bb

let stage_name = function
  | Ilp -> "ilp"
  | Heuristic -> "heuristic"
  | Single_bb -> "single_bb"

type status =
  | Accepted
  | No_candidate
  | Rejected
  | Exhausted
  | Crashed of string

type attempt = {
  stage : stage;
  status : status;
  leakage_nw : float option;
  work_spent : int;
  elapsed_s : float;
}

type outcome =
  | Solved of {
      stage : stage;
      levels : int array;
      leakage_nw : float;
      gap_pct : float option;
      optimal : bool;
    }
  | Infeasible

type result = {
  outcome : outcome;
  attempts : attempt list;
  exhausted : bool;
  problem : Problem.t;
}

let stages_c = Fbb_obs.Counter.make "cascade.stages"
let accepted_c = Fbb_obs.Counter.make "cascade.accepted"
let rejected_c = Fbb_obs.Counter.make "cascade.rejected"
let crashed_c = Fbb_obs.Counter.make "cascade.crashed"
let exhausted_c = Fbb_obs.Counter.make "cascade.exhausted"

(* The plain-loop check deliberately mirrors the oracle's style rather
   than calling [Solution.meets_timing]: an acceptance decision must not
   share code with the machinery that produced the candidate, or a
   common bug signs off its own output. *)
let verify p ~max_clusters levels =
  let nrows = Problem.num_rows p in
  let nlev = Problem.num_levels p in
  Array.length levels = nrows
  && Array.for_all (fun l -> l >= 0 && l < nlev) levels
  && begin
    let used = Array.make nlev false in
    Array.iter (fun l -> used.(l) <- true) levels;
    Array.fold_left (fun n u -> if u then n + 1 else n) 0 used <= max_clusters
  end
  &&
  let ok = ref true in
  let m = Problem.num_paths p in
  let k = ref 0 in
  while !ok && !k < m do
    let achieved = ref 0.0 in
    let rv = p.Problem.path_rows.(!k) in
    for i = 0 to Array.length rv.Problem.idx - 1 do
      achieved :=
        !achieved
        +. (rv.Problem.coef.(i) *. p.Problem.design.reduction.(levels.(rv.Problem.idx.(i))))
    done;
    if !achieved < p.Problem.required.(!k) -. 1e-9 then ok := false;
    incr k
  done;
  !ok

(* Row-wise leakage lower bound: every row at its cheapest level,
   ignoring timing entirely. Valid for any feasible assignment, so
   [(leak - lb) / lb] bounds the optimality gap from above. *)
let lower_bound p =
  let acc = ref 0.0 in
  for i = 0 to Problem.num_rows p - 1 do
    let row = p.Problem.design.row_leak.(i) in
    let m = ref row.(0) in
    Array.iter (fun v -> if v < !m then m := v) row;
    acc := !acc +. !m
  done;
  !acc

let gap_pct ~lb leak =
  if lb > 0.0 then Some (100.0 *. (leak -. lb) /. lb) else None

(* What a stage hands back to the driver. *)
type candidate = {
  c_levels : int array option;
  c_optimal : bool;  (* the stage claims a proof of optimality *)
  c_truncated : bool;  (* the stage's budget cut it short *)
}

let run_ilp ~max_clusters ~budget p =
  let r = Ilp_opt.optimize ~config:{ Ilp_opt.max_clusters; budget } p in
  {
    c_levels = r.Ilp_opt.levels;
    c_optimal = r.Ilp_opt.proved_optimal;
    c_truncated = r.Ilp_opt.timed_out;
  }

let run_heuristic ~max_clusters ~budget p =
  match Heuristic.optimize ~max_clusters ~budget p with
  | None -> { c_levels = None; c_optimal = false; c_truncated = false }
  | Some h ->
    {
      c_levels = Some h.Heuristic.levels;
      c_optimal = false;
      c_truncated = not h.Heuristic.complete;
    }

let run_single_bb p =
  match Problem.max_single_level p with
  | None -> { c_levels = None; c_optimal = false; c_truncated = false }
  | Some j ->
    { c_levels = Some (Solution.uniform p j); c_optimal = false;
      c_truncated = false }

(* Fraction of the remaining allowance each stage may burn. The floor
   stage takes no slice: it is pool-free and linear-time, and must run
   even on a dead budget. *)
let stage_frac = function
  | Ilp -> 0.5
  | Heuristic -> 1.0
  | Single_bb -> 0.0

let solve ?(max_clusters = 2) ?(budget = B.unlimited) p =
  if max_clusters < 1 then invalid_arg "Cascade.solve: C must be >= 1";
  Fbb_obs.Span.with_ ~name:"cascade.solve" @@ fun () ->
  let lb = lower_bound p in
  (* Enough refinement iterations for the floor to climb every level. *)
  let max_iterations = Problem.num_levels p + 1 in
  let carried = ref p in
  let attempts = ref [] in
  let winner = ref None in
  let record a = attempts := a :: !attempts in
  let attempt stage runner =
    if !winner = None then begin
      Fbb_obs.Counter.incr stages_c;
      let t0 = Fbb_obs.Clock.now_s () in
      let finish status leakage_nw work_spent =
        (match status with
        | Accepted -> Fbb_obs.Counter.incr accepted_c
        | Rejected -> Fbb_obs.Counter.incr rejected_c
        | Crashed _ -> Fbb_obs.Counter.incr crashed_c
        | Exhausted -> Fbb_obs.Counter.incr exhausted_c
        | No_candidate -> ());
        record
          { stage; status; leakage_nw; work_spent;
            elapsed_s = Fbb_obs.Clock.now_s () -. t0 }
      in
      let exhausted_now =
        (* The floor stage ignores exhaustion by design. A stage with no
           work left is skipped like one whose budget tripped. *)
        stage <> Single_bb
        && (B.exhausted budget
           || B.remaining_work budget = Some 0
           || Fbb_fault.Fault.fire "budget.exhaust")
      in
      if exhausted_now then finish Exhausted None 0
      else begin
        let frac = stage_frac stage in
        let sb =
          if stage = Single_bb then B.create ()
          else B.sub ~work_frac:frac ~deadline_frac:frac budget
        in
        match
          Fbb_obs.Span.with_ ~name:("cascade." ^ stage_name stage) (fun () ->
              Refine.solve ~max_iterations ~solver:(runner ~budget:sb)
                ~levels_of:(fun c -> c.c_levels) !carried)
        with
        | cand, refined ->
          (* Charge the stage's ticks back to the shared budget; the
             child was only an allowance, not an account. *)
          let spent = B.work_used sb in
          B.consume budget spent;
          (match refined with
          | None ->
            if cand.c_truncated then finish Exhausted None spent
            else finish No_candidate None spent
          | Some o ->
            carried := o.Refine.problem;
            let levels = o.Refine.levels in
            let leak = Solution.leakage_nw p levels in
            if o.Refine.signoff_clean && verify !carried ~max_clusters levels
            then begin
              winner := Some (stage, levels, leak, cand.c_optimal);
              finish Accepted (Some leak) spent
            end
            else finish Rejected (Some leak) spent)
        | exception e ->
          let spent = B.work_used sb in
          B.consume budget spent;
          finish (Crashed (Printexc.to_string e)) None spent
      end
    end
  in
  attempt Ilp (run_ilp ~max_clusters);
  attempt Heuristic (run_heuristic ~max_clusters);
  attempt Single_bb (fun ~budget:_ q -> run_single_bb q);
  let outcome =
    match !winner with
    | Some (stage, levels, leakage_nw, optimal) ->
      Solved
        {
          stage;
          levels;
          leakage_nw;
          gap_pct = (if optimal then Some 0.0 else gap_pct ~lb leakage_nw);
          optimal;
        }
    | None ->
      (* Every stage fell through. The floor refines until its uniform
         level signs off or the carried problem has no feasible uniform
         level, so it only declines on [max_single_level = None]: the
         exact infeasibility proof (a uniform assignment uses one
         cluster, and C >= 1). *)
      Infeasible
  in
  {
    outcome;
    attempts = List.rev !attempts;
    exhausted = B.exhausted budget;
    problem = !carried;
  }
