module Placement = Fbb_place.Placement
module Timing = Fbb_sta.Timing
module Paths = Fbb_sta.Paths

type outcome = {
  problem : Problem.t;
  levels : int array;
  iterations : int;
  added_constraints : int;
  signoff_clean : bool;
}

let iterations_c = Fbb_obs.Counter.make "refine.iterations"
let constraints_added_c = Fbb_obs.Counter.make "refine.constraints_added"

let row_bias p levels g =
  let placement = p.Problem.design.placement in
  let r = Placement.row_of placement g in
  if r < 0 then 0.0 else p.Problem.design.levels.(levels.(r))

(* The biased dcrit is the maximum per-cell longest-path delay (the
   critical path is the through-cell path of its own cells), so a
   within-budget dcrit proves the extraction would filter to nothing:
   the clean sign-off — the common case — costs no path extraction. *)
let offenders_of p biased =
  let budget = p.Problem.dcrit +. 1e-6 in
  if Timing.dcrit biased <= budget then (true, [||])
  else
    let offenders =
      Paths.through_cell biased
      |> Array.to_list
      |> List.filter (fun path -> path.Paths.delay > budget)
      |> Array.of_list
    in
    (Array.length offenders = 0, offenders)

let signoff p ~levels =
  Fbb_obs.Span.with_ ~name:"refine.signoff" @@ fun () ->
  let nl = Placement.netlist p.Problem.design.placement in
  let beta = p.Problem.beta in
  let biased =
    Timing.analyze ~derate:(fun _ -> 1.0 +. beta) ~bias:(row_bias p levels) nl
  in
  offenders_of p biased

(* Sign-off through the solve loop's reused incremental context: only
   rows the solver moved since the previous iteration re-propagate. *)
let signoff_incr ctx p ~levels =
  Fbb_obs.Span.with_ ~name:"refine.signoff" @@ fun () ->
  let biased = Timing.Incremental.set_bias ctx (row_bias p levels) in
  offenders_of p biased

let solve ?(max_iterations = 10) ~solver p0 =
  Fbb_obs.Span.with_ ~name:"refine.solve" @@ fun () ->
  (* One context for the whole loop: [extend] keeps the design and beta,
     so the frozen derate stays valid across iterations. The design's
     delay cache spares a fresh table build here. *)
  let ctx =
    lazy
      (let beta = p0.Problem.beta in
       Timing.Incremental.create ~cache:p0.Problem.design.cache
         ~derate:(fun _ -> 1.0 +. beta)
         (Placement.netlist p0.Problem.design.placement))
  in
  let rec loop p iterations added last =
    Fbb_obs.Counter.incr iterations_c;
    match solver p with
    | None -> begin
      match last with
      | None -> None
      | Some levels ->
        (* A previous iteration succeeded but the extension made the
           problem unsolvable for this solver; report that last solution,
           honestly marked as failing signoff. *)
        Some
          {
            problem = p;
            levels;
            iterations;
            added_constraints = added;
            signoff_clean = false;
          }
    end
    | Some levels ->
      let clean, offenders = signoff_incr (Lazy.force ctx) p ~levels in
      if clean || iterations + 1 >= max_iterations then
        Some
          {
            problem = p;
            levels;
            iterations = iterations + 1;
            added_constraints = added;
            signoff_clean = clean;
          }
      else begin
        let p' = Problem.extend p offenders in
        if Problem.num_paths p' = Problem.num_paths p then
          (* Nothing new to add: the violation is below the extension
             threshold; stop honestly. *)
          Some
            {
              problem = p;
              levels;
              iterations = iterations + 1;
              added_constraints = added;
              signoff_clean = false;
            }
        else begin
          Fbb_obs.Counter.add constraints_added_c
            (Problem.num_paths p' - Problem.num_paths p);
          loop p'
            (iterations + 1)
            (added + Problem.num_paths p' - Problem.num_paths p)
            (Some levels)
        end
      end
  in
  loop p0 0 0 None

let heuristic ?max_clusters ?max_iterations p =
  solve ?max_iterations
    ~solver:(fun p ->
      Option.map
        (fun (r : Heuristic.result) -> r.Heuristic.levels)
        (Heuristic.optimize ?max_clusters p))
    p
