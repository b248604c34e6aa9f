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

(* Sign-off through the solve loop's one incremental context. The first
   iteration builds it at its own bias, so a loop that signs off at once
   costs one propagation; later iterations re-propagate only the rows the
   solver moved. [extend] keeps the design and beta, so the frozen derate
   stays valid across iterations, and the design's delay cache spares a
   fresh table build. *)
let signoff_incr ctx p ~levels =
  Fbb_obs.Span.with_ ~name:"refine.signoff" @@ fun () ->
  let bias = row_bias p levels in
  let biased =
    match !ctx with
    | Some c -> Timing.Incremental.set_bias c bias
    | None ->
      let beta = p.Problem.beta in
      let c =
        Timing.Incremental.create ~cache:p.Problem.design.cache
          ~derate:(fun _ -> 1.0 +. beta)
          ~bias
          (Placement.netlist p.Problem.design.placement)
      in
      ctx := Some c;
      Timing.Incremental.analysis c
  in
  offenders_of p biased

let solve ?(max_iterations = 10) ~solver ~levels_of p0 =
  Fbb_obs.Span.with_ ~name:"refine.solve" @@ fun () ->
  let ctx = ref None in
  let rec loop p iterations added last =
    Fbb_obs.Counter.incr iterations_c;
    let r = solver p in
    let stop levels iterations signoff_clean =
      ( r,
        Some
          {
            problem = p;
            levels;
            iterations;
            added_constraints = added;
            signoff_clean;
          } )
    in
    match levels_of r with
    | None -> (
      match last with
      | None -> (r, None)
      | Some levels ->
        (* A previous iteration succeeded but the extension made the
           problem unsolvable for this solver; report that last solution,
           honestly marked as failing signoff. *)
        stop levels iterations false)
    | Some levels ->
      let clean, offenders = signoff_incr ctx p ~levels in
      if clean || iterations + 1 >= max_iterations then
        stop levels (iterations + 1) clean
      else begin
        let p' = Problem.extend p offenders in
        let fresh = Problem.num_paths p' - Problem.num_paths p in
        if fresh = 0 then
          (* Nothing new to add: the violation is below the extension
             threshold; stop honestly. *)
          stop levels (iterations + 1) false
        else begin
          Fbb_obs.Counter.add constraints_added_c fresh;
          loop p' (iterations + 1) (added + fresh) (Some levels)
        end
      end
  in
  loop p0 0 0 None

let heuristic ?max_clusters ?max_iterations p =
  snd
    (solve ?max_iterations
       ~solver:(fun q -> Heuristic.optimize ?max_clusters q)
       ~levels_of:
         (Option.map (fun (r : Heuristic.result) -> r.Heuristic.levels))
       p)
