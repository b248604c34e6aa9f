module Timing = Fbb_sta.Timing
module P = Fbb_place.Placement
module N = Fbb_netlist.Netlist

type strategy_stats = {
  yield_pct : float;
  mean_leakage_nw : float;
  p95_leakage_nw : float;
}

type t = {
  samples : int;
  no_tuning : strategy_stats;
  single_bb : strategy_stats;
  clustered : strategy_stats;
  mean_measured_slowdown_pct : float;
  complete : bool;
}

let samples_c = Fbb_obs.Counter.make "mc.samples"
let shipped_c = Fbb_obs.Counter.make "mc.shipped_clustered"

let stats_of shipped total =
  match shipped with
  | [] -> { yield_pct = 0.0; mean_leakage_nw = 0.0; p95_leakage_nw = 0.0 }
  | leaks ->
    let a = Array.of_list leaks in
    {
      yield_pct = 100.0 *. float_of_int (Array.length a) /. float_of_int total;
      mean_leakage_nw = Fbb_util.Stats.mean a;
      p95_leakage_nw = Fbb_util.Stats.percentile a 95.0;
    }

(* One fabricated die. Pure given its own RNG stream, so dies can be
   evaluated in any order on the pool. *)
type die = {
  slowdown : float;
  ship_as_is : float option;  (* leakage if the strategy ships the die *)
  ship_single : float option;
  ship_clustered : float option;
}

let run ?(seed = 2009) ?(samples = 50) ?(sigma = 0.05) ?(max_clusters = 2)
    ?(guardband = 0.15) ?(budget = Fbb_util.Budget.unlimited) placement =
  Fbb_obs.Span.with_ ~name:"mc.run" @@ fun () ->
  let nl = P.netlist placement in
  let rng = Fbb_util.Rng.create ~seed in
  (* Shared per-run state, all immutable and safe across pool domains:
     the prepared design every die poses its problems on, and the NBB
     leakage every die would otherwise recompute. *)
  let design = Fbb_core.Problem.prepare placement in
  let cache = design.cache and nominal = design.analysis in
  let timing_budget = Timing.dcrit nominal +. 1e-6 in
  let leakage ~bias = Fbb_sta.Delay_cache.design_leakage cache ~bias in
  let nbb_leakage = leakage ~bias:(fun _ -> 0.0) in
  (* Seed-splitting: die [i]'s generator is the [i]-th split of the run
     seed, derived sequentially up front. Each die then draws only from
     its own stream, so the sampled corners are a function of
     [(seed, i)] alone - identical at any job count, and identical to
     what the historical sequential loop (which split once per
     iteration) produced. *)
  let die_rngs = Array.init samples (fun _ -> Fbb_util.Rng.split rng) in
  let sample die_rng =
    Fbb_obs.Counter.incr samples_c;
    let corner = Models.die_to_die die_rng ~sigma:(sigma /. 2.0) in
    let within = Models.spatially_correlated die_rng ~sigma placement in
    let derate g = corner *. within g in
    (* One incremental context per die (contexts are single-domain;
       this one lives and dies on whichever pool worker runs the die):
       base analysis is the degraded-at-NBB timing, and both the
       single-level search and the clustered closed loop drive its bias
       instead of re-analyzing from scratch. *)
    let ctx = Timing.Incremental.create ~cache ~derate nl in
    let degraded = Timing.Incremental.analysis ctx in
    let reading = Sensor.in_situ_monitors ~nominal ~degraded in
    let dcrit_degraded = Timing.dcrit degraded in
    (* Strategy 1: ship as fabricated. *)
    let ship_as_is =
      if dcrit_degraded <= timing_budget then Some nbb_leakage else None
    in
    (* Strategy 2: one die-wide voltage. Uses the same sensing, guardband
       and PassOne selection the clustered loop gets (an exact
       signoff-search baseline would smuggle in information no real tuning
       controller has); the level is bumped until signoff closes. *)
    let measured =
      Float.max 0.0 (reading.Sensor.slowdown *. (1.0 +. guardband))
    in
    let jopt =
      if measured <= 0.0 then Some 0
      else
        Fbb_core.Problem.max_single_level
          (Fbb_core.Problem.pose ~beta:measured design)
    in
    let ship_single =
      Option.bind jopt (fun j0 ->
          let rec close j =
            if j >= Fbb_tech.Bias.count then None
            else begin
              let v = Fbb_tech.Bias.voltage j in
              if
                Timing.dcrit (Timing.Incremental.set_uniform ctx v)
                <= timing_budget
              then Some (leakage ~bias:(fun _ -> v))
              else close (j + 1)
            end
          in
          close j0)
    in
    (* Strategy 3: the clustering optimizer in its closed loop. *)
    let o =
      Tuning.compensate ~max_clusters ~guardband ~ctx design ~derate
    in
    let ship_clustered =
      if o.Tuning.timing_closed then begin
        Fbb_obs.Counter.incr shipped_c;
        Some o.Tuning.leakage_nw
      end
      else None
    in
    { slowdown = reading.Sensor.slowdown; ship_as_is; ship_single;
      ship_clustered }
  in
  (* One die per task: dies are expensive (three STA runs plus the
     optimizer) and [samples] is small. Results come back positionally,
     so every downstream list and sum is in die order regardless of
     which domain evaluated what.

     Dies go through the pool in fixed batches of [batch_size], with
     one budget tick per batch between the (sequential) batch launches:
     a truncated run evaluates exactly the first [k * batch_size] dies
     - a prefix of the full run's die sequence, since the RNG streams
     were split up front - so its statistics are a deterministic
     function of the budget, not of scheduling. *)
  let batch_size = 8 in
  let batches = ref [] in
  let processed = ref 0 in
  let complete = ref true in
  while !complete && !processed < samples do
    if not (Fbb_util.Budget.tick budget) then complete := false
    else begin
      let n = min batch_size (samples - !processed) in
      let batch = Array.sub die_rngs !processed n in
      batches := Fbb_par.Pool.parallel_map ~chunk:1 batch ~f:sample :: !batches;
      processed := !processed + n
    end
  done;
  let dies = Array.concat (List.rev !batches) in
  let evaluated = Array.length dies in
  let shipped select =
    Array.fold_left
      (fun acc d -> match select d with Some leak -> leak :: acc | None -> acc)
      [] dies
  in
  let slowdowns = Array.map (fun d -> d.slowdown) dies in
  {
    samples = evaluated;
    no_tuning = stats_of (shipped (fun d -> d.ship_as_is)) evaluated;
    single_bb = stats_of (shipped (fun d -> d.ship_single)) evaluated;
    clustered = stats_of (shipped (fun d -> d.ship_clustered)) evaluated;
    mean_measured_slowdown_pct =
      100.0
      *. Fbb_util.Stats.mean
           (Array.of_list (Array.fold_left (fun acc s -> s :: acc) [] slowdowns));
    complete = !complete;
  }
