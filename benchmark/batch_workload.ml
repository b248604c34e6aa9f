(* table1-prove and mc-tune-10k: the public layer entry points called
   in-process at jobs 2, one measured unit of work at a time (a Table-1
   cell, a Monte-Carlo chunk). Every pass does the same units and the
   seed sets their order; every unit's result is checked against a
   reference recorded at calibration, so any seed is verifiable.

   Each call into a layer runs inside a bench-side {!Fbb_obs.Span}
   ([bench.place], [bench.evaluate], [bench.mc]); with no sink installed
   that costs one atomic load, and the traced pass reads the spans back
   from its aggregate sink. *)

module J = Fbb_util.Json
module Flow = Fbb_core.Flow
module Counter = Fbb_obs.Counter
module Aggregate = Fbb_obs.Aggregate

let now = Fbb_obs.Clock.now_s
let span name f = Fbb_obs.Span.with_ ~name f

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

type unit_run = {
  label : string;
  seconds : float;
  work : int;  (** proofs or dies the unit delivers *)
  error : string option Lazy.t;
      (** verification, forced after timing and outside any trace *)
}

type pass = {
  setups_s : float list;
  passes : int;  (** passes over the units *)
  units : unit_run list;
  counters : (string * int) list;
      (** counter deltas over the units; counters accumulate whether or
          not a sink is installed, so untraced passes have them too *)
}

(* How many passes over the units: as many as fit [seconds] (another
   starts only while the one before it would still end in time; the
   first always runs), or exactly [n]. *)
type passes = For_seconds of int | Exactly of int

(* Run [setup] [k] times, keeping the last result. *)
let repeat_setup k setup =
  let rec go k acc =
    let r, dt = timed setup in
    if k <= 1 then (r, List.rev (dt :: acc)) else go (k - 1) (dt :: acc)
  in
  go k []

(* Run passes over units [0 .. n-1] after the set-ups, each pass in its
   own seeded order. *)
let run_units ~seed ~passes setups_s run n =
  let rng = Fbb_util.Rng.create ~seed in
  let t_start = now () in
  let more ~done_ ~last_s =
    match passes with
    | Exactly k -> done_ < k
    | For_seconds s ->
      done_ = 0 || now () +. last_s -. t_start <= float_of_int s
  in
  let c0 = Counter.totals () in
  let rec go done_ last_s acc =
    if not (more ~done_ ~last_s) then (done_, List.concat (List.rev acc))
    else begin
      let order = Array.init n Fun.id in
      Fbb_util.Rng.shuffle rng order;
      let units, dt = timed (fun () -> List.map run (Array.to_list order)) in
      go (done_ + 1) dt (units :: acc)
    end
  in
  let passes, units = go 0 0.0 [] in
  let delta (k, v) =
    match v - Option.value ~default:0 (List.assoc_opt k c0) with
    | 0 -> None
    | d -> Some (k, d)
  in
  {
    setups_s;
    passes;
    units;
    counters = List.filter_map delta (Counter.totals ());
  }

(* ----- table1-prove ----------------------------------------------------- *)

let designs =
  List.sort_uniq String.compare
    (Array.to_list (Array.map (fun (c : Spec.cell) -> c.design) Spec.cells))

let prove_pass ~workload ~seed ~passes ~setups =
  let prepare d =
    span "bench.place" (fun () -> Flow.prepare (Fbb_netlist.Benchmarks.find d))
  in
  let prepared, setups_s =
    repeat_setup setups (fun () -> List.map (fun d -> (d, prepare d)) designs)
  in
  let evaluate i =
    let cell = Spec.cells.(i) in
    let prep = List.assoc cell.design prepared in
    let ev, seconds =
      timed (fun () ->
          span "bench.evaluate" (fun () ->
              Flow.evaluate ~cs:[ cell.c ] ~ilp_limits:Spec.ilp_limits prep
                ~beta:cell.cell_beta))
    in
    {
      label = Verify.cell_name cell;
      seconds;
      work = 1;
      error = lazy (Verify.prove_cell ~workload cell prep ev);
    }
  in
  run_units ~seed ~passes setups_s evaluate (Array.length Spec.cells)

(* ----- mc-tune-10k ------------------------------------------------------ *)

let mc_pass ~workload ~seed ~passes ~setups =
  let placement, setups_s =
    repeat_setup setups (fun () ->
        let nl =
          Fbb_netlist.Generators.random_module ~seed:Spec.mc_netlist_seed
            ~gates:Spec.mc_gates ()
        in
        span "bench.place" (fun () -> Fbb_place.Placement.place nl))
  in
  let chunk i =
    let c = Spec.mc_chunks.(i) in
    let r, seconds =
      timed (fun () ->
          span "bench.mc" (fun () ->
              Fbb_variation.Montecarlo.run ~seed:c.chunk_seed
                ~samples:Spec.mc_chunk_dies ~sigma:Spec.mc_sigma placement))
    in
    {
      label = Printf.sprintf "chunk %d" c.chunk_seed;
      seconds;
      work = Spec.mc_chunk_dies;
      error = lazy (Verify.mc_chunk ~workload c r);
    }
  in
  run_units ~seed ~passes setups_s chunk (Array.length Spec.mc_chunks)

(* ----- metrics ---------------------------------------------------------- *)

let total_s p = List.fold_left (fun acc u -> acc +. u.seconds) 0.0 p.units
let verified u = Lazy.force u.error = None

(* Each distinct unit with its runs, in first-run order. *)
let by_unit p =
  List.fold_left
    (fun acc u ->
      match List.assoc_opt u.label acc with
      | Some runs -> (u.label, runs @ [ u ]) :: List.remove_assoc u.label acc
      | None -> (u.label, [ u ]) :: acc)
    [] p.units
  |> List.rev

(* A unit's time is its median over the passes, so a burst of contention
   on the host that slows one run of a unit does not move the result. *)
let median_s runs =
  Pctl.median (Array.of_list (List.map (fun u -> u.seconds) runs))

(* Sum of the per-unit median times: one pass over every unit at median
   speed (for table1-prove, the time to prove all eight cells). *)
let units_s p =
  List.fold_left (fun acc (_, runs) -> acc +. median_s runs) 0.0 (by_unit p)

(* The percentiles are over the units' median times, and [solved_pct]
   is the share of unit runs that verified. *)
let end_to_end p ~rss_mb =
  let v value n = { Record.value; n } in
  let units = by_unit p in
  let ms =
    Array.of_list (List.map (fun (_, r) -> 1000.0 *. median_s r) units)
  in
  let setup_s = Array.of_list p.setups_s in
  let n = Array.length ms in
  let runs = List.length p.units in
  let work =
    List.fold_left (fun acc (_, r) -> acc + (List.hd r).work) 0 units
  in
  [
    ("setup_s", v (Pctl.median setup_s) (Array.length setup_s));
    ("rss_peak_mb", v rss_mb 1);
    ("p50_ms.low", v (Pctl.median ms) n);
    ("p90_ms.low", v (Pctl.p90 ms) n);
    ( "solved_pct",
      v
        (100.0 *. float_of_int (List.length (List.filter verified p.units))
        /. float_of_int runs)
        runs );
    ("goodput_per_s", v (float_of_int work /. units_s p) n);
  ]

let detail p =
  let unit (label, runs) =
    J.Obj
      [
        ("unit", J.Str label);
        ("median_s", J.Num (median_s runs));
        ("seconds", J.Arr (List.map (fun u -> J.Num u.seconds) runs));
        ("verified", J.Bool (List.for_all verified runs));
      ]
  in
  [
    ("passes", J.Num (float_of_int p.passes));
    ("total_s", J.Num (total_s p));
    ("median_pass_s", J.Num (units_s p));
    ("units", J.Arr (List.map unit (by_unit p)));
    ( "counters",
      J.Obj (List.map (fun (k, n) -> (k, J.Num (float_of_int n))) p.counters)
    );
  ]

(* Every span the aggregate sink saw, with inclusive times: spans on
   pool workers run in parallel, so self time is not defined for them. *)
let spans_json agg =
  J.Arr
    (List.map
       (fun (name, count, total_s, _, max_s) ->
         J.Obj
           [
             ("name", J.Str name);
             ("count", J.Num (float_of_int count));
             ("inclusive_s", J.Num total_s);
             ("max_s", J.Num max_s);
           ])
       (Aggregate.span_rows agg))

(* Run the pass [f] with the Aggregate sink installed and return its
   per-layer numbers — counter deltas, span busy time, pool and GC
   activity — and its spans. *)
let traced f =
  let agg = Aggregate.create () in
  let u0 = Fbb_par.Pool.utilization () in
  let g0 = Gc.quick_stat () in
  let r, wall =
    Fbb_obs.Sink.with_installed (Aggregate.sink agg) (fun () -> timed f)
  in
  let u1 = Fbb_par.Pool.utilization () in
  let g1 = Gc.quick_stat () in
  let src =
    {
      Layers.counter =
        (fun name ->
          float_of_int
            (Option.value ~default:0 (List.assoc_opt name r.counters)));
      busy_s =
        (fun name -> Option.value ~default:0.0 (Aggregate.span_total agg name));
    }
  in
  (* Busy and idle seconds of one pool slot over the pass. *)
  let slot label =
    let find u =
      List.find_map
        (fun (l, busy, idle, _) ->
          if l = label then Some (busy, idle) else None)
        u
      |> Option.value ~default:(0.0, 0.0)
    in
    let b0, i0 = find u0 and b1, i1 = find u1 in
    (b1 -. b0, i1 -. i0)
  in
  let w0_busy, w0_idle = slot "w0" in
  let caller_busy, _ = slot "caller" in
  ( r,
    [
      ("place.busy_s", src.busy_s "bench.place");
      ("pool.busy_pct.w0", Layers.pct w0_busy (w0_busy +. w0_idle));
      ("pool.busy_pct.caller", Layers.pct caller_busy wall);
      ("gc.minor_words", g1.Gc.minor_words -. g0.Gc.minor_words);
      ( "gc.major_collections",
        float_of_int (g1.major_collections - g0.major_collections) );
      ("gc.top_heap_words", float_of_int g1.top_heap_words);
    ]
    @ Layers.common src,
    spans_json agg )

(* ----- one workload run ------------------------------------------------- *)

let run ~workload ~seed ~seconds ~trace =
  let pass =
    match List.assoc workload Spec.workloads with
    | Spec.Prove -> prove_pass
    | Spec.Mc_tune -> mc_pass
    | Spec.Serve _ -> invalid_arg "Batch_workload.run: serving workload"
  in
  let untraced =
    pass ~workload ~seed ~passes:(For_seconds seconds) ~setups:Spec.setups
  in
  (* Read before verification runs, which builds problems of its own. *)
  let rss_mb = Daemon.vm_hwm_mb 0 in
  let errors p = List.filter_map (fun u -> Lazy.force u.error) p.units in
  let base =
    {
      Record.workload;
      seed;
      seconds;
      traced = trace;
      attempted = List.length untraced.units;
      failed = List.length (errors untraced);
      errors = errors untraced;
      end_to_end = end_to_end untraced ~rss_mb;
      per_layer = [];
      detail = detail untraced;
      spans = J.Null;
    }
  in
  if not trace then base
  else begin
    (* The same passes as the untraced run, so the work counters must
       repeat. *)
    let tp, layers, spans =
      traced (fun () ->
          pass ~workload ~seed ~passes:(Exactly untraced.passes) ~setups:1)
    in
    let overhead =
      Layers.overhead_pct ~untraced:(units_s untraced) ~traced:(units_s tp)
    in
    {
      base with
      attempted = base.attempted + List.length tp.units;
      failed = base.failed + List.length (errors tp);
      errors = base.errors @ errors tp;
      per_layer =
        Layers.complete
          (Layers.of_list
             (layers @ [ ("obs.tracing_overhead_pct", overhead) ]));
      detail =
        base.detail
        @ [
            ("traced", J.Obj (detail tp));
            (* Work counters must not depend on tracing or timing. *)
            ("counters_repeat", J.Bool (tp.counters = untraced.counters));
          ];
      spans;
    }
  end
