(* Per-layer numbers from one traced pass: deterministic work counters
   and inclusive busy time per span name, whether they come from the
   benchmark's own process ({!Fbb_obs.Counter} deltas and an
   {!Fbb_obs.Aggregate} sink) or from a daemon's /snapshot.json. *)

type source = {
  counter : string -> float;  (** counter delta over the pass *)
  busy_s : string -> float;
      (** inclusive seconds inside spans of that name; spans that run on
          pool workers in parallel ([bb.lp_bound]) may sum to more than
          the wall time *)
}

let ratio a b = if b > 0.0 then a /. b else 0.0
let pct a b = 100.0 *. ratio a b

(* Metrics of the layers below the serving plane, in Spec.per_layer
   names. *)
let common { counter = c; busy_s = b } =
  [
    ("cascade.solve.busy_s", b "cascade.solve");
    ("ilp.subsets_considered", c "ilp.subsets_considered");
    ( "ilp.prune_pct",
      pct (c "ilp.subsets_pruned") (c "ilp.subsets_considered") );
    ("ilp.enumerate.busy_s", b "ilp.enumerate");
    ("bb.nodes", c "bb.nodes");
    ("bb.waves", c "bb.waves");
    ("bb.nodes_per_wave", ratio (c "bb.nodes") (c "bb.waves"));
    ("bb.pruned_pct", pct (c "bb.pruned") (c "bb.nodes"));
    ("bb.solve.busy_s", b "bb.solve");
    ("lp.solves", c "lp.solves");
    ("lp.pivots", c "lp.pivots");
    ("lp.phase1_pct", pct (c "lp.phase1_pivots") (c "lp.pivots"));
    ("lp.bound.busy_s", b "bb.lp_bound");
    ("lp.us_per_pivot", 1e6 *. ratio (b "bb.lp_bound") (c "lp.pivots"));
    ("refine.iterations", c "refine.iterations");
    ("refine.constraints_added", c "refine.constraints_added");
    ("refine.busy_s", b "refine.solve");
    ("heuristic.moves", c "heuristic.moves");
    ("sta.analyses", c "sta.analyses");
    ("sta.incr_updates", c "sta.incr_updates");
    ( "sta.nodes_per_update",
      ratio (c "sta.nodes_repropagated") (c "sta.incr_updates") );
    ("sta.cache_hits", c "sta.cache_hits");
    ("sta.paths_extracted", c "sta.paths_extracted");
    ("sta.incr_update.busy_s", b "sta.incr_update");
    ("sta.paths.busy_s", b "sta.paths");
    ("mc.samples", c "mc.samples");
    ("tuning.compensations", c "tuning.compensations");
    ("tuning.compensate.busy_s", b "tuning.compensate");
    ("pool.tasks", c "par.tasks");
    ("pool.tasks_per_batch", ratio (c "par.tasks") (c "par.batches"));
  ]

(* Every declared per-layer metric, in declaration order; the ones a
   workload cannot observe read 0. [measured] pairs a value with its
   sample count. *)
let complete (measured : (string * Record.value) list) =
  List.iter
    (fun (name, _) ->
      let declared (m : Spec.metric) = m.name = name in
      if not (List.exists declared Spec.per_layer) then
        invalid_arg ("Layers.complete: undeclared metric " ^ name))
    measured;
  List.map
    (fun (m : Spec.metric) ->
      ( m.name,
        match List.assoc_opt m.name measured with
        | Some v -> v
        | None -> { Record.value = 0.0; n = 0 } ))
    Spec.per_layer

(* One-sample values: counters and busy times of the whole pass. *)
let of_list l = List.map (fun (k, v) -> (k, { Record.value = v; n = 1 })) l

let overhead_pct ~untraced ~traced =
  100.0 *. ratio (traced -. untraced) untraced
