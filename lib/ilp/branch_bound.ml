module S = Fbb_lp.Simplex

(* Observability. Totals accumulate with or without a sink; [nodes] in
   the result stays authoritative for compatibility, and the counters
   mirror it (delta over a solve equals [result.nodes]). *)
let nodes_c = Fbb_obs.Counter.make "bb.nodes"
let pruned_c = Fbb_obs.Counter.make "bb.pruned"
let incumbents_c = Fbb_obs.Counter.make "bb.incumbents"
let lp_infeasible_c = Fbb_obs.Counter.make "bb.lp_infeasible"
let lp_pivot_limit_c = Fbb_obs.Counter.make "bb.lp_pivot_limit"
let waves_c = Fbb_obs.Counter.make "bb.waves"
let wave_faults_c = Fbb_obs.Counter.make "bb.wave_faults"

type problem = {
  num_vars : int;
  minimize : float array;
  constraints : S.constr list;
}

type limits = { max_nodes : int; max_seconds : float }

let default_limits = { max_nodes = 200_000; max_seconds = 60.0 }

type status = Proved_optimal | Feasible | Proved_infeasible | Limit_reached

type result = {
  status : status;
  best : (float array * float) option;
  nodes : int;
  elapsed_s : float;
}

let objective_of p x =
  let acc = ref 0.0 in
  Array.iteri (fun i c -> acc := !acc +. (c *. x.(i))) p.minimize;
  !acc

let int_eps = 1e-6

(* Build the LP over free variables only; fixed variables are substituted
   into the right-hand sides. [fixed.(i)] is -1 (free), 0 or 1. *)
let reduced_lp p fixed =
  let map = Array.make p.num_vars (-1) in
  let free = ref [] in
  let nfree = ref 0 in
  for i = 0 to p.num_vars - 1 do
    if fixed.(i) < 0 then begin
      map.(i) <- !nfree;
      free := i :: !free;
      incr nfree
    end
  done;
  let free = Array.of_list (List.rev !free) in
  let constraints =
    List.filter_map
      (fun (c : S.constr) ->
        let rhs = ref c.S.rhs in
        let terms =
          List.filter_map
            (fun (v, a) ->
              if fixed.(v) >= 0 then begin
                rhs := !rhs -. (a *. float_of_int fixed.(v));
                None
              end
              else Some (map.(v), a))
            c.S.terms
        in
        match terms with
        | [] ->
          (* Fully substituted: keep an infeasibility marker if violated. *)
          let violated =
            match c.S.relation with
            | S.Le -> 0.0 > !rhs +. 1e-9
            | S.Ge -> 0.0 < !rhs -. 1e-9
            | S.Eq -> Float.abs !rhs > 1e-9
          in
          if violated then
            Some { S.terms = [ (0, 0.0) ]; relation = c.S.relation; rhs = !rhs }
          else None
        | _ -> Some { S.terms; relation = c.S.relation; rhs = !rhs })
      p.constraints
  in
  let minimize = Array.map (fun i -> p.minimize.(i)) free in
  let fixed_cost = ref 0.0 in
  for i = 0 to p.num_vars - 1 do
    if fixed.(i) = 1 then fixed_cost := !fixed_cost +. p.minimize.(i)
  done;
  ( {
      S.num_vars = Array.length free;
      minimize;
      constraints;
      upper = Some (Array.make (Array.length free) 1.0);
    },
    free,
    !fixed_cost )

let feasible p x =
  S.check
    { S.num_vars = p.num_vars; minimize = p.minimize; constraints = p.constraints; upper = Some (Array.make p.num_vars 1.0) }
    x ~eps:1e-6

(* Subproblem awaiting exploration. [lower] is the parent's LP bound -
   a valid lower bound on anything beneath this node, used to discard
   it without an LP solve once the incumbent has moved past it. *)
type node = { fixed : int array; lower : float }

(* What exploring one node produced. Computed in parallel on the pool;
   pure in the shared search state, so a wave's outcomes depend only on
   (problem, node, threshold) and never on scheduling. *)
type outcome =
  | Pre_pruned
  | Bound_pruned
  | Lp_infeasible
  | Lp_pivot_limit
  | Wave_fault  (* a pool worker crashed; the wave's outcomes are lost *)
  | Integral of float array * float
  | Branched of node * node

(* The threshold a wave prunes against: anything whose lower bound
   cannot beat it (within 1e-9) is abandoned. It folds together the
   incumbent and the caller's cutoff, and is frozen at the start of a
   wave so every node of the wave - wherever it runs - prunes against
   the same value. That freeze is what makes the parallel search
   deterministic: incumbents found mid-wave only tighten the *next*
   wave, identically at any job count, instead of racing into sibling
   subtrees at scheduler-dependent moments. *)
let explore p threshold node =
  if node.lower >= threshold -. 1e-9 then Pre_pruned
  else begin
    let lp, free, fixed_cost = reduced_lp p node.fixed in
    match Fbb_obs.Span.with_ ~name:"bb.lp_bound" (fun () -> S.solve lp) with
    | S.Infeasible | S.Unbounded -> Lp_infeasible
    (* No budget is passed into these parallel LP solves (a shared
       budget ticked from the pool would trip at scheduler-dependent
       points), so [Budget_exhausted] cannot occur here; treat it like
       a pivot limit - the subtree lost its bound - if it ever does. *)
    | S.Pivot_limit | S.Budget_exhausted -> Lp_pivot_limit
    | S.Optimal { objective; solution } ->
      let total = objective +. fixed_cost in
      if total >= threshold -. 1e-9 then Bound_pruned
      else begin
        (* Most fractional free variable. *)
        let frac = ref (-1) in
        let dist = ref 0.0 in
        Array.iteri
          (fun k _ ->
            let v = solution.(k) in
            let d = Float.min (Float.abs v) (Float.abs (1.0 -. v)) in
            if d > int_eps && d > !dist then begin
              dist := d;
              frac := k
            end)
          free;
        if !frac < 0 then begin
          (* Integral: candidate incumbent. *)
          let x = Array.make p.num_vars 0.0 in
          for i = 0 to p.num_vars - 1 do
            if node.fixed.(i) >= 0 then x.(i) <- float_of_int node.fixed.(i)
          done;
          Array.iteri (fun k i -> x.(i) <- Float.round solution.(k)) free;
          Integral (x, objective_of p x)
        end
        else begin
          let var = free.(!frac) in
          let first = if solution.(!frac) >= 0.5 then 1 else 0 in
          let child v =
            let fixed = Array.copy node.fixed in
            fixed.(var) <- v;
            { fixed; lower = total }
          in
          Branched (child first, child (1 - first))
        end
      end
  end

let rec take_batch n frontier =
  if n = 0 then ([], frontier)
  else
    match frontier with
    | [] -> ([], [])
    | node :: rest ->
      let batch, remaining = take_batch (n - 1) rest in
      (node :: batch, remaining)

(* Nodes explored per synchronization wave. Fixed (never derived from
   the job count) so the wave structure, and therefore the entire
   search, is identical at any parallelism level. *)
let wave_width = 32

let solve ?(limits = default_limits) ?(budget = Fbb_util.Budget.unlimited)
    ?incumbent ?cutoff p =
  Fbb_obs.Span.with_ ~name:"bb.solve" @@ fun () ->
  let start = Fbb_obs.Clock.now_s () in
  let best = ref None in
  (match incumbent with
  | Some x ->
    if not (feasible p x) then
      invalid_arg "Branch_bound.solve: infeasible incumbent";
    best := Some (Array.copy x, objective_of p x)
  | None -> ());
  let nodes = ref 0 in
  let hit_limit = ref false in
  let threshold () =
    let b = match !best with Some (_, b) -> b | None -> Float.infinity in
    match cutoff with Some c -> Float.min b c | None -> b
  in
  let root = { fixed = Array.make p.num_vars (-1); lower = Float.neg_infinity } in
  let frontier = ref [ root ] in
  let running = ref true in
  while !running && !frontier <> [] do
    if
      !nodes >= limits.max_nodes
      || Fbb_obs.Clock.now_s () -. start > limits.max_seconds
      || Fbb_util.Budget.exhausted budget
    then begin
      hit_limit := true;
      running := false
    end
    else begin
      Fbb_obs.Counter.incr waves_c;
      let width = min wave_width (limits.max_nodes - !nodes) in
      let batch, rest = take_batch width !frontier in
      let t = threshold () in
      let batch = Array.of_list batch in
      let outcomes =
        match Fbb_par.Pool.parallel_map ~chunk:1 batch ~f:(explore p t) with
        | outcomes -> outcomes
        | exception Fbb_par.Pool.Worker_error _ ->
          Fbb_obs.Counter.incr wave_faults_c;
          Array.map (fun _ -> Wave_fault) batch
      in
      let batch_n = Array.length outcomes in
      (* Budget is ticked here, in the sequential wave fold - one unit
         per node expanded - never from inside the parallel LP solves,
         so the wave at which a work budget trips is a pure function of
         the search, identical at any job count. *)
      if not (Fbb_util.Budget.tick ~cost:batch_n budget) then
        hit_limit := true;
      nodes := !nodes + batch_n;
      Fbb_obs.Counter.add nodes_c batch_n;
      (* Fold the wave sequentially in node order: incumbent updates and
         child ordering are then functions of the outcomes alone. *)
      let children = ref [] in
      Array.iter
        (fun outcome ->
          match outcome with
          | Pre_pruned | Bound_pruned -> Fbb_obs.Counter.incr pruned_c
          | Lp_infeasible -> Fbb_obs.Counter.incr lp_infeasible_c
          | Lp_pivot_limit ->
            (* The LP could not bound this subtree; abandoning it without
               a proof forfeits optimality, exactly like a node/time
               budget. *)
            Fbb_obs.Counter.incr lp_pivot_limit_c;
            hit_limit := true
          | Wave_fault ->
            (* Same forfeit: the incumbent and the rest of the frontier
               survive, only the proof is lost. *)
            hit_limit := true
          | Integral (x, obj) -> begin
            match !best with
            | Some (_, b) when obj >= b -. 1e-12 -> ()
            | Some _ | None ->
              Fbb_obs.Counter.incr incumbents_c;
              best := Some (x, obj)
          end
          | Branched (a, b) -> children := b :: a :: !children)
        outcomes;
      (* Children go to the front (depth-first flavour keeps the frontier
         small); [children] is reversed, restoring node order. *)
      frontier := List.rev_append !children rest
    end
  done;
  if !frontier <> [] then hit_limit := true;
  let elapsed_s = Fbb_obs.Clock.now_s () -. start in
  let status =
    match (!best, !hit_limit) with
    | Some _, false -> Proved_optimal
    | Some _, true -> Feasible
    | None, false -> Proved_infeasible
    | None, true -> Limit_reached
  in
  { status; best = !best; nodes = !nodes; elapsed_s }
