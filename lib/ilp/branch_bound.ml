module D = Fbb_lp.Dual_simplex

(* Observability. Totals accumulate with or without a sink; [nodes] in
   the result stays authoritative for compatibility, and the counters
   mirror it (delta over a solve equals [result.nodes]). *)
let nodes_c = Fbb_obs.Counter.make "bb.nodes"
let pruned_c = Fbb_obs.Counter.make "bb.pruned"
let incumbents_c = Fbb_obs.Counter.make "bb.incumbents"
let lp_infeasible_c = Fbb_obs.Counter.make "bb.lp_infeasible"
let lp_unproven_c = Fbb_obs.Counter.make "bb.lp_pivot_limit"
let waves_c = Fbb_obs.Counter.make "bb.waves"
let wave_faults_c = Fbb_obs.Counter.make "bb.wave_faults"

type problem = {
  num_vars : int;
  minimize : float array;
  rows : D.rows;
}

type limits = { max_nodes : int; max_seconds : float }

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

let feasible p x =
  Array.for_all (fun v -> v >= -1e-6 && v <= 1.0 +. 1e-6) x
  && D.satisfies p.rows x ~eps:1e-6

(* Subproblem awaiting exploration: its branch fixings, newest first,
   and [lower], the parent's certified LP bound - a valid lower bound on
   anything beneath this node, used to discard it without an LP solve
   once the incumbent has moved past it. *)
type node = { fixes : (int * float) list; lower : float }

(* What exploring one node produced. Computed in parallel on the pool;
   pure in the shared search state, so a wave's outcomes depend only on
   (problem, node, threshold) and never on scheduling. *)
type outcome =
  | Pre_pruned
  | Bound_pruned
  | Lp_infeasible
  | Lp_unproven  (* pivot limit, deadline or an unchecked certificate *)
  | Wave_fault  (* a pool worker crashed; the wave's outcomes are lost *)
  | Integral of float array * float
  | Branched of node * node

(* Each domain re-solves its nodes in one reusable state; a node's solve
   runs start to finish without yielding, so nothing else on the domain
   can touch it meanwhile. *)
let workspace = Domain.DLS.new_key (fun () -> D.workspace ())

(* The threshold a wave prunes against: anything whose lower bound
   cannot beat it (within 1e-9) is abandoned. It folds together the
   incumbent and the caller's cutoff, and is frozen at the start of a
   wave so every node of the wave - wherever it runs - prunes against
   the same value. That freeze is what makes the parallel search
   deterministic: incumbents found mid-wave only tighten the *next*
   wave, identically at any job count, instead of racing into sibling
   subtrees at scheduler-dependent moments.

   The root node solves [root] in place; it is alone in the first wave,
   and every later node is its descendant, re-solved from a copy of the
   solved root with its fixings applied as bounds. *)
let explore p root budget threshold node =
  if node.lower >= threshold -. 1e-9 then Pre_pruned
  else begin
    let lp =
      if node.fixes = [] then root
      else begin
        let w = Domain.DLS.get workspace in
        D.load w ~from:root;
        List.iter (fun (j, v) -> D.fix w j v) (List.rev node.fixes);
        w
      end
    in
    match Fbb_obs.Span.with_ ~name:"bb.lp_bound" (fun () -> D.solve ~budget lp) with
    | D.Infeasible -> Lp_infeasible
    | D.Uncertified | D.Pivot_limit | D.Budget_exhausted -> Lp_unproven
    | D.Optimal bound ->
      if bound >= threshold -. 1e-9 then Bound_pruned
      else begin
        (* Most fractional free variable. *)
        let frac = ref (-1) and dist = ref 0.0 and frac_v = ref 0.0 in
        for j = 0 to p.num_vars - 1 do
          (* A fixed column sits on its 0/1 value, so it never counts. *)
          let v = D.value lp j in
          let d = Float.min (Float.abs v) (Float.abs (1.0 -. v)) in
          if d > int_eps && d > !dist then begin
            dist := d;
            frac := j;
            frac_v := v
          end
        done;
        if !frac < 0 then begin
          (* Integral: candidate incumbent. *)
          let x = Array.init p.num_vars (fun j -> Float.round (D.value lp j)) in
          Integral (x, objective_of p x)
        end
        else begin
          let first = if !frac_v >= 0.5 then 1.0 else 0.0 in
          let child v = { fixes = (!frac, v) :: node.fixes; lower = bound } in
          Branched (child first, child (1.0 -. first))
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

let solve ?(budget = Fbb_util.Budget.unlimited) ?incumbent ?cutoff p =
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
  let root =
    D.create ~cost:p.minimize ~lo:(Array.make p.num_vars 0.0)
      ~hi:(Array.make p.num_vars 1.0) p.rows
  in
  let frontier = ref [ { fixes = []; lower = Float.neg_infinity } ] in
  let running = ref true in
  while !running && !frontier <> [] do
    (* A wave is at most the remaining work wide, so a work budget
       stops the search at an exact node count. *)
    let width =
      match Fbb_util.Budget.remaining_work budget with
      | Some w -> min wave_width w
      | None -> wave_width
    in
    if width = 0 || Fbb_util.Budget.exhausted budget then begin
      hit_limit := true;
      running := false
    end
    else begin
      Fbb_obs.Counter.incr waves_c;
      let batch, rest = take_batch width !frontier in
      let t = threshold () in
      let batch = Array.of_list batch in
      let outcomes =
        match Fbb_par.Pool.parallel_map ~chunk:1 batch ~f:(explore p root budget t) with
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
          | Lp_unproven ->
            (* The LP could not bound this subtree; abandoning it without
               a proof forfeits optimality, exactly like a tripped
               budget. *)
            Fbb_obs.Counter.incr lp_unproven_c;
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
