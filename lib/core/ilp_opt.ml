module S = Fbb_lp.Simplex
module BB = Fbb_ilp.Branch_bound

type config = { max_clusters : int; budget : Fbb_util.Budget.t }

let default_config = { max_clusters = 2; budget = Fbb_util.Budget.unlimited }

type result = {
  levels : int array option;
  leakage_nw : float option;
  proved_optimal : bool;
  timed_out : bool;
  nodes : int;
  lower_bound_nw : float option;
  constraints_total : int;
  constraints_solved : int;
}

(* (row, delay) pair view of a sparse row vector, for the cold
   constraint-emission paths below. *)
let pairs rv =
  List.init
    (Array.length rv.Problem.idx)
    (fun i -> (rv.Problem.idx.(i), rv.Problem.coef.(i)))

let subsets_considered_c = Fbb_obs.Counter.make "ilp.subsets_considered"
let subsets_pruned_c = Fbb_obs.Counter.make "ilp.subsets_pruned"
let constraints_dropped_c = Fbb_obs.Counter.make "ilp.constraints_dropped"
let reduce_faults_c = Fbb_obs.Counter.make "ilp.reduce_faults"
let cfree_closed_c = Fbb_obs.Counter.make "ilp.cfree_closed"
let interval_pruned_c = Fbb_obs.Counter.make "ilp.interval_pruned"

(* Timing constraint k is implied by k' when k' requires at least as much
   reduction while every row offers it at most as much raw delay: any x
   satisfying k' then satisfies k. Dropping implied constraints is
   lossless. *)
let reduce_paths p =
  Fbb_obs.Span.with_ ~name:"ilp.reduce_paths" @@ fun () ->
  let m = Problem.num_paths p in
  let delay_in k =
    let tbl = Hashtbl.create 8 in
    let rv = p.Problem.path_rows.(k) in
    Array.iteri
      (fun i r -> Hashtbl.replace tbl r rv.Problem.coef.(i))
      rv.Problem.idx;
    tbl
  in
  let tables = Array.init m delay_in in
  let order = Array.init m (fun k -> k) in
  Array.sort
    (fun a b -> Float.compare p.Problem.required.(b) p.Problem.required.(a))
    order;
  (* k' implies k when req(k') >= req(k) — guaranteed by the sort
     order — and k offers at least k's raw delay in every row of k''s
     support. Dropping k whenever *any* earlier position implies it
     (rather than only a kept one, as the sequential scan did) is
     equivalent up to epsilon because implication is transitive; it
     makes every position independent of the others, so the pairwise
     scan shards across the pool and the kept set depends on nothing
     but the problem — identical at any job count. The tables are
     built before the fan-out and only read inside it. *)
  let dropped = Array.make m false in
  Fbb_par.Pool.parallel_for ~n:m (fun i ->
      let k = order.(i) in
      let tk = tables.(k) in
      let implied_by j =
        let rv = p.Problem.path_rows.(order.(j)) in
        let n = Array.length rv.Problem.idx in
        let rec all i =
          i >= n
          || (match Hashtbl.find_opt tk rv.Problem.idx.(i) with
             | Some d -> d >= rv.Problem.coef.(i) -. 1e-9
             | None -> false)
             && all (i + 1)
        in
        all 0
      in
      let rec scan j = j < i && (implied_by j || scan (j + 1)) in
      dropped.(i) <- scan 0);
  let kept = ref [] in
  for i = m - 1 downto 0 do
    if not dropped.(i) then kept := order.(i) :: !kept
  done;
  let kept = !kept in
  Fbb_obs.Counter.add constraints_dropped_c (m - List.length kept);
  kept

let formulate ~max_clusters p =
  Fbb_obs.Span.with_ ~name:"ilp.formulate" @@ fun () ->
  let nrows = Problem.num_rows p in
  let nlev = Problem.num_levels p in
  let x i j = (i * nlev) + j in
  let y j = (nrows * nlev) + j in
  let num_vars = (nrows * nlev) + nlev in
  let minimize = Array.make num_vars 0.0 in
  for i = 0 to nrows - 1 do
    for j = 0 to nlev - 1 do
      minimize.(x i j) <- p.Problem.design.row_leak.(i).(j)
    done
  done;
  let timing =
    List.init (Problem.num_paths p) (fun k ->
        let terms =
          pairs p.Problem.path_rows.(k)
          |> List.concat_map (fun (r, d) ->
                 List.filter_map
                   (fun j ->
                     let a = d *. p.Problem.design.reduction.(j) in
                     if a > 0.0 then Some (x r j, a) else None)
                   (List.init nlev (fun j -> j)))
        in
        { S.terms; relation = S.Ge; rhs = p.Problem.required.(k) })
  in
  let assignment =
    List.init nrows (fun i ->
        {
          S.terms = List.init nlev (fun j -> (x i j, 1.0));
          relation = S.Eq;
          rhs = 1.0;
        })
  in
  let big_f = float_of_int nrows in
  let linking =
    List.init nlev (fun j ->
        {
          S.terms = (y j, -.big_f) :: List.init nrows (fun i -> (x i j, 1.0));
          relation = S.Le;
          rhs = 0.0;
        })
  in
  let budget =
    [
      {
        S.terms = List.init nlev (fun j -> (y j, 1.0));
        relation = S.Le;
        rhs = float_of_int max_clusters;
      };
    ]
  in
  let y_bounds =
    List.init nlev (fun j ->
        { S.terms = [ (y j, 1.0) ]; relation = S.Le; rhs = 1.0 })
  in
  {
    BB.num_vars;
    minimize;
    rows =
      Fbb_lp.Dual_simplex.pack ~num_vars
        (timing @ assignment @ linking @ budget @ y_bounds);
  }

(* All ascending level subsets of the given size. *)
let subsets_of_size levels_n size =
  let rec go start size =
    if size = 0 then [ [] ]
    else
      List.concat_map
        (fun first ->
          List.map (fun rest -> first :: rest) (go (first + 1) (size - 1)))
        (List.init (levels_n - start) (fun k -> start + k))
  in
  go 0 size

(* Restricted problem: every row picks a level from [subset] (an ascending
   int list). Variables are row-major over the subset's positions. The
   rows are packed straight into flat arrays, timing rows (in [kept]
   order) then one assignment equality per row, term for term what
   [Dual_simplex.pack] makes of the same constraint list, without the
   boxed term lists: the C-free closure and the interval bounds pose
   this over up to all P levels. *)
let formulate_subset p ~kept ~subset =
  let nrows = Problem.num_rows p in
  let s = Array.of_list subset in
  let ns = Array.length s in
  let x i q = (i * ns) + q in
  let num_vars = nrows * ns in
  let minimize =
    Array.init num_vars (fun v ->
        p.Problem.design.row_leak.(v / ns).(s.(v mod ns)))
  in
  let kept = Array.of_list kept in
  let nk = Array.length kept in
  let m = nk + nrows in
  let nnz =
    Array.fold_left
      (fun acc k ->
        acc + (Array.length p.Problem.path_rows.(k).Problem.idx * ns))
      num_vars kept
  in
  let idx = Array.make nnz 0 and coef = Array.make nnz 0.0 in
  let start = Array.make (m + 1) 0 in
  let lo = Array.make m 1.0 and hi = Array.make m 1.0 in
  let e = ref 0 in
  let term v a =
    idx.(!e) <- v;
    coef.(!e) <- a;
    incr e
  in
  Array.iteri
    (fun r k ->
      let rv = p.Problem.path_rows.(k) in
      Array.iteri
        (fun t row ->
          for q = 0 to ns - 1 do
            let a = rv.Problem.coef.(t) *. p.Problem.design.reduction.(s.(q)) in
            if a > 0.0 then term (x row q) a
          done)
        rv.Problem.idx;
      start.(r + 1) <- !e;
      lo.(r) <- p.Problem.required.(k);
      hi.(r) <- Float.infinity)
    kept;
  for i = 0 to nrows - 1 do
    for q = 0 to ns - 1 do
      term (x i q) 1.0
    done;
    start.(nk + i + 1) <- !e
  done;
  let rows =
    {
      Fbb_lp.Dual_simplex.start;
      idx = Array.sub idx 0 !e;
      coef = Array.sub coef 0 !e;
      lo;
      hi;
    }
  in
  ({ BB.num_vars; minimize; rows }, s)

(* Project a full assignment into the subset: each row rounds its level up
   to the next subset member (preserving feasibility since higher levels
   reduce at least as much), or the subset maximum. *)
let project_levels subset levels =
  let s = Array.of_list subset in
  Array.map
    (fun l ->
      let q = ref (Array.length s - 1) in
      for k = Array.length s - 1 downto 0 do
        if s.(k) >= l then q := k
      done;
      !q)
    levels

(* The warm start projected into subset [s], as a 0/1 incumbent of its
   [formulate_subset], when the projection still meets timing. *)
let incumbent_of p s levels =
  let ns = Array.length s in
  let proj = project_levels (Array.to_list s) levels in
  if Solution.meets_timing p (Array.map (fun q -> s.(q)) proj) then begin
    let v = Array.make (Array.length proj * ns) 0.0 in
    Array.iteri (fun i q -> v.((i * ns) + q) <- 1.0) proj;
    Some v
  end
  else None

(* The levels of a 0/1 point of [formulate_subset] over positions [s]. *)
let decode s x =
  let ns = Array.length s in
  Array.init
    (Array.length x / ns)
    (fun i ->
      let bestq = ref 0 in
      for q = 1 to ns - 1 do
        if x.((i * ns) + q) > x.((i * ns) + !bestq) then bestq := q
      done;
      s.(!bestq))

(* The C-free closure's share of the solve's budget, work and deadline;
   its work is also capped where it runs. Cut short, the closure still
   yields its root bound, so under a tight budget most of the work is
   left to the enumeration, which is what finds the answer there. *)
let closure_share = 0.1

(* Absolute objective tolerance of every prune, the B&B's included: an
   optimum "proved" under it may sit this far above the true one. *)
let tol = 1e-9

let optimize_enumerate config ?warm_start p ~kept =
  Fbb_obs.Span.with_ ~name:"ilp.enumerate" @@ fun () ->
  let nrows = Problem.num_rows p in
  let nlev = Problem.num_levels p in
  let warm_start =
    match warm_start with
    | Some levels when Solution.meets_timing p levels -> Some levels
    | Some _ | None -> None
  in
  let best = ref None in
  let offer levels obj =
    match !best with
    | Some (_, b) when obj >= b -. tol -> ()
    | Some _ | None -> best := Some (levels, obj)
  in
  (match warm_start with
  | Some levels when Solution.cluster_count levels <= config.max_clusters ->
    best := Some (Array.copy levels, Solution.leakage_nw p levels)
  | Some _ | None -> ());
  let nodes = ref 0 in
  (* One B&B over the rows x [subset] program, warm-started by the
     projected warm start; its best point comes back as levels. *)
  let solve_subset ~budget ?cutoff subset =
    let problem, s = formulate_subset p ~kept ~subset in
    let incumbent = Option.bind warm_start (incumbent_of p s) in
    let r = BB.solve ~budget ?incumbent ?cutoff problem in
    nodes := !nodes + r.BB.nodes;
    (r, Option.map (fun (x, obj) -> (decode s x, obj)) r.BB.best)
  in
  (* jopt = None proves infeasibility outright: the uniform-maximum
     assignment dominates every other one constraint-wise. *)
  let all_proved = ref true in
  let floor = ref None in
  (match Problem.max_single_level p with
  | None -> ()
  | Some jopt ->
    let floor_cost_of subset =
      let lo = List.fold_left min max_int subset in
      let acc = ref 0.0 in
      for i = 0 to nrows - 1 do
        acc := !acc +. p.Problem.design.row_leak.(i).(lo)
      done;
      !acc
    in
    (* Cheapest-floor subsets first: a tight incumbent found early prunes
       most of the remaining enumeration at the floor-cost check. *)
    let subsets =
      subsets_of_size nlev config.max_clusters
      |> List.filter (fun s -> List.exists (fun j -> j >= jopt) s)
      |> List.map (fun s -> (floor_cost_of s, s))
      |> List.sort (fun (ca, sa) (cb, sb) ->
             match Float.compare ca cb with
             | 0 -> List.compare Int.compare sa sb
             | c -> c)
      |> List.map snd
    in
    (* 1. The C-free closure: [sum_j y(j) <= C] is the only constraint
       coupling the rows, so dropping it leaves one B&B over every
       level. Its optimum bounds the C-constrained one from below, and
       is it when it uses at most C levels. It runs on a child budget
       whose work is charged back, as the cascade charges its stages.
       Its work is capped at one node per candidate subset it could
       spare the enumeration, scaled by C / min(rows, P): a subset
       offers each row C of the closure's levels, an answer uses at
       most min(rows, P) distinct levels, and most subsets close at or
       near their root. The cap ignores the incumbent, so a warm start
       does not starve the closure. *)
    let closure_cap =
      let width = min nrows nlev in
      ((List.length subsets * config.max_clusters) + width - 1) / width
    in
    let closed =
      Fbb_obs.Span.with_ ~name:"ilp.cfree" @@ fun () ->
      let cb =
        Fbb_util.Budget.sub ~work_frac:closure_share
          ~deadline_frac:closure_share ~max_work:closure_cap config.budget
      in
      let r, found = solve_subset ~budget:cb (List.init nlev Fun.id) in
      Fbb_util.Budget.consume config.budget (Fbb_util.Budget.work_used cb);
      let fits =
        match found with
        | Some (levels, obj)
          when Solution.cluster_count levels <= config.max_clusters ->
          offer levels obj;
          true
        | Some _ | None -> false
      in
      match (r.BB.status, found) with
      | BB.Proved_optimal, Some (_, obj) ->
        floor := Some (obj -. tol);
        fits
      | BB.Proved_infeasible, _ -> true
      | (BB.Proved_optimal | BB.Feasible | BB.Limit_reached), _ ->
        floor := r.BB.root_bound;
        false
    in
    if closed then Fbb_obs.Counter.incr cfree_closed_c
    else begin
      let at_floor () =
        match (!best, !floor) with
        | Some (_, b), Some f -> b <= f +. tol
        | _, _ -> false
      in
      (* 2. Interval families: every subset S lies in the level
         interval [min S, max S], so the root LP over rows x that
         interval bounds all subsets with the same two ends, and an
         interval's bound is at most that of any interval inside it.
         Bounds are computed on first need, memoized and read through
         containment: a wider interval that prunes prunes S, and a
         narrower one that does not says S's will not either. An LP
         costs one budget tick and is solved only while another subset
         of its family is still ahead; otherwise S's own root LP, which
         its B&B solves anyway, is the tighter and cheaper bound. *)
      let ends subset =
        (List.hd subset, List.nth subset (List.length subset - 1))
      in
      let family_left = Hashtbl.create 64 in
      List.iter
        (fun s ->
          let k = ends s in
          Hashtbl.replace family_left k
            (1 + Option.value ~default:0 (Hashtbl.find_opt family_left k)))
        subsets;
      let solved = ref [] in
      let rec interval_verdict (lo, hi) b =
        let prunes lb = lb >= b -. tol in
        let inside (l, h) (l', h') = l' <= l && h <= h' in
        let known pred =
          List.exists
            (fun (i, bound) ->
              match bound with Some lb -> pred i lb | None -> false)
            !solved
        in
        if known (fun i lb -> inside (lo, hi) i && prunes lb) then begin
          Fbb_obs.Counter.incr interval_pruned_c;
          `Pruned
        end
        else if
          List.mem_assoc (lo, hi) !solved
          || known (fun i lb -> inside i (lo, hi) && not (prunes lb))
          || Hashtbl.find family_left (lo, hi) = 0
          || (lo = 0 && hi = nlev - 1)
        then `Open
        else if not (Fbb_util.Budget.tick config.budget) then `Refused
        else begin
          let problem, _ =
            formulate_subset p ~kept
              ~subset:(List.init (hi - lo + 1) (fun k -> lo + k))
          in
          let bound = BB.root_bound ~budget:config.budget problem in
          solved := ((lo, hi), bound) :: !solved;
          interval_verdict (lo, hi) b
        end
      in
      (* 3. The enumeration of what is left. One budget tick per subset
         in this sequential loop; the shared budget is also handed to
         each inner B&B, which ticks it per node at its own (sequential)
         wave fold. The first refused tick ends the enumeration, and an
         incumbent at the closure's floor ends it with a proof. *)
      let rec enumerate = function
        | [] -> ()
        | _ when at_floor () -> ()
        | subset :: rest -> (
          Fbb_obs.Counter.incr subsets_considered_c;
          let family = ends subset in
          Hashtbl.replace family_left family
            (Hashtbl.find family_left family - 1);
          if not (Fbb_util.Budget.tick config.budget) then all_proved := false
          else
            let verdict =
              match !best with
              | None -> `Open
              | Some (_, b) ->
                (* Cheap bound first: even with every row at its
                   cheapest subset level the incumbent must be
                   beatable. *)
                if floor_cost_of subset >= b -. tol then begin
                  Fbb_obs.Counter.incr subsets_pruned_c;
                  `Pruned
                end
                else interval_verdict family b
            in
            match verdict with
            | `Refused -> all_proved := false
            | `Pruned -> enumerate rest
            | `Open ->
              let r, found =
                solve_subset ~budget:config.budget
                  ?cutoff:(Option.map snd !best) subset
              in
              (match r.BB.status with
              | BB.Proved_optimal | BB.Proved_infeasible -> ()
              | BB.Feasible | BB.Limit_reached -> all_proved := false);
              Option.iter (fun (levels, obj) -> offer levels obj) found;
              enumerate rest)
      in
      enumerate subsets
    end);
  {
    levels = Option.map fst !best;
    leakage_nw = Option.map snd !best;
    proved_optimal = !all_proved;
    timed_out = not !all_proved;
    nodes = !nodes;
    lower_bound_nw = !floor;
    constraints_total = Problem.num_paths p;
    constraints_solved = List.length kept;
  }

let optimize ?(config = default_config) ?warm_start p =
  Fbb_obs.Span.with_ ~name:"ilp.optimize" @@ fun () ->
  (* A crashed pool worker loses the reduction, not the solve: the full
     path list is the lossless fallback. *)
  let kept =
    match reduce_paths p with
    | kept -> kept
    | exception Fbb_par.Pool.Worker_error _ ->
      Fbb_obs.Counter.incr reduce_faults_c;
      List.init (Problem.num_paths p) Fun.id
  in
  optimize_enumerate config ?warm_start p ~kept
