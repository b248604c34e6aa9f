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
   int list). Variables are row-major over the subset's positions. *)
let formulate_subset p ~kept ~subset =
  let nrows = Problem.num_rows p in
  let s = Array.of_list subset in
  let ns = Array.length s in
  let x i q = (i * ns) + q in
  let minimize = Array.make (nrows * ns) 0.0 in
  for i = 0 to nrows - 1 do
    for q = 0 to ns - 1 do
      minimize.(x i q) <- p.Problem.design.row_leak.(i).(s.(q))
    done
  done;
  let timing =
    List.map
      (fun k ->
        let terms =
          pairs p.Problem.path_rows.(k)
          |> List.concat_map (fun (r, d) ->
                 List.filter_map
                   (fun q ->
                     let a = d *. p.Problem.design.reduction.(s.(q)) in
                     if a > 0.0 then Some (x r q, a) else None)
                   (List.init ns (fun q -> q)))
        in
        { S.terms; relation = S.Ge; rhs = p.Problem.required.(k) })
      kept
  in
  let assignment =
    List.init nrows (fun i ->
        {
          S.terms = List.init ns (fun q -> (x i q, 1.0));
          relation = S.Eq;
          rhs = 1.0;
        })
  in
  let num_vars = nrows * ns in
  ( {
      BB.num_vars;
      minimize;
      rows = Fbb_lp.Dual_simplex.pack ~num_vars (timing @ assignment);
    },
    s )

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

let optimize_enumerate config ?warm_start p ~kept =
  Fbb_obs.Span.with_ ~name:"ilp.enumerate" @@ fun () ->
  let nrows = Problem.num_rows p in
  let warm_start =
    match warm_start with
    | Some levels when Solution.meets_timing p levels -> Some levels
    | Some _ | None -> None
  in
  let best = ref None in
  (match warm_start with
  | Some levels when Solution.cluster_count levels <= config.max_clusters ->
    best := Some (Array.copy levels, Solution.leakage_nw p levels)
  | Some _ | None -> ());
  let jopt = Problem.max_single_level p in
  let nodes = ref 0 in
  (* jopt = None proves infeasibility outright: the uniform-maximum
     assignment dominates every other one constraint-wise. *)
  let all_proved = ref true in
  (match jopt with
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
      subsets_of_size (Problem.num_levels p) config.max_clusters
      |> List.filter (fun s -> List.exists (fun j -> j >= jopt) s)
      |> List.map (fun s -> (floor_cost_of s, s))
      |> List.sort (fun (ca, sa) (cb, sb) ->
             match Float.compare ca cb with
             | 0 -> List.compare Int.compare sa sb
             | c -> c)
      |> List.map snd
    in
    (* One budget tick per subset in this sequential loop; the shared
       budget is also handed to each inner B&B, which ticks it per node
       at its own (sequential) wave fold. The first refused tick ends
       the enumeration. *)
    let rec enumerate = function
      | [] -> ()
      | subset :: rest ->
        Fbb_obs.Counter.incr subsets_considered_c;
        if not (Fbb_util.Budget.tick config.budget) then all_proved := false
        else begin
          (* Cheap bound: even with every row at its cheapest subset level
             the incumbent must be beatable. *)
          let floor_cost = floor_cost_of subset in
          let beatable =
            match !best with
            | Some (_, b) -> floor_cost < b -. 1e-9
            | None -> true
          in
          if not beatable then Fbb_obs.Counter.incr subsets_pruned_c;
          if beatable then begin
            let problem, s = formulate_subset p ~kept ~subset in
            let incumbent =
              match warm_start with
              | Some levels ->
                let proj = project_levels subset levels in
                let v = Array.make problem.BB.num_vars 0.0 in
                Array.iteri
                  (fun i q -> v.((i * Array.length s) + q) <- 1.0)
                  proj;
                let ok =
                  let lv = Array.map (fun q -> s.(q)) proj in
                  Solution.meets_timing p lv
                in
                if ok then Some v else None
              | None -> None
            in
            let cutoff = Option.map snd !best in
            let r = BB.solve ~budget:config.budget ?incumbent ?cutoff problem in
            nodes := !nodes + r.BB.nodes;
            (match r.BB.status with
            | BB.Proved_optimal | BB.Proved_infeasible -> ()
            | BB.Feasible | BB.Limit_reached -> all_proved := false);
            match r.BB.best with
            | Some (x, obj) -> begin
              let levels =
                Array.init nrows (fun i ->
                    let bestq = ref 0 in
                    for q = 1 to Array.length s - 1 do
                      if x.((i * Array.length s) + q)
                         > x.((i * Array.length s) + !bestq)
                      then bestq := q
                    done;
                    s.(!bestq))
              in
              match !best with
              | Some (_, b) when obj >= b -. 1e-9 -> ()
              | Some _ | None -> best := Some (levels, obj)
            end
            | None -> ()
          end;
          enumerate rest
        end
    in
    enumerate subsets);
  let levels = Option.map fst !best in
  {
    levels;
    leakage_nw = Option.map snd !best;
    proved_optimal = !all_proved;
    timed_out = not !all_proved;
    nodes = !nodes;
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
