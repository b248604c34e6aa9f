module Problem = Fbb_core.Problem

type optimum = { levels : int array; leakage_nw : float }
type verdict = Optimal of optimum | Infeasible

type bounded = Done of verdict | Out_of_budget of optimum option

exception Budget_stop

let default_max_rows = 8
let default_max_leaves = 2_000_000

let leaves_c = Fbb_obs.Counter.make "oracle.leaves"
let solves_c = Fbb_obs.Counter.make "oracle.solves"

(* sum_{s=1..C} (P choose s) * s^rows, saturating so huge instances do
   not overflow into "tractable". *)
let leaf_estimate ~num_levels ~num_rows ~max_clusters =
  let sat_mul a b =
    if a > 0 && b > max_int / a then max_int else a * b
  in
  (* product form (n-k+i)/i keeps every intermediate integral *)
  let choose n k =
    let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
    go 1 1
  in
  let total = ref 0 in
  for s = 1 to min max_clusters num_levels do
    let pow = ref 1 in
    for _ = 1 to num_rows do
      pow := sat_mul !pow s
    done;
    let t = sat_mul (choose num_levels s) !pow in
    total := if !total > max_int - t then max_int else !total + t
  done;
  !total

let tractable ?(max_rows = default_max_rows) ?(max_leaves = default_max_leaves)
    ~max_clusters p =
  Problem.num_rows p <= max_rows
  && leaf_estimate ~num_levels:(Problem.num_levels p)
       ~num_rows:(Problem.num_rows p) ~max_clusters
     <= max_leaves

(* Feasibility and leakage are deliberately recomputed with the plainest
   possible loops over the problem tables — no Checker, no incremental
   sigma — so a bug in the production fast paths cannot hide here. *)
let feasible p assignment =
  let ok = ref true in
  let m = Problem.num_paths p in
  let k = ref 0 in
  while !ok && !k < m do
    let achieved = ref 0.0 in
    let rv = p.Problem.path_rows.(!k) in
    for i = 0 to Array.length rv.Problem.idx - 1 do
      achieved :=
        !achieved
        +. rv.Problem.coef.(i)
           *. p.Problem.design.reduction.(assignment.(rv.Problem.idx.(i)))
    done;
    if !achieved < p.Problem.required.(!k) -. 1e-9 then ok := false;
    incr k
  done;
  !ok

let leakage p assignment =
  let acc = ref 0.0 in
  Array.iteri
    (fun r j -> acc := !acc +. p.Problem.design.row_leak.(r).(j))
    assignment;
  !acc

let solve_impl ~budget ~max_rows ~max_leaves ~max_clusters p =
  if max_clusters < 1 then invalid_arg "Oracle.solve: C must be >= 1";
  if not (tractable ~max_rows ~max_leaves ~max_clusters p) then
    invalid_arg "Oracle.solve: instance exceeds the brute-force bounds";
  Fbb_obs.Counter.incr solves_c;
  Fbb_obs.Span.with_ ~name:"oracle.solve" @@ fun () ->
  let nrows = Problem.num_rows p in
  let nlev = Problem.num_levels p in
  let best = ref None in
  let consider assignment =
    Fbb_obs.Counter.incr leaves_c;
    (* One tick per leaf in this strictly sequential walk, so a work
       budget always stops at the same leaf. *)
    if not (Fbb_util.Budget.tick budget) then raise Budget_stop;
    (* Safe pruning: leakage is a level-independent sum, so comparing it
       before the feasibility walk cannot change which assignments are
       optimal — equal-leakage ties still go to the first one visited. *)
    let leak = leakage p assignment in
    let beats = match !best with None -> true | Some (_, b) -> leak < b in
    if beats && feasible p assignment then
      best := Some (Array.copy assignment, leak)
  in
  (* All ascending subsets of size s starting from [start]. *)
  let rec subsets start s prefix =
    if s = 0 then enumerate (Array.of_list (List.rev prefix))
    else
      for j = start to nlev - s do
        subsets (j + 1) (s - 1) (j :: prefix)
      done
  (* All assignments of rows to the subset's members, odometer order. *)
  and enumerate subset =
    let ns = Array.length subset in
    let digits = Array.make nrows 0 in
    let assignment = Array.make nrows subset.(0) in
    let continue_ = ref true in
    while !continue_ do
      for r = 0 to nrows - 1 do
        assignment.(r) <- subset.(digits.(r))
      done;
      consider assignment;
      (* increment the odometer *)
      let r = ref (nrows - 1) in
      while !r >= 0 && digits.(!r) = ns - 1 do
        digits.(!r) <- 0;
        decr r
      done;
      if !r < 0 then continue_ := false else digits.(!r) <- digits.(!r) + 1
    done
  in
  let truncated =
    try
      for s = 1 to min max_clusters nlev do
        subsets 0 s []
      done;
      false
    with Budget_stop -> true
  in
  let incumbent =
    Option.map (fun (levels, leakage_nw) -> { levels; leakage_nw }) !best
  in
  if truncated then Out_of_budget incumbent
  else
    match incumbent with
    | Some opt -> Done (Optimal opt)
    | None -> Done Infeasible

let solve ?(max_rows = default_max_rows) ?(max_leaves = default_max_leaves)
    ?(max_clusters = 2) p =
  match
    solve_impl ~budget:Fbb_util.Budget.unlimited ~max_rows ~max_leaves
      ~max_clusters p
  with
  | Done v -> v
  | Out_of_budget _ -> assert false (* unlimited budgets never trip *)

let solve_bounded ?(max_rows = default_max_rows)
    ?(max_leaves = default_max_leaves) ?(max_clusters = 2) ~budget p =
  solve_impl ~budget ~max_rows ~max_leaves ~max_clusters p
