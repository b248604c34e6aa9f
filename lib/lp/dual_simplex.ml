module Budget = Fbb_util.Budget

type rows = {
  start : int array;
  idx : int array;
  coef : float array;
  lo : float array;
  hi : float array;
}

let num_rows r = Array.length r.lo

let pack ~num_vars constraints =
  let m = List.length constraints in
  let nnz =
    List.fold_left (fun acc c -> acc + List.length c.Simplex.terms) 0 constraints
  in
  let start = Array.make (m + 1) 0 in
  let idx = Array.make nnz 0 and coef = Array.make nnz 0.0 in
  let lo = Array.make m Float.neg_infinity and hi = Array.make m Float.infinity in
  let e = ref 0 in
  List.iteri
    (fun r c ->
      List.iter
        (fun (v, a) ->
          if v < 0 || v >= num_vars then
            invalid_arg "Dual_simplex.pack: variable out of range";
          idx.(!e) <- v;
          coef.(!e) <- a;
          incr e)
        c.Simplex.terms;
      start.(r + 1) <- !e;
      match c.Simplex.relation with
      | Simplex.Le -> hi.(r) <- c.Simplex.rhs
      | Simplex.Ge -> lo.(r) <- c.Simplex.rhs
      | Simplex.Eq ->
        lo.(r) <- c.Simplex.rhs;
        hi.(r) <- c.Simplex.rhs)
    constraints;
  { start; idx; coef; lo; hi }

let satisfies rows x ~eps =
  let ok = ref true in
  for r = 0 to num_rows rows - 1 do
    let s = ref 0.0 in
    for e = rows.start.(r) to rows.start.(r + 1) - 1 do
      s := !s +. (rows.coef.(e) *. x.(rows.idx.(e)))
    done;
    if !s < rows.lo.(r) -. eps || !s > rows.hi.(r) +. eps then ok := false
  done;
  !ok

(* Variables 0 .. n-1 are the columns, n + r is row r's logical. The
   tableau expresses each basic variable in the nonbasic ones:
   x_head(i) = sum_k tab.(i*n + k) * x_tail(k). *)
type t = {
  mutable m : int;
  mutable n : int;
  mutable rows : rows;
  mutable cost : float array;
  mutable lo : float array;  (* n + m *)
  mutable hi : float array;
  mutable tab : float array;  (* m * n, row-major *)
  mutable d : float array;  (* per nonbasic position: reduced cost *)
  mutable beta : float array;  (* per basic row: value *)
  mutable head : int array;  (* per basic row: variable *)
  mutable tail : int array;  (* per nonbasic position: variable *)
  mutable where : int array;  (* per variable: k >= 0 nonbasic, -1 - i basic *)
  mutable upper : bool array;  (* per variable: nonbasic at [hi] *)
  mutable prow : float array;  (* pivot-row scratch, n *)
  mutable nz : int array;  (* its nonzero positions, n *)
}

type outcome =
  | Optimal of float
  | Infeasible
  | Uncertified
  | Pivot_limit
  | Budget_exhausted

(* The same counters {!Simplex} reports on. No phase 1 runs here, so
   [lp.phase1_pivots] stays registered at 0 for readers of the share. *)
let solves_c = Fbb_obs.Counter.make "lp.solves"
let pivots_c = Fbb_obs.Counter.make "lp.pivots"
let _phase1_c = Fbb_obs.Counter.make "lp.phase1_pivots"
let bland_c = Fbb_obs.Counter.make "lp.bland_engaged"
let pivot_limit_c = Fbb_obs.Counter.make "lp.pivot_limit"
let budget_stop_c = Fbb_obs.Counter.make "lp.budget_stops"
let uncertified_c = Fbb_obs.Counter.make "lp.uncertified"

let feas_tol = 1e-9
let pivot_tol = 1e-9
let ratio_tol = 1e-12

let value t v =
  let w = t.where.(v) in
  if w < 0 then t.beta.(-1 - w) else if t.upper.(v) then t.hi.(v) else t.lo.(v)

let objective t =
  let z = ref 0.0 in
  for j = 0 to t.n - 1 do
    z := !z +. (t.cost.(j) *. value t j)
  done;
  !z

let create ~cost ~lo ~hi rows =
  let n = Array.length cost and m = num_rows rows in
  if Array.length lo <> n || Array.length hi <> n then
    invalid_arg "Dual_simplex.create: bound arrays must match the costs";
  for j = 0 to n - 1 do
    if not (Float.is_finite lo.(j) && Float.is_finite hi.(j) && lo.(j) <= hi.(j))
    then invalid_arg "Dual_simplex.create: column bounds must be finite, lo <= hi"
  done;
  let tab = Array.make (m * n) 0.0 in
  for r = 0 to m - 1 do
    for e = rows.start.(r) to rows.start.(r + 1) - 1 do
      let k = (r * n) + rows.idx.(e) in
      tab.(k) <- tab.(k) +. rows.coef.(e)
    done
  done;
  let t =
    {
      m;
      n;
      rows;
      cost;
      lo = Array.append lo rows.lo;
      hi = Array.append hi rows.hi;
      tab;
      d = Array.copy cost;
      beta = Array.make m 0.0;
      head = Array.init m (fun i -> n + i);
      tail = Array.init n Fun.id;
      where = Array.init (n + m) (fun v -> if v < n then v else -1 - (v - n));
      (* The cheaper bound: dual feasible whatever the sign of the cost. *)
      upper = Array.init (n + m) (fun v -> v < n && cost.(v) < 0.0);
      prow = Array.make n 0.0;
      nz = Array.make n 0;
    }
  in
  for i = 0 to m - 1 do
    let s = ref 0.0 in
    for k = 0 to n - 1 do
      let a = tab.((i * n) + k) in
      if a <> 0.0 then s := !s +. (a *. value t k)
    done;
    t.beta.(i) <- !s
  done;
  t

let workspace () =
  let rows = { start = [| 0 |]; idx = [||]; coef = [||]; lo = [||]; hi = [||] } in
  {
    m = 0; n = 0; rows; cost = [||]; lo = [||]; hi = [||]; tab = [||];
    d = [||]; beta = [||]; head = [||]; tail = [||]; where = [||];
    upper = [||]; prow = [||]; nz = [||];
  }

let load w ~from:t =
  let grow a len x = if Array.length a >= len then a else Array.make len x in
  let m = t.m and n = t.n in
  w.m <- m;
  w.n <- n;
  w.rows <- t.rows;
  w.cost <- t.cost;
  w.lo <- grow w.lo (n + m) 0.0;
  w.hi <- grow w.hi (n + m) 0.0;
  w.tab <- grow w.tab (m * n) 0.0;
  w.d <- grow w.d n 0.0;
  w.beta <- grow w.beta m 0.0;
  w.head <- grow w.head m 0;
  w.tail <- grow w.tail n 0;
  w.where <- grow w.where (n + m) 0;
  w.upper <- grow w.upper (n + m) false;
  w.prow <- grow w.prow n 0.0;
  w.nz <- grow w.nz n 0;
  Array.blit t.lo 0 w.lo 0 (n + m);
  Array.blit t.hi 0 w.hi 0 (n + m);
  Array.blit t.tab 0 w.tab 0 (m * n);
  Array.blit t.d 0 w.d 0 n;
  Array.blit t.beta 0 w.beta 0 m;
  Array.blit t.head 0 w.head 0 m;
  Array.blit t.tail 0 w.tail 0 n;
  Array.blit t.where 0 w.where 0 (n + m);
  Array.blit t.upper 0 w.upper 0 (n + m)

let fix t j v =
  let old = value t j in
  t.lo.(j) <- v;
  t.hi.(j) <- v;
  let k = t.where.(j) in
  let delta = v -. old in
  if k >= 0 && delta <> 0.0 then
    for i = 0 to t.m - 1 do
      t.beta.(i) <- t.beta.(i) +. (t.tab.((i * t.n) + k) *. delta)
    done

(* Most infeasible basic row (Bland: the one whose variable has the
   smallest index), or -1 when the basis is primal feasible. *)
let leaving t ~bland =
  let best = ref (-1) and best_inf = ref 0.0 in
  for i = 0 to t.m - 1 do
    let v = t.head.(i) and b = t.beta.(i) in
    let lo = t.lo.(v) and hi = t.hi.(v) in
    let inf =
      if b < lo -. (feas_tol *. (1.0 +. Float.abs lo)) then lo -. b
      else if b > hi +. (feas_tol *. (1.0 +. Float.abs hi)) then b -. hi
      else 0.0
    in
    if inf > 0.0 then
      if bland then begin
        if !best < 0 || v < t.head.(!best) then best := i
      end
      else if inf > !best_inf then begin
        best_inf := inf;
        best := i
      end
  done;
  !best

(* Dual ratio test on row [r], whose basic variable must rise ([up]) or
   fall. Returns the entering position and the dual step length, or -1
   when no nonbasic variable can move it: the row is then a Farkas
   row. *)
let entering t r ~up ~bland =
  let base = r * t.n in
  let best = ref (-1) and best_ratio = ref Float.infinity and best_a = ref 0.0 in
  for k = 0 to t.n - 1 do
    let v = t.tail.(k) in
    if t.lo.(v) < t.hi.(v) then begin
      let a = t.tab.(base + k) in
      let dir = if up then a else -.a in
      let at_upper = t.upper.(v) in
      if (at_upper && dir < -.pivot_tol) || ((not at_upper) && dir > pivot_tol)
      then begin
        let dk = if at_upper then -.t.d.(k) else t.d.(k) in
        let ratio = Float.max 0.0 dk /. Float.abs a in
        let take =
          ratio < !best_ratio -. ratio_tol
          || ratio <= !best_ratio +. ratio_tol
             &&
             if bland then v < t.tail.(!best)
             else Float.abs a > !best_a
        in
        if take then begin
          best := k;
          best_ratio := ratio;
          best_a := Float.abs a
        end
      end
    end
  done;
  (!best, !best_ratio)

(* Exchange basic row [r] and nonbasic position [q]; the leaving
   variable settles on the bound it violated. *)
let pivot t r q ~up =
  let n = t.n and m = t.m in
  let base = r * n in
  let tab = t.tab and beta = t.beta and prow = t.prow and nz = t.nz in
  let a = tab.(base + q) in
  let l = t.head.(r) and e = t.tail.(q) in
  let step = ((if up then t.lo.(l) else t.hi.(l)) -. beta.(r)) /. a in
  let ve = value t e in
  for i = 0 to m - 1 do
    if i <> r then beta.(i) <- beta.(i) +. (tab.((i * n) + q) *. step)
  done;
  beta.(r) <- ve +. step;
  t.head.(r) <- e;
  t.tail.(q) <- l;
  t.where.(e) <- -1 - r;
  t.where.(l) <- q;
  t.upper.(l) <- not up;
  let inv = 1.0 /. a in
  let cnt = ref 0 in
  for k = 0 to n - 1 do
    if k <> q then begin
      let f = tab.(base + k) *. inv in
      prow.(k) <- f;
      if f <> 0.0 then begin
        nz.(!cnt) <- k;
        incr cnt
      end
    end
  done;
  let cnt = !cnt in
  for i = 0 to m - 1 do
    if i <> r then begin
      let ib = i * n in
      let f = tab.(ib + q) in
      if f <> 0.0 then begin
        for c = 0 to cnt - 1 do
          let k = nz.(c) in
          tab.(ib + k) <- tab.(ib + k) -. (f *. prow.(k))
        done;
        tab.(ib + q) <- f *. inv
      end
    end
  done;
  for c = 0 to cnt - 1 do
    let k = nz.(c) in
    tab.(base + k) <- -.prow.(k)
  done;
  tab.(base + q) <- inv;
  let dq = t.d.(q) in
  if dq <> 0.0 then
    for c = 0 to cnt - 1 do
      let k = nz.(c) in
      t.d.(k) <- t.d.(k) -. (dq *. prow.(k))
    done;
  t.d.(q) <- dq *. inv

(* Unit roundoff and the classic bound on the error of a k-term dot
   product, gamma_k = k u / (1 - k u) (Higham, ch. 3). *)
let u = epsilon_float /. 2.0
let gamma k = let ku = float_of_int k *. u in ku /. (1.0 -. ku)

(* [g = c - A'y] (or [-A'y] without costs) from the packed rows, with
   per column the magnitude its rounding error scales with and its term
   count. *)
let reduced_costs t y ~with_cost =
  let g = if with_cost then Array.copy t.cost else Array.make t.n 0.0 in
  let mag = Array.map Float.abs g in
  let cnt = Array.make t.n 1 in
  let rows = t.rows in
  for r = 0 to t.m - 1 do
    let yr = y.(r) in
    if yr <> 0.0 then
      for e = rows.start.(r) to rows.start.(r + 1) - 1 do
        let j = rows.idx.(e) in
        let p = rows.coef.(e) *. yr in
        g.(j) <- g.(j) -. p;
        mag.(j) <- mag.(j) +. Float.abs p;
        cnt.(j) <- cnt.(j) + 1
      done
  done;
  let err = ref 0.0 in
  for j = 0 to t.n - 1 do
    let xmax = Float.max (Float.abs t.lo.(j)) (Float.abs t.hi.(j)) in
    err := !err +. (gamma cnt.(j) *. mag.(j) *. xmax)
  done;
  (g, !err)

(* Compensated (Neumaier) summation: error at most 2u|s| plus a
   second-order term, so [4u * sum |x|] covers it with room for the
   rounding of the terms themselves. *)
type ksum = { mutable s : float; mutable c : float; mutable abs : float }

let kadd k x =
  let s = k.s +. x in
  if Float.abs k.s >= Float.abs x then k.c <- k.c +. ((k.s -. s) +. x)
  else k.c <- k.c +. ((x -. s) +. k.s);
  k.s <- s;
  k.abs <- k.abs +. Float.abs x

let ksum () = { s = 0.0; c = 0.0; abs = 0.0 }
let kvalue k = k.s +. k.c

(* For any y, c.x = (c - A'y).x + y.(Ax) on every feasible x, so
   sum_r min(y_r lo_r, y_r hi_r) + sum_j min(g_j l_j, g_j u_j) bounds
   the optimum from below. y is the optimal dual, projected onto the
   signs the row bounds allow, so each term is finite. *)
let safe_bound t =
  let y =
    Array.init t.m (fun r ->
        let w = t.where.(t.n + r) in
        let yr = if w >= 0 then t.d.(w) else 0.0 in
        let yr = if t.hi.(t.n + r) = Float.infinity then Float.max yr 0.0 else yr in
        if t.lo.(t.n + r) = Float.neg_infinity then Float.min yr 0.0 else yr)
  in
  let g, err = reduced_costs t y ~with_cost:true in
  let k = ksum () in
  Array.iteri
    (fun r yr ->
      if yr > 0.0 then kadd k (yr *. t.lo.(t.n + r))
      else if yr < 0.0 then kadd k (yr *. t.hi.(t.n + r)))
    y;
  Array.iteri
    (fun j gj ->
      if gj > 0.0 then kadd k (gj *. t.lo.(j))
      else if gj < 0.0 then kadd k (gj *. t.hi.(j)))
    g;
  kvalue k -. (err +. (4.0 *. u *. k.abs))

(* Row [r]'s tableau equation x_head(r) - sum_k tab(r,k) x_tail(k) = 0
   is the combination sum_r' y_r' (a_r'.x - s_r') = 0 of the original
   rows, with y read off the logicals. Recompute E(x, s) = (A'y).x - y.s
   from the packed rows and evaluate it over the boxes: when the
   interval excludes 0 beyond the rounding allowance, no point of the
   boxes satisfies the rows. *)
let certified_infeasible t r =
  let n = t.n in
  let y =
    Array.init t.m (fun r' ->
        let w = t.where.(n + r') in
        if w >= 0 then t.tab.((r * n) + w) else if w = -1 - r then -1.0 else 0.0)
  in
  (* Any y gives a valid identity, so dropping rounding noise keeps the
     check sound; it only stops a tiny multiplier on a row with an
     infinite bound from opening the interval. *)
  let ymax = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0.0 y in
  Array.iteri (fun r' v -> if Float.abs v <= 1e-12 *. ymax then y.(r') <- 0.0) y;
  let g, err = reduced_costs t y ~with_cost:false in
  (* [g] is -A'y here; E = -g.x - y.s. A term with an infinite bound
     can only push its side outward, which then certifies nothing. *)
  let low = ksum () and high = ksum () in
  let low_open = ref false and high_open = ref false in
  let add c lo hi =
    if c <> 0.0 then begin
      let a = c *. lo and b = c *. hi in
      let l = Float.min a b and h = Float.max a b in
      if Float.is_finite l then kadd low l else low_open := true;
      if Float.is_finite h then kadd high h else high_open := true
    end
  in
  Array.iteri (fun j gj -> add (-.gj) t.lo.(j) t.hi.(j)) g;
  Array.iteri (fun r' yr -> add (-.yr) t.lo.(n + r') t.hi.(n + r')) y;
  ((not !low_open) && kvalue low -. (err +. (4.0 *. u *. low.abs)) > 0.0)
  || ((not !high_open) && kvalue high +. (err +. (4.0 *. u *. high.abs)) < 0.0)

let solve ?(budget = Budget.unlimited) t =
  Fbb_obs.Counter.incr solves_c;
  if Fbb_fault.Fault.fire "lp.pivot_limit" then begin
    Fbb_obs.Counter.incr pivot_limit_c;
    Pivot_limit
  end
  else begin
    let max_pivots = 200 * (t.m + t.n + 10) in
    let pivots = ref 0 and bland = ref false and degenerate = ref 0 in
    let stall_after = 4 * (t.m + 1) in
    let rec loop () =
      if not (Budget.ok budget) then begin
        Fbb_obs.Counter.incr budget_stop_c;
        Budget_exhausted
      end
      else
        let r = leaving t ~bland:!bland in
        if r < 0 then Optimal (safe_bound t)
        else begin
          let up = t.beta.(r) < t.lo.(t.head.(r)) in
          let q, ratio = entering t r ~up ~bland:!bland in
          if q < 0 then
            if certified_infeasible t r then Infeasible
            else begin
              Fbb_obs.Counter.incr uncertified_c;
              Uncertified
            end
          else if !pivots >= max_pivots then begin
            Fbb_obs.Counter.incr pivot_limit_c;
            Pivot_limit
          end
          else begin
            incr pivots;
            if ratio <= ratio_tol then begin
              incr degenerate;
              if !degenerate > stall_after && not !bland then begin
                Fbb_obs.Counter.incr bland_c;
                bland := true
              end
            end
            else degenerate := 0;
            pivot t r q ~up;
            loop ()
          end
        end
    in
    let outcome = loop () in
    Fbb_obs.Counter.add pivots_c !pivots;
    outcome
  end
