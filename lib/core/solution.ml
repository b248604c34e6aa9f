let timing_eps = 1e-9

let uniform p j = Array.make (Problem.num_rows p) j

(* Early exit: sign-off loops call this per candidate, and one violated
   path already decides the answer. *)
let meets_timing p levels =
  let req = p.Problem.required in
  let n = Array.length req in
  let k = ref 0 in
  let ok = ref true in
  while !ok && !k < n do
    if Problem.achieved p ~levels ~path:!k < req.(!k) -. timing_eps then
      ok := false;
    incr k
  done;
  !ok

let leakage_nw p levels = Problem.total_leakage p ~levels

let clusters_used levels =
  List.sort_uniq Int.compare (Array.to_list levels)

let cluster_count levels = List.length (clusters_used levels)

let savings_pct p ~baseline levels =
  Fbb_util.Stats.ratio_pct (leakage_nw p baseline) (leakage_nw p levels)

let worst_margin p levels =
  let worst = ref Float.infinity in
  Array.iteri
    (fun k req ->
      let m = Problem.achieved p ~levels ~path:k -. req in
      if m < !worst then worst := m)
    p.Problem.required;
  !worst

module Checker = struct
  type t = {
    problem : Problem.t;
    levels : int array;
    sigma : float array;  (* achieved reduction per path *)
    mutable violations : int;
    mutable leak : float;  (* running total leakage of [levels] *)
  }

  let checks_c = Fbb_obs.Counter.make "checker.feasible_checks"
  let updates_c = Fbb_obs.Counter.make "checker.incremental_updates"

  let create problem levels0 =
    let levels = Array.copy levels0 in
    let sigma =
      Array.init (Problem.num_paths problem) (fun k ->
          Problem.achieved problem ~levels ~path:k)
    in
    let violations = ref 0 in
    Array.iteri
      (fun k req -> if sigma.(k) < req -. timing_eps then incr violations)
      problem.Problem.required;
    {
      problem;
      levels;
      sigma;
      violations = !violations;
      leak = Problem.total_leakage problem ~levels;
    }

  let set t ~row ~level =
    let old_level = t.levels.(row) in
    if old_level <> level then begin
      Fbb_obs.Counter.incr updates_c;
      let p = t.problem in
      let reduction = p.Problem.design.reduction in
      let delta = reduction.(level) -. reduction.(old_level) in
      let rp = p.Problem.row_paths.(row) in
      for i = 0 to Array.length rp.Problem.idx - 1 do
        let k = rp.Problem.idx.(i) in
        let req = p.Problem.required.(k) in
        let before = t.sigma.(k) in
        let after = before +. (rp.Problem.coef.(i) *. delta) in
        t.sigma.(k) <- after;
        let was_bad = before < req -. timing_eps in
        let is_bad = after < req -. timing_eps in
        if was_bad && not is_bad then t.violations <- t.violations - 1
        else if is_bad && not was_bad then t.violations <- t.violations + 1
      done;
      t.leak <-
        t.leak
        +. Problem.row_leakage p ~row ~level
        -. Problem.row_leakage p ~row ~level:old_level;
      t.levels.(row) <- level
    end

  let level t ~row = t.levels.(row)
  let levels t = Array.copy t.levels
  let leakage_nw t = t.leak

  let feasible t =
    Fbb_obs.Counter.incr checks_c;
    t.violations = 0
  let violation_count t = t.violations
end
