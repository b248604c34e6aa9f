let build ?margin placement =
  Problem.build ~levels:(Fbb_tech.Bias.rbb_levels ()) ~beta:0.0 ?margin
    placement

type result = {
  levels : int array;
  clusters : int;
  nominal_leakage_nw : float;
  recovered_leakage_nw : float;
  savings_pct : float;
  signoff_clean : bool;
  iterations : int;
}

(* Criticality mirror: rows whose cells sit on tight-slack paths must stay
   near NBB; rank by the same 1/slack weighting as the FBB heuristic. *)
let criticality (p : Problem.t) =
  let ct = Array.make (Problem.num_rows p) 0.0 in
  let epsilon = Float.max 1e-6 (p.dcrit *. 1e-3) in
  Array.iteri
    (fun k (rows : Problem.rowvec) ->
      let weight = 1.0 /. (Float.max 0.0 p.nominal_slack.(k) +. epsilon) in
      Array.iter (fun r -> ct.(r) <- ct.(r) +. weight) rows.idx)
    p.path_rows;
  ct

(* Merge down to the cluster budget: lowering a row's RBB depth (towards
   NBB) can only relax timing, so merge the adjacent used-level pair whose
   merge-to-the-shallower-level wastes the least recovery. *)
let rec shrink (p : Problem.t) ~max_clusters levels =
  let used = Solution.clusters_used levels in
  if List.length used <= max_clusters then levels
  else begin
    let rec adj = function
      | a :: (b :: _ as rest) -> (a, b) :: adj rest
      | [ _ ] | [] -> []
    in
    (* used is ascending; merging (shallow, deep) moves deep rows to the
       shallow level. *)
    let cost lo hi =
      let acc = ref 0.0 and leak = p.design.row_leak in
      Array.iteri
        (fun r l ->
          if l = hi then acc := !acc +. leak.(r).(lo) -. leak.(r).(hi))
        levels;
      !acc
    in
    let best =
      List.fold_left
        (fun acc (lo, hi) ->
          let c = cost lo hi in
          match acc with
          | Some (_, _, c') when c' <= c -> acc
          | Some _ | None -> Some (lo, hi, c))
        None (adj used)
    in
    match best with
    | None -> levels
    | Some (lo, hi, _) ->
      shrink p ~max_clusters
        (Array.map (fun l -> if l = hi then lo else l) levels)
  end

let greedy ~max_clusters p =
  let nrows = Problem.num_rows p in
  let nlev = Problem.num_levels p in
  let ct = criticality p in
  let ranked = Array.init nrows (fun i -> i) in
  Array.sort
    (fun a b ->
      match Float.compare ct.(a) ct.(b) with
      | 0 -> Int.compare a b
      | c -> c)
    ranked;
  (* Deepen reverse bias on the least-critical rows, one level per round,
     locking a row at its current depth once a further step breaks the
     budget. *)
  let checker = Solution.Checker.create p (Solution.uniform p 0) in
  let locked = Array.make nrows false in
  let running = ref true in
  while !running do
    let moved = ref false in
    Array.iter
      (fun r ->
        if not locked.(r) then begin
          let cur = Solution.Checker.level checker ~row:r in
          if cur >= nlev - 1 then locked.(r) <- true
          else begin
            Solution.Checker.set checker ~row:r ~level:(cur + 1);
            if Solution.Checker.feasible checker then moved := true
            else begin
              Solution.Checker.set checker ~row:r ~level:cur;
              locked.(r) <- true
            end
          end
        end)
      ranked;
    if not !moved then running := false
  done;
  shrink p ~max_clusters (Solution.Checker.levels checker)

let optimize ?(max_clusters = 2) ?(max_iterations = 8) p =
  if max_clusters < 1 then invalid_arg "Recovery.optimize: max_clusters < 1";
  (* Greedy always returns an assignment, so the refinement loop always
     answers. *)
  let o =
    Option.get
      (snd
         (Refine.solve ~max_iterations ~solver:(greedy ~max_clusters)
            ~levels_of:Option.some p))
  in
  let nominal = Solution.leakage_nw p (Solution.uniform p 0) in
  let recovered = Solution.leakage_nw p o.Refine.levels in
  {
    levels = o.Refine.levels;
    clusters = Solution.cluster_count o.Refine.levels;
    nominal_leakage_nw = nominal;
    recovered_leakage_nw = recovered;
    savings_pct = Fbb_util.Stats.ratio_pct nominal recovered;
    signoff_clean = o.Refine.signoff_clean;
    iterations = o.Refine.iterations;
  }
