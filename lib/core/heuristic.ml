type result = {
  jopt : int;
  levels : int array;
  clusters : int;
  leakage_nw : float;
  single_bb_leakage_nw : float;
  savings_pct : float;
  complete : bool;
}

let descents_c = Fbb_obs.Counter.make "heuristic.descents"
let covers_c = Fbb_obs.Counter.make "heuristic.covers"
let moves_c = Fbb_obs.Counter.make "heuristic.moves"
let candidates_c = Fbb_obs.Counter.make "heuristic.candidates"

let pass_one p =
  Fbb_obs.Span.with_ ~name:"heuristic.pass_one" @@ fun () ->
  Problem.max_single_level p

(* slack can be zero on the critical path itself; the epsilon keeps the
   ranking finite while preserving the order the paper intends. *)
let criticality p =
  let eps = Float.max 1e-6 (p.Problem.dcrit *. 1e-3) in
  let ct = Array.make (Problem.num_rows p) 0.0 in
  (* Q_ik cell counts come straight off the path gate lists. *)
  Array.iteri
    (fun k path ->
      let slack = p.Problem.nominal_slack.(k) in
      let weight = 1.0 /. (Float.max 0.0 slack +. eps) in
      Array.iter
        (fun g ->
          let r = Fbb_place.Placement.row_of p.Problem.design.placement g in
          if r >= 0 then ct.(r) <- ct.(r) +. weight)
        path.Fbb_sta.Paths.gates)
    p.Problem.paths;
  ct

let optimize ?(max_clusters = 2) ?(budget = Fbb_util.Budget.unlimited) p =
  if max_clusters < 1 then invalid_arg "Heuristic.optimize: C must be >= 1";
  Fbb_obs.Span.with_ ~name:"heuristic.optimize" @@ fun () ->
  match pass_one p with
  | None -> None
  | Some jopt ->
    let nrows = Problem.num_rows p in
    let nlev = Problem.num_levels p in
    let single_bb = Solution.uniform p jopt in
    let single_bb_leakage_nw = Solution.leakage_nw p single_bb in
    (* Flipped whenever the budget truncates a loop. Every intermediate
       state of the descent/cover machinery is feasible, so a truncated
       run still returns a valid (merely less optimized) assignment. *)
    let complete = ref true in
    let finish levels =
      let leakage_nw = Solution.leakage_nw p levels in
      Some
        {
          jopt;
          levels;
          clusters = Solution.cluster_count levels;
          leakage_nw;
          single_bb_leakage_nw;
          savings_pct =
            Fbb_util.Stats.ratio_pct single_bb_leakage_nw leakage_nw;
          complete = !complete;
        }
    in
    if jopt = 0 then finish single_bb
    else begin
      Fbb_obs.Span.with_ ~name:"heuristic.pass_two" @@ fun () ->
      let ct = criticality p in
      let ranked = Array.init nrows (fun i -> i) in
      (* increasing criticality: least critical first *)
      Array.sort
        (fun a b ->
          match Float.compare ct.(a) ct.(b) with
          | 0 -> Int.compare a b
          | c -> c)
        ranked;
      (* Descent pass (the paper's PassTwo): repeatedly move the
         least-critical rows one level down; a row whose move breaks
         timing is reverted and locked as part of the cluster at its
         current level. *)
      let descend init =
        Fbb_obs.Counter.incr descents_c;
        let checker = Solution.Checker.create p init in
        let locked = Array.make nrows false in
        let running = ref true in
        while !running do
          (* One budget tick per descent round - sequential, so a work
             budget truncates at the same round on every run. *)
          if not (Fbb_util.Budget.tick budget) then begin
            complete := false;
            running := false
          end
          else begin
          let moved = ref false in
          Array.iter
            (fun r ->
              if not locked.(r) then begin
                let cur = Solution.Checker.level checker ~row:r in
                if cur = 0 then locked.(r) <- true
                else begin
                  Solution.Checker.set checker ~row:r ~level:(cur - 1);
                  if Solution.Checker.feasible checker then begin
                    Fbb_obs.Counter.incr moves_c;
                    moved := true
                  end
                  else begin
                    Solution.Checker.set checker ~row:r ~level:cur;
                    locked.(r) <- true
                  end
                end
              end)
            ranked;
          if not !moved then running := false
          end
        done;
        (Solution.Checker.levels checker, Solution.Checker.leakage_nw checker)
      in
      (* Covering pass (the dual greedy): everyone at NBB, then raise rows
         to [level] in decreasing criticality until timing is met. *)
      let cover level =
        Fbb_obs.Counter.incr covers_c;
        let checker = Solution.Checker.create p (Solution.uniform p 0) in
        let k = ref (nrows - 1) in
        while (not (Solution.Checker.feasible checker)) && !k >= 0 do
          Solution.Checker.set checker ~row:ranked.(!k) ~level;
          decr k
        done;
        if Solution.Checker.feasible checker then
          Some (Solution.Checker.levels checker)
        else None
      in
      (* Budget enforcement: merge the adjacent cluster pair whose merge
         (raising the lower cluster, which can only help timing) costs the
         least leakage, until at most C levels remain. *)
      let merge_cost levels lo hi =
        let acc = ref 0.0 in
        Array.iteri
          (fun r l ->
            if l = lo then
              acc :=
                !acc
                +. Problem.row_leakage p ~row:r ~level:hi
                -. Problem.row_leakage p ~row:r ~level:lo)
          levels;
        !acc
      in
      (* [leak] rides along as a running total: a merge's leakage delta
         is exactly [merge_cost], so the budget loop never re-walks the
         rows to reprice a candidate. *)
      let rec shrink (levels, leak) =
        let used = Solution.clusters_used levels in
        if List.length used <= max_clusters then (levels, leak)
        else begin
          let rec adj = function
            | a :: (b :: _ as rest) -> (a, b) :: adj rest
            | [ _ ] | [] -> []
          in
          let best_pair =
            List.fold_left
              (fun acc (lo, hi) ->
                let c = merge_cost levels lo hi in
                match acc with
                | Some (_, _, c') when c' <= c -> acc
                | Some _ | None -> Some (lo, hi, c))
              None (adj used)
          in
          match best_pair with
          | None -> (levels, leak)
          | Some (lo, hi, c) ->
            shrink
              (Array.map (fun l -> if l = lo then hi else l) levels, leak +. c)
        end
      in
      (* Candidates: descents from every feasible uniform start (PassOne's
         jopt sits exactly at the feasibility edge, where the quantization
         margin can be too thin for any row to drop), and descents from
         every covering solution (which leave non-critical rows at NBB
         outright). Keep the cheapest after budget enforcement. *)
      let best = ref None in
      let consider candidate =
        Fbb_obs.Counter.incr candidates_c;
        let levels, leak = shrink candidate in
        match !best with
        | Some (_, b) when b <= leak -> ()
        | Some _ | None -> best := Some (levels, leak)
      in
      for start = jopt to nlev - 1 do
        if Fbb_util.Budget.ok budget then
          consider (descend (Solution.uniform p start))
        else complete := false
      done;
      for level = jopt to nlev - 1 do
        if Fbb_util.Budget.ok budget then
          match cover level with
          | Some c -> consider (descend c)
          | None -> ()
        else complete := false
      done;
      match !best with
      | Some (levels, _) -> finish levels
      | None -> finish single_bb
    end
