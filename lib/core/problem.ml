module Placement = Fbb_place.Placement
module Timing = Fbb_sta.Timing
module Paths = Fbb_sta.Paths
module Device = Fbb_tech.Device
module CL = Fbb_tech.Cell_library

type rowvec = { idx : int array; coef : float array }

type design = {
  placement : Placement.t;
  cache : Fbb_sta.Delay_cache.t;
  analysis : Timing.t;
  through : Paths.path array;
  levels : float array;
  reduction : float array;
  row_leak : float array array;
}

type t = {
  design : design;
  beta : float;
  dcrit : float;
  paths : Paths.path array;
  required : float array;
  path_rows : rowvec array;
  row_paths : rowvec array;
  nominal_slack : float array;
}

let num_rows t = Placement.num_rows t.design.placement
let num_levels t = Array.length t.design.levels
let num_paths t = Array.length t.paths

(* Per-(row, level) leakage tables: one device-model evaluation per
   level, then a multiply per gate ([leakage_nw] is
   [leak_nw * leakage_factor], so the fold adds the same products in the
   same order as the per-gate walk it replaces). *)
let leak_tables placement ~device ~levels =
  let nl = Placement.netlist placement in
  let leak_f =
    Array.map (fun vbs -> Device.leakage_factor device ~vbs) levels
  in
  Array.init (Placement.num_rows placement) (fun r ->
      let gates = Placement.row_gates placement r in
      Array.map
        (fun f ->
          Array.fold_left
            (fun acc g ->
              acc +. ((Fbb_netlist.Netlist.cell nl g).CL.leak_nw *. f))
            0.0 gates)
        leak_f)

let prepare ?levels placement =
  Fbb_obs.Span.with_ ~name:"problem.prepare" @@ fun () ->
  let levels = Option.value levels ~default:(Fbb_tech.Bias.levels ()) in
  if Array.length levels = 0 || levels.(0) <> 0.0 then
    invalid_arg "Problem.prepare: levels must start at 0 (no body bias)";
  let nl = Placement.netlist placement in
  let device = CL.device (Fbb_netlist.Netlist.library nl) in
  let cache = Fbb_sta.Delay_cache.create nl in
  let analysis = Timing.analyze ~cache nl in
  {
    placement;
    cache;
    analysis;
    through = Paths.through_cell analysis;
    levels;
    reduction =
      Array.map (fun vbs -> 1.0 -. Device.delay_factor device ~vbs) levels;
    row_leak = leak_tables placement ~device ~levels;
  }

(* The Pi screen, decided once per level set. When no level slows a gate
   (every reduction >= 0), a path whose degraded delay already meets
   [dcrit] can never violate and is dropped. A reverse level (negative
   reduction) can push any path over the budget, so every path is kept. *)
let screen ~reduction ~beta ~dcrit =
  if Array.exists (fun r -> r < 0.0) reduction then fun (_ : float) -> true
  else fun delay -> delay *. (1.0 +. beta) > dcrit +. 1e-9

(* All per-path tables are derived from the nominal analysis: a path's
   degraded delay is its nominal delay times (1 + beta), and body bias
   scales every gate delay by the same level-dependent factor. The one
   assembler behind [pose], [extend] and [select]. *)
let assemble d ~beta ~dcrit paths =
  let placement = d.placement in
  let nrows = Placement.num_rows placement in
  let required =
    Array.map (fun p -> (p.Paths.delay *. (1.0 +. beta)) -. dcrit) paths
  in
  let nominal_slack = Array.map (fun p -> dcrit -. p.Paths.delay) paths in
  let path_rows =
    (* Scratch per-row accumulators reused across paths: resetting only
       the touched rows keeps assembly O(total path gates) with no
       hashtable traffic. Per-row sums add the same terms in the same
       order as the hashtable walk this replaces. *)
    let scratch = Array.make nrows 0.0 in
    let seen = Array.make nrows false in
    let touched = Array.make (max nrows 1) 0 in
    Array.map
      (fun p ->
        let k = ref 0 in
        Array.iter
          (fun g ->
            let r = Placement.row_of placement g in
            if r >= 0 then begin
              let delay = Timing.gate_delay d.analysis g *. (1.0 +. beta) in
              if not seen.(r) then begin
                seen.(r) <- true;
                touched.(!k) <- r;
                incr k
              end;
              scratch.(r) <- delay +. scratch.(r)
            end)
          p.Paths.gates;
        let rows = Array.sub touched 0 !k in
        Array.sort Int.compare rows;
        let coef = Array.map (fun r -> scratch.(r)) rows in
        Array.iter
          (fun r ->
            scratch.(r) <- 0.0;
            seen.(r) <- false)
          rows;
        { idx = rows; coef })
      paths
  in
  let row_paths =
    (* Transpose in two passes (count, then fill) so each row lands in
       exactly-sized parallel arrays; per-row path order is ascending
       [k], same as the list-append transpose it replaces. *)
    let counts = Array.make nrows 0 in
    Array.iter
      (fun rv -> Array.iter (fun r -> counts.(r) <- counts.(r) + 1) rv.idx)
      path_rows;
    let out =
      Array.init nrows (fun r ->
          { idx = Array.make counts.(r) 0; coef = Array.make counts.(r) 0.0 })
    in
    let fill = Array.make nrows 0 in
    Array.iteri
      (fun k rv ->
        Array.iteri
          (fun i r ->
            let o = out.(r) in
            o.idx.(fill.(r)) <- k;
            o.coef.(fill.(r)) <- rv.coef.(i);
            fill.(r) <- fill.(r) + 1)
          rv.idx)
      path_rows;
    out
  in
  {
    design = d;
    beta;
    dcrit;
    paths;
    required;
    path_rows;
    row_paths;
    nominal_slack;
  }

let pose ?(margin = 0.0) ~beta d =
  Fbb_obs.Span.with_ ~name:"problem.build" @@ fun () ->
  if not (Float.is_finite beta && beta >= 0.0) then
    invalid_arg "Problem.pose: beta must be finite and >= 0";
  if not (Float.is_finite margin && margin >= 0.0) then
    invalid_arg "Problem.pose: margin must be finite and >= 0";
  let dcrit = Timing.dcrit d.analysis *. (1.0 +. margin) in
  let keep = screen ~reduction:d.reduction ~beta ~dcrit in
  assemble d ~beta ~dcrit
    (Array.of_list
       (List.filter (fun p -> keep p.Paths.delay) (Array.to_list d.through)))

let build ?levels ?margin ~beta placement =
  pose ?margin ~beta (prepare ?levels placement)

let extend t extra =
  let d = t.design in
  let keep = screen ~reduction:d.reduction ~beta:t.beta ~dcrit:t.dcrit in
  let seen = Hashtbl.create (Array.length t.paths * 2) in
  Array.iter (fun p -> Hashtbl.replace seen p.Paths.gates ()) t.paths;
  let fresh =
    Array.to_list extra
    |> List.filter_map (fun p ->
           if Hashtbl.mem seen p.Paths.gates then None
           else begin
             Hashtbl.replace seen p.Paths.gates ();
             (* Recompute the delay under the nominal analysis: callers may
                hand us paths measured under bias. *)
             let delay = Paths.delay_of d.analysis p.Paths.gates in
             if keep delay then Some { Paths.gates = p.Paths.gates; delay }
             else None
           end)
  in
  if fresh = [] then t
  else
    assemble d ~beta:t.beta ~dcrit:t.dcrit
      (Array.append t.paths (Array.of_list fresh))

let select t kept =
  assemble t.design ~beta:t.beta ~dcrit:t.dcrit
    (Array.map (fun k -> t.paths.(k)) kept)

let coefficient t ~path ~row ~level =
  let rows = t.path_rows.(path) in
  let rec find lo hi =
    if lo > hi then 0.0
    else
      let mid = (lo + hi) / 2 in
      let r = rows.idx.(mid) in
      if r = row then rows.coef.(mid) *. t.design.reduction.(level)
      else if r < row then find (mid + 1) hi
      else find lo (mid - 1)
  in
  find 0 (Array.length rows.idx - 1)

let achieved t ~levels ~path =
  let rows = t.path_rows.(path) in
  let reduction = t.design.reduction in
  let acc = ref 0.0 in
  for i = 0 to Array.length rows.idx - 1 do
    acc := !acc +. (rows.coef.(i) *. reduction.(levels.(rows.idx.(i))))
  done;
  !acc

let timing_eps = 1e-9

let max_single_level t =
  let nrows = num_rows t in
  let feasible j =
    let levels = Array.make nrows j in
    let npaths = num_paths t in
    let rec go k =
      k >= npaths
      || (achieved t ~levels ~path:k >= t.required.(k) -. timing_eps
         && go (k + 1))
    in
    go 0
  in
  let rec search j =
    if j >= num_levels t then None
    else if feasible j then Some j
    else search (j + 1)
  in
  search 0

let row_leakage t ~row ~level = t.design.row_leak.(row).(level)

let total_leakage t ~levels =
  let row_leak = t.design.row_leak in
  let acc = ref 0.0 in
  Array.iteri (fun r j -> acc := !acc +. row_leak.(r).(j)) levels;
  !acc

let pp_summary fmt t =
  Format.fprintf fmt
    "beta=%.0f%% dcrit=%.1fps rows=%d levels=%d constraints=%d"
    (t.beta *. 100.0) t.dcrit (num_rows t) (num_levels t) (num_paths t)
