module Problem = Fbb_core.Problem
module Placement = Fbb_place.Placement
module Timing = Fbb_sta.Timing
module Paths = Fbb_sta.Paths
module CL = Fbb_tech.Cell_library
module Device = Fbb_tech.Device

(* Relative comparisons for recomputed leakage: accumulation order
   differs between the table path and the per-gate path, so demand
   agreement to ~1e-9 of the magnitude rather than absolutely. *)
let close a b =
  Float.abs (a -. b)
  <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check ?(max_clusters = 2) ?reported_leakage_nw p ~levels =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let nrows = Problem.num_rows p in
  let nlev = Problem.num_levels p in
  if Array.length levels <> nrows then
    fail "assignment has %d rows, problem has %d" (Array.length levels) nrows
  else begin
    Array.iteri
      (fun r j ->
        if j < 0 || j >= nlev then fail "row %d level %d out of range" r j)
      levels;
    if !failures = [] then begin
      let clusters = Fbb_core.Solution.cluster_count levels in
      if clusters > max_clusters then
        fail "%d clusters used, budget is %d" clusters max_clusters;
      (* Timing, re-derived from the nominal analysis: for each constraint
         path, sum each gate's degraded delay into its row, then apply the
         device's level speed-up directly. *)
      let placement = p.Problem.design.placement in
      let analysis = p.Problem.design.analysis in
      let nl = Placement.netlist placement in
      let lib = Fbb_netlist.Netlist.library nl in
      let device = CL.device lib in
      let reduction_of j =
        1.0 -. Device.delay_factor device ~vbs:p.Problem.design.levels.(j)
      in
      let reduction = Array.init nlev reduction_of in
      Array.iteri
        (fun k path ->
          let achieved = ref 0.0 in
          Array.iter
            (fun g ->
              let r = Placement.row_of placement g in
              if r >= 0 then
                achieved :=
                  !achieved
                  +. Timing.gate_delay analysis g
                     *. (1.0 +. p.Problem.beta)
                     *. reduction.(levels.(r)))
            path.Paths.gates;
          let required =
            (path.Paths.delay *. (1.0 +. p.Problem.beta)) -. p.Problem.dcrit
          in
          if !achieved < required -. 1e-6 then
            fail
              "path %d: independent achieved reduction %.6f ps < required \
               %.6f ps"
              k !achieved required)
        p.Problem.paths;
      (* Leakage, re-summed gate by gate from the cell library. *)
      let direct = ref 0.0 in
      Array.iter
        (fun g ->
          let r = Placement.row_of placement g in
          if r >= 0 then
            direct :=
              !direct
              +. CL.leakage_nw lib
                   (Fbb_netlist.Netlist.cell nl g)
                   ~vbs:p.Problem.design.levels.(levels.(r)))
        (Fbb_netlist.Netlist.gates nl);
      let table = Fbb_core.Solution.leakage_nw p levels in
      if not (close !direct table) then
        fail "leakage mismatch: per-gate %.9f nW vs table %.9f nW" !direct
          table;
      Option.iter
        (fun claimed ->
          if not (close !direct claimed) then
            fail "solver-reported leakage %.9f nW, independent sum %.9f nW"
              claimed !direct)
        reported_leakage_nw
    end
  end;
  List.rev !failures

let signoff p ~levels =
  let placement = p.Problem.design.placement in
  let nl = Placement.netlist placement in
  let beta = p.Problem.beta in
  let bias g =
    let r = Placement.row_of placement g in
    if r < 0 then 0.0 else p.Problem.design.levels.(levels.(r))
  in
  (* Deliberately routed through the incremental engine (base analysis
     at NBB, then one batch edit to the assignment): every fuzz case
     exercises the worklist propagation, refereed by the independent
     table re-derivation in [check]. Bit-identical to a from-scratch
     [Timing.analyze ~derate ~bias]. *)
  let ctx =
    Timing.Incremental.create ~derate:(fun _ -> 1.0 +. beta) nl
  in
  let biased = Timing.Incremental.set_bias ctx bias in
  let dcrit = Timing.dcrit biased in
  if dcrit <= p.Problem.dcrit +. 1e-6 then []
  else
    [
      Printf.sprintf
        "signoff: biased+degraded critical delay %.6f ps exceeds budget %.6f \
         ps"
        dcrit p.Problem.dcrit;
    ]
