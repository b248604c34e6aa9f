(* The correctness gate. Nothing here is timed: checks run after each
   measured window, against problems the benchmark rebuilds itself or
   against results recorded at calibration. Every failure names the
   workload and the request, cell or chunk. *)

module P = Fbb_serve.Protocol
module Core = Fbb_core

(* ----- serving ---------------------------------------------------------- *)

(* The problem a [Solve] for [workload] is posed on, rebuilt the public
   way: generate, place on the requested rows, build at [beta]. *)
let rebuild_problem workload ~beta =
  match workload with
  | P.Generated { seed; gates; rows } ->
    let nl = Fbb_netlist.Generators.random_module ~seed ~gates () in
    Core.Problem.build ~beta (Fbb_place.Placement.place ~target_rows:rows nl)
  | P.Benchmark name ->
    let spec = Fbb_netlist.Benchmarks.find name in
    Core.Flow.problem (Core.Flow.prepare spec) ~beta

(* The payload with the per-request fields removed: identical requests
   must produce byte-identical canonical payloads. *)
let canonical = function
  | P.Solved s ->
    P.encode_response (P.Solved { s with id = ""; elapsed_ms = 0.0 })
  | r -> P.encode_response r

type answer = {
  req_id : string;
  key : int;  (** index into the workload's key array *)
  response : P.response option;  (** [None]: never answered *)
}

(* Check every answer: each request must be answered, and a [Solved]
   payload must sign off on the rebuilt problem, report the problem's
   own leakage of its levels, and match every other answer to the same
   key. A reject or an [Infeasible] is a typed answer, not a wrong one;
   the serving metrics count it as a request that was not served.
   Returns the failures as [(request id, message)]. *)
let serve ~workload ~(spec : Spec.serve) answers =
  let problems = Hashtbl.create 16 in
  let problem key =
    match Hashtbl.find_opt problems key with
    | Some p -> p
    | None ->
      let p = rebuild_problem spec.keys.(key) ~beta:spec.beta in
      Hashtbl.add problems key p;
      p
  in
  let payloads = Hashtbl.create 16 in
  let fail a msg =
    Some (a.req_id, Printf.sprintf "%s: request %s: %s" workload a.req_id msg)
  in
  List.filter_map
    (fun a ->
      match a.response with
      | None -> fail a "no response"
      | Some (P.Solved s as r) -> (
        let p = problem a.key in
        let leak = Core.Problem.total_leakage p ~levels:s.levels in
        let canon = canonical r in
        if not (Core.Cascade.verify p ~max_clusters:spec.max_clusters s.levels)
        then fail a "levels fail sign-off on the rebuilt problem"
        else if leak <> s.leakage_nw then
          fail a
            (Printf.sprintf "leakage_nw %.17g, rebuilt problem says %.17g"
               s.leakage_nw leak)
        else
          match Hashtbl.find_opt payloads a.key with
          | None ->
            Hashtbl.add payloads a.key canon;
            None
          | Some c when c = canon -> None
          | Some _ ->
            fail a "payload differs from an identical earlier request")
      | Some _ -> None)
    answers

(* ----- table1-prove ----------------------------------------------------- *)

let cell_name (c : Spec.cell) =
  Printf.sprintf "%s beta=%g C=%d" c.design (c.cell_beta *. 100.0) c.c

let prove_cell ~workload (cell : Spec.cell) prepared
    (ev : Core.Flow.evaluation) =
  let fail msg =
    Some (Printf.sprintf "%s: cell %s: %s" workload (cell_name cell) msg)
  in
  match List.assoc_opt cell.c ev.Core.Flow.ilp with
  | None -> fail "no ILP result"
  | Some r -> (
    match (r.Core.Ilp_opt.proved_optimal, r.levels, r.leakage_nw) with
    | false, _, _ -> fail "not proved optimal"
    | true, Some levels, Some leak ->
      if leak <> cell.leakage_nw then
        fail
          (Printf.sprintf "leakage %.17g, reference %.17g" leak
             cell.leakage_nw)
      else if
        not
          (Core.Cascade.verify
             (Core.Flow.problem prepared ~beta:cell.cell_beta)
             ~max_clusters:cell.c levels)
      then fail "optimum fails sign-off"
      else None
    | true, _, _ -> fail "proved optimal without a signed-off assignment")

(* ----- mc-tune-10k ------------------------------------------------------ *)

let mc_chunk ~workload (reference : Spec.chunk_ref)
    (r : Fbb_variation.Montecarlo.t) =
  let same (y, l) (s : Fbb_variation.Montecarlo.strategy_stats) =
    s.yield_pct = y && s.mean_leakage_nw = l
  in
  if
    r.samples = Spec.mc_chunk_dies
    && same reference.no_tuning r.no_tuning
    && same reference.single_bb r.single_bb
    && same reference.clustered r.clustered
  then None
  else
    Some
      (Printf.sprintf
         "%s: chunk seed %d: statistics differ from the recorded reference"
         workload reference.chunk_seed)
