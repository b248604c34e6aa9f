(* Summaries over sets of runs: per workload and metric, the median and
   quartiles with sample counts; given a second set, whether the two
   agree within the bounds BENCHMARK.json fixes. *)

module J = Fbb_util.Json
module T = Fbb_util.Texttab

(* (workload, metric) -> value, for every record in a benchmark file
   (bench_out/benchmark.json) or a one-workload record
   (bench_out/<workload>.json). *)
let load path =
  let j = J.load path in
  let records =
    match (J.member_arr "workloads" j, J.member_str "name" j) with
    | Some ws, _ -> ws
    | None, Some _ -> [ j ]
    | None, None -> failwith (path ^ ": not a benchmark record")
  in
  List.concat_map
    (fun w ->
      let name = Option.value ~default:"?" (J.member_str "name" w) in
      let metrics key =
        Option.value ~default:[] (J.member_obj key w)
        |> List.filter_map (fun (m, v) ->
               Option.map (fun x -> ((name, m), x)) (J.member_num "value" v))
      in
      metrics "end_to_end" @ metrics "per_layer")
    records

type bound = { better : Spec.better; bound : float }

(* The end-to-end bounds declared in BENCHMARK.json. *)
let bounds path =
  Option.value ~default:[] (J.member_arr "end_to_end" (J.load path))
  |> List.filter_map (fun m ->
         let str k = J.member_str k m in
         match (str "name", str "better", J.member_num "bound" m) with
         | Some name, Some b, Some bound ->
           let better = if b = "higher" then Spec.Higher else Spec.Lower in
           Some (name, { better; bound })
         | _ -> None)

(* Values per (workload, metric) over a set of files, keys in first-seen
   order. *)
let collect files =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun f ->
      List.iter
        (fun (k, v) ->
          match Hashtbl.find_opt tbl k with
          | Some vs -> Hashtbl.replace tbl k (v :: vs)
          | None ->
            order := k :: !order;
            Hashtbl.add tbl k [ v ])
        (load f))
    files;
  let values k =
    Array.of_list (Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  (List.rev !order, values)

let quart xs = if Array.length xs >= 2 then Some (Pctl.quartiles xs) else None

(* Interquartile distance as a share of the median; unknown below two
   runs. *)
let spread xs =
  match quart xs with
  | Some (q1, med, q3) when med <> 0.0 -> (q3 -. q1) /. Float.abs med
  | _ -> infinity

let cell xs =
  match quart xs with
  | Some (q1, med, q3) -> Printf.sprintf "%.6g [%.6g, %.6g]" med q1 q3
  | None when Array.length xs = 1 -> Printf.sprintf "%.6g" xs.(0)
  | None -> "-"

(* Verdict for B against A. Worse by more than the bound is a
   regression; a spread wider than the bound on either side leaves the
   comparison unresolved, unless every run of B beats every run of A. *)
let verdict { better; bound } a b =
  let beats y x =
    match better with Spec.Lower -> y < x | Spec.Higher -> y > x
  in
  let ma = Pctl.median a and mb = Pctl.median b in
  let worse_by =
    (match better with Spec.Lower -> mb -. ma | Spec.Higher -> ma -. mb)
    /. Float.abs ma
  in
  let b_always_better =
    Array.for_all (fun y -> Array.for_all (fun x -> beats y x) a) b
  in
  if spread a > bound || spread b > bound then
    if b_always_better then "better" else "unresolved"
  else if worse_by > bound then "regressed"
  else if worse_by < -.bound then "better"
  else "agree"

(* Print the summary; [false] when anything regressed. *)
let run ~bounds_file a_files b_files =
  let keys, a = collect a_files in
  let _, b = collect b_files in
  let comparing = b_files <> [] in
  let bounds = if comparing then bounds bounds_file else [] in
  let tab =
    T.create
      ~headers:
        ([ "workload"; "metric"; "n"; "median [q1, q3]" ]
        @
        if comparing then [ "n B"; "B median [q1, q3]"; "bound"; "verdict" ]
        else [])
  in
  let regressed = ref false in
  List.iter
    (fun ((w, m) as k) ->
      let xa = a k in
      let row = [ w; m; string_of_int (Array.length xa); cell xa ] in
      if not comparing then T.add_row tab row
      else begin
        let xb = b k in
        let judged =
          match List.assoc_opt m bounds with
          | Some bd when Array.length xa > 0 && Array.length xb > 0 ->
            let v = verdict bd xa xb in
            if v = "regressed" then regressed := true;
            [ Printf.sprintf "%g" bd.bound; v ]
          | _ -> [ "-"; "-" ]
        in
        T.add_row tab
          (row @ [ string_of_int (Array.length xb); cell xb ] @ judged)
      end)
    keys;
  T.print tab;
  not !regressed
