(* Shared plumbing for the experiment harness. *)

let out_dir = "bench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let out_path name =
  ensure_out_dir ();
  Filename.concat out_dir name

let env_flag name = Sys.getenv_opt name <> None

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
  | None -> default

(* Work cap (subsets, interval-bound LPs and branch-and-bound nodes) for
   an ILP the experiments expect to prove. Work, not seconds, so whether
   a cell proves never depends on host load. *)
let ilp_work = 2_000_000

let header title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n" line title line

let opt_pct = function
  | Some v when Float.is_finite v -> Printf.sprintf "%.2f" v
  | Some _ | None -> "-"

(* Each design is prepared once per run and shared by the experiments,
   which ask for it from the main domain only. *)
let prepared_cache : (string, Fbb_core.Flow.prepared) Hashtbl.t =
  Hashtbl.create 16

let prepare name =
  match Hashtbl.find_opt prepared_cache name with
  | Some p -> p
  | None ->
    let p = Fbb_core.Flow.prepare (Fbb_netlist.Benchmarks.find name) in
    Hashtbl.add prepared_cache name p;
    p

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)
