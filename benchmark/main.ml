(* The repository's benchmark of record. See benchmark/README.md.

   main.exe run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
     Without --workload, runs every workload, each in a fresh child
     process. Prints "workload metric value unit n" lines, writes
     bench_out/benchmark.json (and bench_out/benchmark-trace.json when
     traced), and exits 1 if any output fails its correctness check.
     With --workload, the last stdout line is the run's JSON verdict.

   main.exe summarize A.json... [-- B.json...]
     Median and quartiles per workload and metric over a set of
     bench_out/benchmark.json copies; with a second set, whether the two
     agree within the bounds in ./BENCHMARK.json. *)

module J = Fbb_util.Json
open Fbb_benchmark

let usage () =
  prerr_endline
    "usage: main.exe run [--workload NAME] [--seed N] [--seconds S] \
     [--trace [0|1]]\n\
    \       main.exe summarize A.json... [-- B.json...]";
  exit 2

type opts = {
  workload : string option;
  seed : int;
  seconds : int;
  trace : bool;
}

let rec parse o = function
  | [] -> o
  | "--workload" :: w :: rest when List.mem_assoc w Spec.workloads ->
    parse { o with workload = Some w } rest
  | "--seed" :: n :: rest when int_of_string_opt n <> None ->
    parse { o with seed = int_of_string n } rest
  | "--seconds" :: s :: rest
    when Option.fold ~none:false ~some:(fun s -> s > 0) (int_of_string_opt s)
    ->
    parse { o with seconds = int_of_string s } rest
  | "--trace" :: (("0" | "1") as t) :: rest ->
    parse { o with trace = t = "1" } rest
  | "--trace" :: rest -> parse { o with trace = true } rest
  | arg :: _ ->
    Printf.eprintf "main.exe run: bad or incomplete argument %s\n" arg;
    usage ()

let out_dir = "bench_out"

let out name =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  Filename.concat out_dir name

let record_file w = out (w ^ ".json")
let trace_file w = out (w ^ "-trace.json")

let run_one o w =
  Fbb_par.Pool.set_jobs Spec.jobs;
  let { seed; seconds; trace; _ } = o in
  let r =
    match List.assoc w Spec.workloads with
    | Spec.Serve spec ->
      Serve_workload.run spec ~workload:w ~seed ~seconds ~trace
    | Spec.Prove | Spec.Mc_tune ->
      Batch_workload.run ~workload:w ~seed ~seconds ~trace
  in
  Record.print r;
  let rj = Record.to_json r in
  J.save rj ~path:(record_file w);
  J.save (Record.file_json [ rj ]) ~path:(out "benchmark.json");
  if trace then begin
    J.save r.spans ~path:(trace_file w);
    J.save (J.Obj [ (w, r.spans) ]) ~path:(out "benchmark-trace.json")
  end;
  print_endline (Record.verdict_line r);
  Record.correct r

(* Every workload in its own child process, so peak RSS and GC state do
   not leak from one into the next. *)
let run_all o =
  let child (w, _) =
    (* A child that dies early must not leave an older record behind. *)
    List.iter
      (fun f -> if Sys.file_exists f then Sys.remove f)
      [ record_file w; trace_file w ];
    let exe = Sys.executable_name in
    let args =
      [| exe; "run"; "--workload"; w; "--seed"; string_of_int o.seed;
         "--seconds"; string_of_int o.seconds;
         "--trace"; (if o.trace then "1" else "0") |]
    in
    let pid = Unix.create_process exe args Unix.stdin Unix.stdout Unix.stderr in
    snd (Unix.waitpid [] pid) = Unix.WEXITED 0
  in
  let ok = List.map child Spec.workloads in
  let collect file =
    List.concat_map
      (fun (w, _) ->
        let f = file w in
        if Sys.file_exists f then [ (w, J.load f) ] else [])
      Spec.workloads
  in
  J.save
    (Record.file_json (List.map snd (collect record_file)))
    ~path:(out "benchmark.json");
  if o.trace then
    J.save (J.Obj (collect trace_file)) ~path:(out "benchmark-trace.json");
  List.for_all Fun.id ok

let () =
  (* A daemon that dies mid-run must fail a write, not kill the
     benchmark. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> (
    let o =
      parse
        {
          workload = None;
          seed = 1;
          seconds = Spec.default_seconds;
          trace = false;
        }
        args
    in
    match
      match o.workload with Some w -> run_one o w | None -> run_all o
    with
    | true -> exit 0
    | false -> exit 1
    | exception Failure msg ->
      Printf.eprintf "benchmark: %s\n%!" msg;
      exit 1)
  | "summarize" :: files ->
    let rec split acc = function
      | "--" :: rest -> (List.rev acc, rest)
      | f :: rest -> split (f :: acc) rest
      | [] -> (List.rev acc, [])
    in
    let a, b = split [] files in
    if a = [] then usage ();
    let ok = Summarize.run ~bounds_file:"BENCHMARK.json" a b in
    exit (if ok then 0 else 1)
  | _ -> usage ()
