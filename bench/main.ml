(* Experiment harness: regenerates every table and figure of the paper.
   Run all experiments with [dune exec bench/main.exe], or one of them
   with [dune exec bench/main.exe -- <name>]. Options:
   --jobs N         domain-pool width (also FBB_JOBS; flag wins)
   --telemetry P    serve GET /metrics + /snapshot.json on port P while
                    the experiments run (watch with [fbbopt top])
   --telemetry-tick-ms MS  sampler period (default 500)
   Environment:
   FBB_MC_SAMPLES   Monte-Carlo dies per design in [yield] (default 50) *)

let experiments =
  [
    ("fig1", "inverter delay/leakage vs vbs sweep", Exp_fig1.run);
    ("fig2", "closed-loop tuning methodology on 4 blocks", Exp_fig2.run);
    ("fig3", "contact-cell insertion and row utilization", Exp_fig3.run);
    ("table1", "leakage savings on the 9-design suite", Exp_table1.run);
    ("sweep-c", "c5315 cluster-count sweep C=2..11", Exp_sweep.run);
    ("area", "well-separation and utilization overheads", Exp_area.run);
    ("fig6", "placed c5315 layout with 2 vbs rails", Exp_fig6.run);
    ("yield", "extension: Monte-Carlo yield recovery", Exp_yield.run);
    ("scale-1k", "extension: MC recovery on a 1k-gate module", Exp_scale.run_1k);
    ( "scale-10k",
      "extension: MC recovery on a 10k-gate module",
      Exp_scale.run_10k );
    ("recovery", "extension: RBB active leakage recovery", Exp_recovery.run);
    ("serve", "extension: fbbd closed-loop serving latency", Exp_serve.run);
    ("speed", "bechamel micro-benchmarks", Exp_speed.run);
  ]

let usage () =
  print_endline
    "usage: main.exe [--jobs N] [--telemetry PORT [--telemetry-tick-ms MS]] \
     [experiment ...]";
  print_endline "experiments:";
  List.iter
    (fun (name, doc, _) -> Printf.printf "  %-8s %s\n" name doc)
    experiments;
  print_endline "(no argument runs everything in paper order)"

(* Every experiment runs inside a top-level span feeding an in-memory
   aggregator, so a per-experiment timing table closes the session. *)
let timed name run () = Fbb_obs.Span.with_ ~name:("exp." ^ name) run

let timing_table agg =
  match Baseline.exp_seconds agg with
  | [] -> ()
  | rows ->
    Exp_common.header "Experiment wall-clock summary";
    let tab = Fbb_util.Texttab.create ~headers:[ "experiment"; "seconds" ] in
    List.iter
      (fun (name, total_s) ->
        Fbb_util.Texttab.add_row tab
          [ name; Fbb_util.Texttab.cell_f ~digits:2 total_s ])
      rows;
    Fbb_util.Texttab.print tab

let telemetry_port = ref None
let telemetry_tick_ms = ref 500.0

let rec parse_args = function
  | "--jobs" :: n :: rest -> (
    match int_of_string_opt n with
    | Some jobs when jobs >= 1 ->
      Fbb_par.Pool.set_jobs jobs;
      parse_args rest
    | Some _ | None ->
      Printf.printf "--jobs expects a positive integer, got %s\n" n;
      exit 1)
  | [ "--jobs" ] ->
    print_endline "--jobs expects a positive integer";
    exit 1
  | "--telemetry" :: p :: rest -> (
    match int_of_string_opt p with
    | Some port when port >= 0 ->
      telemetry_port := Some port;
      parse_args rest
    | Some _ | None ->
      Printf.printf "--telemetry expects a port number, got %s\n" p;
      exit 1)
  | [ "--telemetry" ] ->
    print_endline "--telemetry expects a port number";
    exit 1
  | "--telemetry-tick-ms" :: ms :: rest -> (
    match float_of_string_opt ms with
    | Some tick when tick > 0.0 ->
      telemetry_tick_ms := tick;
      parse_args rest
    | Some _ | None ->
      Printf.printf "--telemetry-tick-ms expects a positive number, got %s\n"
        ms;
      exit 1)
  | [ "--telemetry-tick-ms" ] ->
    print_endline "--telemetry-tick-ms expects a positive number";
    exit 1
  | args -> args

let () =
  let args = parse_args (List.tl (Array.to_list Sys.argv)) in
  let agg = Fbb_obs.Aggregate.create () in
  Fbb_obs.Sink.install (Fbb_obs.Aggregate.sink agg);
  let telemetry =
    match !telemetry_port with
    | None -> None
    | Some port -> (
      let sampler =
        Fbb_obs.Telemetry.start ~tick_s:(!telemetry_tick_ms /. 1000.0) ()
      in
      match Fbb_obs.Telemetry.serve ~port () with
      | Error msg ->
        Fbb_obs.Telemetry.stop sampler;
        Printf.eprintf "bench: telemetry: %s\n%!" msg;
        exit 1
      | Ok srv ->
        Printf.eprintf "bench: telemetry on http://127.0.0.1:%d/metrics\n%!"
          (Fbb_obs.Telemetry.port srv);
        Some (sampler, srv))
  in
  Fun.protect ~finally:(fun () ->
      (* Utilization gauges land while the aggregate sink is still
         installed, so the session record carries them. Stopping the
         sampler runs one final pass, so its obs.telemetry.* self-cost
         gauges are current when Baseline.save snapshots them into the
         bench record. *)
      Fbb_par.Pool.publish_utilization ();
      Option.iter
        (fun (sampler, srv) ->
          Fbb_obs.Telemetry.stop sampler;
          Fbb_obs.Telemetry.shutdown srv)
        telemetry;
      Fbb_obs.Sink.clear ();
      timing_table agg;
      Baseline.save agg)
  @@ fun () ->
  match args with
  | [ "--help" ] | [ "-h" ] | [ "help" ] -> usage ()
  | [] -> List.iter (fun (name, _, run) -> timed name run ()) experiments
  | names ->
    List.iter
      (fun name ->
        match List.find_opt (fun (n, _, _) -> n = name) experiments with
        | Some (_, _, run) -> timed name run ()
        | None ->
          Printf.printf "unknown experiment %s\n" name;
          usage ();
          exit 1)
      names
