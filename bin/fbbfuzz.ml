(* fbbfuzz: differential fuzzer for the clustered-FBB solvers.

   Replays the persisted regression corpus, then generates random placed
   problems and cross-checks the heuristic, branch & bound and the
   refinement loop against the exact brute-force oracle and an
   independent invariant checker (Fbb_oracle). Failing cases are
   greedily minimized and written out as replayable .case files. *)

open Cmdliner

let cases_arg =
  let doc = "Number of random cases to generate (on top of the corpus)." in
  Arg.(value & opt int 100 & info [ "n"; "cases" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Root RNG seed; equal seeds fuzz identical case sequences." in
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let shrink_arg =
  let doc = "Minimize failing cases before writing repro files." in
  Arg.(value & opt bool true & info [ "shrink" ] ~docv:"BOOL" ~doc)

let corpus_dir_arg =
  let doc = "Replay every *.case file of $(docv) before fuzzing." in
  Arg.(
    value & opt (some string) None & info [ "corpus-dir" ] ~docv:"DIR" ~doc)

let repro_dir_arg =
  let doc = "Directory minimized failing cases are written to." in
  Arg.(value & opt string "fuzz_out" & info [ "repro-dir" ] ~docv:"DIR" ~doc)

let metamorphic_arg =
  let doc =
    "Also check metamorphic properties of the optimum (row permutation, \
     beta monotonicity, leakage scaling) on oracle-sized cases."
  in
  Arg.(value & opt bool true & info [ "metamorphic" ] ~docv:"BOOL" ~doc)

let ilp_seconds_arg =
  let doc = "Per-case branch & bound time budget in seconds." in
  Arg.(value & opt float 30.0 & info [ "ilp-seconds" ] ~docv:"S" ~doc)

let jobs_arg =
  let doc =
    "Width of the parallel domain pool used inside the solvers (default: \
     $(b,FBB_JOBS), else the machine's cores). Solver outputs are \
     bit-identical at any width."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let verbose_arg =
  let doc = "Print every case instead of a progress line per 10." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let trace_arg =
  let doc =
    "Write a JSONL event trace of the whole fuzz run (span/counter/gauge \
     events, convertible with $(b,fbbopt trace)) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let telemetry_arg =
  let doc =
    "Serve live telemetry on $(docv) while fuzzing: a background sampler \
     snapshots counters/gauges/span histograms into ring buffers and a \
     $(b,GET /metrics) (Prometheus text) + $(b,GET /snapshot.json) endpoint \
     exposes them (watch with $(b,fbbopt top))."
  in
  Arg.(value & opt (some int) None & info [ "telemetry" ] ~docv:"PORT" ~doc)

let faults_arg =
  let doc =
    "Inject deterministic faults at rate $(b,RATE) with seed $(b,SEED) and \
     fuzz the degradation cascade instead of the individual solvers. The \
     cascade under test runs with injection live at the sites \
     $(b,pool.worker), $(b,pool.transient), $(b,lp.pivot_limit), \
     $(b,io.transient) and $(b,budget.exhaust); the oracle referee and the \
     invariant checker run with injection paused, so faults may degrade the \
     answer to a later stage but can never corrupt the ground truth it is \
     judged against."
  in
  Arg.(
    value
    & opt (some (pair ~sep:',' float int)) None
    & info [ "faults" ] ~docv:"RATE,SEED" ~doc)

(* Case distribution: mostly oracle-sized (small row counts, C=2) so the
   exact cross-check fires, with a steady minority of larger instances
   that exercise the invariant-only path and an occasional coarse-level
   or truncated-constraint variant. *)
let random_case rng =
  let open Fbb_util in
  let oracle_sized = Rng.int rng 7 <> 0 in
  let rows = if oracle_sized then 2 + Rng.int rng 5 else 7 + Rng.int rng 4 in
  let gates = 40 + Rng.int rng 120 in
  let beta = 0.04 +. Rng.float rng 0.06 in
  let max_clusters =
    if oracle_sized && rows <= 5 && Rng.int rng 4 = 0 then 3 else 2
  in
  let level_stride = if Rng.int rng 5 = 0 then 1 + Rng.int rng 2 else 1 in
  let max_paths = if Rng.int rng 4 = 0 then Some (8 + Rng.int rng 24) else None in
  Fbb_oracle.Case.make ~beta ~max_clusters ~level_stride ?max_paths
    ~seed:(Rng.int rng 1_000_000) ~gates ~rows ()

type tally = {
  mutable total : int;
  mutable oracle_checked : int;
  mutable oracle_infeasible : int;
  mutable bb_proved : int;
  mutable failed : int;
}

let describe_case c =
  let open Fbb_oracle in
  Printf.sprintf "%s" (Case.name c)

let run_one ~tally ~verbose ~metamorphic ~ilp_seconds ~origin case =
  let open Fbb_oracle in
  let r = Differential.run ~metamorphic ~ilp_seconds case in
  tally.total <- tally.total + 1;
  (match r.Differential.outputs.Differential.oracle with
  | Differential.Checked Oracle.Infeasible ->
    tally.oracle_checked <- tally.oracle_checked + 1;
    tally.oracle_infeasible <- tally.oracle_infeasible + 1
  | Differential.Checked (Oracle.Optimal _) ->
    tally.oracle_checked <- tally.oracle_checked + 1
  | Differential.Skipped -> ());
  if r.Differential.outputs.Differential.bb.Differential.proved_optimal then
    tally.bb_proved <- tally.bb_proved + 1;
  if Differential.failed r then tally.failed <- tally.failed + 1;
  if verbose || Differential.failed r then
    Printf.printf "%s %-40s %s\n%!"
      (if Differential.failed r then "FAIL" else "ok  ")
      (describe_case case) origin;
  List.iter (fun m -> Printf.printf "     - %s\n%!" m) r.Differential.failures;
  r

let report_failure ~shrink ~repro_dir ~metamorphic ~ilp_seconds case =
  let open Fbb_oracle in
  let minimized, note =
    if shrink then begin
      Printf.printf "     shrinking...\n%!";
      let minimized, progress =
        Shrink.minimize
          ~run:(fun c ->
            (Differential.run ~metamorphic ~ilp_seconds c)
              .Differential.failures)
          case
      in
      ( minimized,
        Printf.sprintf "%d step(s) in %d attempt(s)" progress.Shrink.steps
          progress.Shrink.attempts )
    end
    else (case, "shrinking disabled")
  in
  let path = Case.save ~dir:repro_dir minimized in
  Printf.printf "     minimized to %s (%s)\n     repro written: %s\n%!"
    (describe_case minimized) note path;
  (* Print the residual failures of the minimized case so the log alone
     is actionable. *)
  if minimized <> case then
    List.iter
      (fun m -> Printf.printf "     - %s\n%!" m)
      (Differential.run ~metamorphic ~ilp_seconds minimized)
        .Differential.failures

(* Resolve --corpus-dir up front, before any fuzzing starts. An empty
   or missing corpus directory is a usage error (exit 2), not a quietly
   shorter run: a CI job pointing at the wrong path must fail loudly. A
   corrupt case file is equally hard. *)
let load_corpus = function
  | None -> []
  | Some dir -> (
    match Fbb_oracle.Case.load_dir dir with
    | [] ->
      Printf.eprintf
        "fbbfuzz: --corpus-dir %s: no *.case files found (missing or empty \
         directory)\n\
         %!"
        dir;
      exit 2
    | corpus -> corpus
    | exception Failure m ->
      Printf.eprintf "fbbfuzz: corrupt corpus: %s\n%!" m;
      exit 2)

let fuzz_body cases seed shrink corpus repro_dir metamorphic ilp_seconds
    verbose =
  let open Fbb_oracle in
  let tally =
    { total = 0; oracle_checked = 0; oracle_infeasible = 0; bb_proved = 0;
      failed = 0 }
  in
  let failing = ref [] in
  let consider ~origin case =
    let r = run_one ~tally ~verbose ~metamorphic ~ilp_seconds ~origin case in
    if Differential.failed r then failing := case :: !failing
  in
  if corpus <> [] then begin
    Printf.printf "replaying %d corpus case(s)\n%!" (List.length corpus);
    List.iter (fun (path, case) -> consider ~origin:path case) corpus
  end;
  (* random generation *)
  let rng = Fbb_util.Rng.create ~seed in
  for i = 1 to cases do
    (match random_case rng with
    | case -> consider ~origin:(Printf.sprintf "case %d/%d" i cases) case
    | exception Invalid_argument _ -> ());
    if (not verbose) && i mod 10 = 0 then
      Printf.printf
        "  %d/%d done (oracle-checked %d, infeasible %d, bb-proved %d, \
         failures %d)\n%!"
        i cases tally.oracle_checked tally.oracle_infeasible tally.bb_proved
        tally.failed
  done;
  List.iter
    (report_failure ~shrink ~repro_dir ~metamorphic ~ilp_seconds)
    (List.rev !failing);
  Printf.printf
    "fuzz summary: %d case(s), %d oracle-checked (%d infeasible), %d \
     bb-proved, %d failure(s)\n%!"
    tally.total tally.oracle_checked tally.oracle_infeasible tally.bb_proved
    tally.failed;
  if tally.failed = 0 then 0
  else begin
    Printf.eprintf "fbbfuzz: %d failing case(s); repros under %s\n%!"
      tally.failed repro_dir;
    1
  end

(* ----- cascade fuzzing under fault injection --------------------------- *)

(* --faults RATE,SEED: the system under test is the whole degradation
   cascade, judged by [Differential.run_cascade] (oracle + independent
   sign-off, both with injection paused). Any reported failure means
   faults leaked into the answer instead of merely degrading it. *)
let fault_fuzz_body ~cases ~seed ~shrink ~corpus ~repro_dir ~verbose ~rate
    ~fault_seed =
  let open Fbb_oracle in
  let module Cascade = Fbb_core.Cascade in
  Fbb_fault.Fault.configure ~rate ~seed:fault_seed;
  Fbb_fault.Fault.install_io_faults ();
  Printf.printf "fault injection: rate %g, seed %d\n%!" rate fault_seed;
  let total = ref 0 and failed = ref 0 and infeasible = ref 0 in
  let stage_counts = Array.make 3 0 in
  let stage_idx = function
    | Cascade.Ilp -> 0
    | Cascade.Heuristic -> 1
    | Cascade.Single_bb -> 2
  in
  (* Answer quality on oracle-tractable feasible cases: how many answers
     sit above the optimum, and the mean leakage/optimum ratio. *)
  let tractable = ref 0 and above = ref 0 and ratio_sum = ref 0.0 in
  let failing = ref [] in
  let consider ~origin case =
    let r =
      Differential.run_cascade ~max_clusters:case.Case.max_clusters case
    in
    incr total;
    let outcome_note =
      match r.Differential.c_result with
      | Some { Cascade.outcome = Cascade.Solved { stage; leakage_nw; _ }; _ }
        ->
        stage_counts.(stage_idx stage) <- stage_counts.(stage_idx stage) + 1;
        Option.iter
          (fun opt ->
            incr tractable;
            if leakage_nw > opt +. (1e-9 *. Float.max 1.0 opt) then incr above;
            ratio_sum := !ratio_sum +. (leakage_nw /. opt))
          r.Differential.c_optimum_nw;
        Printf.sprintf "[%s]" (Cascade.stage_name stage)
      | Some { Cascade.outcome = Cascade.Infeasible; _ } ->
        incr infeasible;
        "[infeasible]"
      | None -> "[crashed]"
    in
    let bad = Differential.cascade_failed r in
    if bad then begin
      incr failed;
      failing := case :: !failing
    end;
    if verbose || bad then
      Printf.printf "%s %-40s %-12s %s\n%!"
        (if bad then "FAIL" else "ok  ")
        (describe_case case) outcome_note origin;
    List.iter
      (fun m -> Printf.printf "     - %s\n%!" m)
      r.Differential.c_failures
  in
  List.iter (fun (path, case) -> consider ~origin:path case) corpus;
  let rng = Fbb_util.Rng.create ~seed in
  for i = 1 to cases do
    (match random_case rng with
    | case -> consider ~origin:(Printf.sprintf "case %d/%d" i cases) case
    | exception Invalid_argument _ -> ());
    if (not verbose) && i mod 10 = 0 then
      Printf.printf "  %d/%d done (%d failure(s))\n%!" i cases !failed
  done;
  (* Repro files are written with I/O faults still live: write_atomic
     retries transients, and the crash-safe protocol means a save that
     ultimately fails leaves no partial file behind. *)
  List.iter
    (fun case ->
      let minimized, note =
        if shrink then begin
          Printf.printf "     shrinking...\n%!";
          let minimized, progress =
            Shrink.minimize
              ~run:(fun c ->
                (Differential.run_cascade ~max_clusters:c.Case.max_clusters c)
                  .Differential.c_failures)
              case
          in
          ( minimized,
            Printf.sprintf "%d step(s) in %d attempt(s)" progress.Shrink.steps
              progress.Shrink.attempts )
        end
        else (case, "shrinking disabled")
      in
      match Case.save ~dir:repro_dir minimized with
      | path -> Printf.printf "     repro written: %s (%s)\n%!" path note
      | exception e ->
        Printf.printf "     repro save failed (injected I/O faults?): %s\n%!"
          (Printexc.to_string e))
    (List.rev !failing);
  Printf.printf
    "fault fuzz summary: %d case(s); stages ilp=%d heuristic=%d \
     single_bb=%d; %d infeasible; %d failure(s)\n%!"
    !total stage_counts.(0) stage_counts.(1) stage_counts.(2) !infeasible
    !failed;
  Printf.printf
    "answer quality: %d tractable, %d above the oracle optimum, mean \
     leakage/oracle %.4f\n%!"
    !tractable !above
    (!ratio_sum /. float_of_int !tractable);
  Printf.printf "fault stats (injected/evaluated):\n%!";
  List.iter
    (fun (site, evals, injections) ->
      Printf.printf "  %-16s %d/%d\n%!" site injections evals)
    (Fbb_fault.Fault.stats ());
  Fbb_fault.Fault.clear ();
  if !failed = 0 then 0
  else begin
    Printf.eprintf "fbbfuzz: %d failing case(s); repros under %s\n%!" !failed
      repro_dir;
    1
  end

let fuzz cases seed shrink corpus_dir repro_dir metamorphic ilp_seconds jobs
    verbose trace telemetry faults =
  Option.iter Fbb_par.Pool.set_jobs jobs;
  let corpus = load_corpus corpus_dir in
  let run () =
    match faults with
    | Some (rate, fault_seed) ->
      fault_fuzz_body ~cases ~seed ~shrink ~corpus ~repro_dir ~verbose ~rate
        ~fault_seed
    | None ->
      fuzz_body cases seed shrink corpus repro_dir metamorphic ilp_seconds
        verbose
  in
  let with_trace run =
    match trace with
    | None -> run ()
    | Some path ->
      (* Same sink discipline as fbbopt: trace the whole run under one
         root span, publish pool utilization while the sink is still
         installed, and close (fsync) the file even if the run raises. *)
      let jsonl = Fbb_obs.Jsonl.create path in
      Fbb_obs.Sink.install (Fbb_obs.Jsonl.sink jsonl);
      Fun.protect
        ~finally:(fun () ->
          Fbb_par.Pool.publish_utilization ();
          Fbb_obs.Sink.clear ();
          Fbb_obs.Jsonl.close jsonl)
        (fun () -> Fbb_obs.Span.with_ ~name:"fbbfuzz.run" run)
  in
  match telemetry with
  | None -> with_trace run
  | Some port -> (
    (* Span histograms only record while a sink is installed; with no
       --trace the null sink turns instrumentation on for the sampler. *)
    if trace = None then Fbb_obs.Sink.install Fbb_obs.Sink.null;
    let sampler = Fbb_obs.Telemetry.start () in
    match Fbb_obs.Telemetry.serve ~port () with
    | Error msg ->
      Fbb_obs.Telemetry.stop sampler;
      if trace = None then Fbb_obs.Sink.clear ();
      Printf.eprintf "fbbfuzz: telemetry: %s\n%!" msg;
      2
    | Ok srv ->
      Printf.eprintf "fbbfuzz: telemetry on http://127.0.0.1:%d/metrics\n%!"
        (Fbb_obs.Telemetry.port srv);
      Fun.protect
        ~finally:(fun () ->
          Fbb_par.Pool.publish_utilization ();
          Fbb_obs.Telemetry.stop sampler;
          Fbb_obs.Telemetry.shutdown srv;
          if trace = None then Fbb_obs.Sink.clear ())
        (fun () -> with_trace run))

let () =
  let info =
    Cmd.info "fbbfuzz" ~version:"1.0.0"
      ~doc:
        "Differential fuzzing of the clustered-FBB solvers against an exact \
         brute-force oracle"
  in
  let term =
    Term.(
      const fuzz $ cases_arg $ seed_arg $ shrink_arg $ corpus_dir_arg
      $ repro_dir_arg $ metamorphic_arg $ ilp_seconds_arg $ jobs_arg
      $ verbose_arg $ trace_arg $ telemetry_arg $ faults_arg)
  in
  exit (Cmd.eval' (Cmd.v info term))
