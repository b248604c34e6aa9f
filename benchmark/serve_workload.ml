(* serve-warm and serve-churn: the real fbbd daemon as a child process,
   driven open-loop over one connection. A run sends the steps low,
   high and over in that order; each step sends a fixed number of
   requests as one contiguous block at a frozen absolute rate, and the
   daemon drains fully before the next step starts. *)

module P = Fbb_serve.Protocol
module J = Fbb_util.Json

let now = Fbb_obs.Clock.now_s

type conn = { fd : Unix.file_descr; reader : P.reader }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* A daemon that stops answering fails the run instead of hanging it. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; reader = P.reader fd }

let rpc conn req =
  match P.write_frame conn.fd (P.encode_request req) with
  | Error e -> Error e
  | Ok () -> (
    match P.read_frame conn.reader with
    | Ok line -> P.decode_response line
    | Error e -> Error (P.read_error_to_string e))

let solve (spec : Spec.serve) ~id ~tenant workload =
  P.Solve
    {
      id;
      client = Some tenant;
      workload;
      beta = spec.beta;
      max_clusters = spec.max_clusters;
      deadline_ms = None;
      work_budget = Some spec.work_budget;
    }

(* The daemon's telemetry, when it was started with a metrics port. *)
let scrape d =
  Option.map
    (fun _ -> Result.fold ~ok:Fun.id ~error:failwith (Daemon.snapshot d))
    d.Daemon.metrics_port

(* Start a daemon, connect, and send one request per warm-up key. *)
let setup (spec : Spec.serve) ~metrics =
  Trace.with_ "setup" @@ fun () ->
  let t0 = now () in
  match Daemon.start ~metrics with
  | Error e -> failwith e
  | Ok d -> (
    let warm conn i w =
      let id = Printf.sprintf "warm-%d" i in
      match rpc conn (solve spec ~id ~tenant:"t0" w) with
      | Ok (P.Solved _) -> ()
      | Ok r -> failwith ("warm-up answered " ^ P.encode_response r)
      | Error e -> failwith ("warm-up: " ^ e)
    in
    match
      let conn = connect d.port in
      Array.iteri (warm conn) spec.warm_keys;
      conn
    with
    | conn -> (d, conn, now () -. t0)
    | exception e ->
      Daemon.kill d;
      raise e)

type segment = {
  plan : Schedule.segment;
  may_shed : bool;
  outcome : Openloop.outcome;
  keys : int array;
  responses : P.response option array;
  received : float array;  (** arrival time, nan when unanswered *)
  snapshot : J.t option;  (** telemetry after the step (traced pass) *)
}

type pass = {
  setups_s : float list;
  rss_mb : float;
  snapshot0 : J.t option;  (** telemetry before the first step *)
  segments : segment list;  (** one per step, in run order *)
  guard_errors : string list;
}

let req_id (plan : Schedule.segment) i = Printf.sprintf "%s.%d" plan.name i

let run_segment (spec : Spec.serve) (sched : Schedule.t) d conn ~workload
    ((plan : Schedule.segment), (step : Spec.step)) =
  let n = Array.length plan.offsets_s in
  let keys = Array.init n (fun i -> sched.key_of.(plan.first + i)) in
  let tenant i = Schedule.tenant_of (plan.first + i) ~tenants:Spec.tenants in
  let frames =
    Array.init n (fun i ->
        P.encode_request
          (solve spec ~id:(req_id plan i) ~tenant:(tenant i)
             spec.keys.(keys.(i))))
  in
  let index = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.replace index (req_id plan i) i
  done;
  let responses = Array.make n None and received = Array.make n nan in
  let record o (line, at) =
    match P.decode_response line with
    | Error e -> failwith ("undecodable response: " ^ e)
    | Ok r -> (
      match Hashtbl.find_opt index (P.response_id r) with
      | Some i ->
        responses.(i) <- Some r;
        received.(i) <- at;
        Trace.add ~name:("request:" ^ req_id plan i)
          ~start_s:o.Openloop.due.(i) ~stop_s:at
      | None -> failwith ("response to an unknown id: " ^ line))
  in
  let outcome =
    Trace.with_ ("step." ^ plan.name) @@ fun () ->
    let o =
      Openloop.run conn.fd conn.reader ~frames ~offsets_s:plan.offsets_s
    in
    List.iter (record o) o.replies;
    o
  in
  Option.iter
    (fun e -> failwith (Printf.sprintf "step %s: %s" plan.name e))
    outcome.error;
  let drained =
    match rpc conn (P.Stats { id = "drain-" ^ plan.name }) with
    | Ok (P.Stats_reply { stats; _ }) ->
      stats.queue_depth = 0 && stats.in_flight = 0
    | Ok _ | Error _ -> false
  in
  ( {
      plan;
      may_shed = step.may_shed;
      outcome;
      keys;
      responses;
      received;
      snapshot = scrape d;
    },
    if drained then []
    else
      [
        Printf.sprintf "%s: daemon did not drain after step %s" workload
          plan.name;
      ]
  )

let pass (spec : Spec.serve) ~workload ~seed ~seconds ~traced ~setups =
  let steps =
    List.map
      (fun (s : Spec.step) ->
        { s with requests = s.requests * Spec.repeats ~seconds })
      spec.steps
  in
  let sched =
    Schedule.make ~seed ~keys:(Array.length spec.keys)
      (List.map (fun (s : Spec.step) -> (s.step, s.rate_rps, s.requests)) steps)
  in
  (* Set up [setups] times; every daemon but the last is stopped again,
     and each must exit cleanly. *)
  let rec setup_all k acc errs =
    let d, conn, dt = setup spec ~metrics:traced in
    if k <= 1 then (d, conn, List.rev (dt :: acc), errs)
    else begin
      Unix.close conn.fd;
      let errs =
        match Daemon.stop d with
        | Ok () -> errs
        | Error e -> (workload ^ ": set-up daemon: " ^ e) :: errs
      in
      setup_all (k - 1) (dt :: acc) errs
    end
  in
  let d, conn, setups_s, setup_errs = setup_all setups [] [] in
  Fun.protect ~finally:(fun () -> Daemon.kill d) @@ fun () ->
  let snapshot0 = scrape d in
  let segments, segment_errs =
    List.split
      (List.map
         (run_segment spec sched d conn ~workload)
         (List.combine sched.segments steps))
  in
  let rss_mb = Daemon.vm_hwm_mb d.pid in
  Unix.close conn.fd;
  let stop_errs =
    match Daemon.stop d with Ok () -> [] | Error e -> [ workload ^ ": " ^ e ]
  in
  {
    setups_s;
    rss_mb;
    snapshot0;
    segments;
    guard_errors = List.rev setup_errs @ List.concat segment_errs @ stop_errs;
  }

(* ----- metrics ---------------------------------------------------------- *)

let step p name = List.find (fun s -> s.plan.name = name) p.segments

type solved = {
  id : string;
  stage : string;
  exhausted : bool;
  elapsed_ms : float;
}

let solved = function
  | Some (P.Solved { id; stage; exhausted; elapsed_ms; _ }) ->
    Some { id; stage; exhausted; elapsed_ms }
  | _ -> None

let requests s = Array.length s.responses

(* Every verified [Solved] answer of a step, with its latency in ms from
   the request's due time. *)
let verified ~ok s =
  List.filter_map Fun.id
    (List.init (requests s) (fun i ->
         match solved s.responses.(i) with
         | Some r when ok r.id ->
           Some
             ( r,
               Openloop.latency_ms ~due:s.outcome.due.(i)
                 ~received:s.received.(i) )
         | _ -> None))

let latencies ~ok s = Array.of_list (List.map snd (verified ~ok s))

(* Share of the step's requests answered with a verified [Solved] within
   the latency limit; anything else misses. *)
let slo_pct (spec : Spec.serve) ~ok s =
  let within =
    List.filter (fun (_, l) -> l <= spec.limit_ms) (verified ~ok s)
  in
  100.0 *. float_of_int (List.length within) /. float_of_int (requests s)

(* Verified [Solved] answers per second, from the step's first due send
   to its last answer. *)
let goodput ~ok s =
  let last =
    Array.fold_left
      (fun acc t -> if Float.is_nan t then acc else Float.max acc t)
      neg_infinity s.received
  in
  float_of_int (List.length (verified ~ok s)) /. (last -. s.outcome.due.(0))

let shed s =
  Array.fold_left
    (fun n -> function
      | Some (P.Rejected { reject = P.Overload _; _ }) -> n + 1
      | _ -> n)
    0 s.responses

(* Requests of a step not answered with a verified [Solved], leaving out
   the [Overload] rejects of a step that may shed. *)
let failed ~ok s =
  requests s - List.length (verified ~ok s) - if s.may_shed then shed s else 0

(* Share of the requests of the steps that may not shed ([low])
   answered with a verified [Solved]: a change that rejects or fails
   requests instead of serving them shows here, not as lower latency. *)
let solved_pct ~ok p =
  let steps = List.filter (fun s -> not s.may_shed) p.segments in
  let count f = float_of_int (List.fold_left (fun n s -> n + f s) 0 steps) in
  100.0 *. count (fun s -> List.length (verified ~ok s)) /. count requests

let verify (spec : Spec.serve) ~workload p =
  let answers =
    List.concat_map
      (fun s ->
        List.init (requests s) (fun i ->
            {
              Verify.req_id = req_id s.plan i;
              key = s.keys.(i);
              response = s.responses.(i);
            }))
      p.segments
  in
  Verify.serve ~workload ~spec answers

let end_to_end p ~ok =
  let v value n = { Record.value; n } in
  let low = step p "low" and over = step p "over" in
  let l = latencies ~ok low in
  let setup_s = Array.of_list p.setups_s in
  [
    ("setup_s", v (Pctl.median setup_s) (Array.length setup_s));
    ("rss_peak_mb", v p.rss_mb 1);
    ("p50_ms.low", v (Pctl.median l) (Array.length l));
    ("p90_ms.low", v (Pctl.p90 l) (Array.length l));
    ("solved_pct", v (solved_pct ~ok p) (requests low));
    ("goodput_per_s", v (goodput ~ok over) (List.length (verified ~ok over)));
  ]

(* Counter deltas over each step: the work the step made the daemon do
   (traced pass). *)
let step_counters before s =
  let counters j =
    Option.value ~default:[] (Option.bind j (J.member_obj "counters"))
  in
  let num j = Option.value ~default:0.0 (J.to_num j) in
  J.Obj
    (List.filter_map
       (fun (k, x) ->
         let before = List.assoc_opt k (counters before) in
         let dx = num x -. Option.fold ~none:0.0 ~some:num before in
         if dx <> 0.0 then Some (k, J.Num dx) else None)
       (List.sort compare (counters s.snapshot)))

let step_detail (spec : Spec.serve) ~ok before s =
  let lat = latencies ~ok s in
  let late = Openloop.lateness_ms s.outcome in
  let late_p99 = Pctl.percentile ~pct:99 late in
  let solve_ms =
    Array.of_list
      (List.filter_map
         (fun r -> Option.map (fun r -> r.elapsed_ms) (solved r))
         (Array.to_list s.responses))
  in
  let num x = J.Num x and count x = J.Num (float_of_int x) in
  J.Obj
    ([
       ("step", J.Str s.plan.name);
       ("rate_rps", num s.plan.rate_rps);
       ("requests", count (requests s));
       ("verified_solved", count (Array.length lat));
       ("shed", count (shed s));
       ("failed", count (failed ~ok s));
       ("solve_ms_mean", num (Fbb_util.Stats.mean solve_ms));
       ("p50_ms", num (Pctl.median lat));
       ("p90_ms", num (Pctl.p90 lat));
       ("max_ms", num (Pctl.max_or_zero lat));
       ("slo_pct", num (slo_pct spec ~ok s));
       ("goodput_per_s", num (goodput ~ok s));
       ("latencies_ms", J.Arr (Array.to_list (Array.map num lat)));
       ("lateness_p99_ms", num late_p99);
       ("lateness_max_ms", num (Pctl.max_or_zero late));
       (* The generator ran late enough to distort the offered load. *)
       ("valid", J.Bool (late_p99 <= 5.0));
     ]
    @
    if s.snapshot = None then []
    else [ ("counters", step_counters before s) ])

let detail (spec : Spec.serve) p ~ok =
  let befores =
    p.snapshot0 :: List.map (fun s -> s.snapshot) p.segments
  in
  J.Arr
    (List.mapi
       (fun i s -> step_detail spec ~ok (List.nth befores i) s)
       p.segments)

(* Counter deltas and inclusive span busy time between two daemon
   snapshots. *)
let snapshot_source ~before ~after =
  let rec num path j =
    match path with
    | [] -> Option.value ~default:0.0 (J.to_num j)
    | k :: rest -> (
      match J.member k j with Some v -> num rest v | None -> 0.0)
  in
  let counter name =
    num [ "counters"; name ] after -. num [ "counters"; name ] before
  in
  let busy j name =
    num [ "histograms"; name; "count" ] j
    *. num [ "histograms"; name; "mean_s" ] j
  in
  {
    Layers.counter;
    busy_s = (fun name -> busy after name -. busy before name);
  }

let per_layer p ~ok ~overhead_pct =
  let last = List.nth p.segments (List.length p.segments - 1) in
  let src =
    snapshot_source ~before:(Option.get p.snapshot0)
      ~after:(Option.get last.snapshot)
  in
  let c = src.counter in
  let answered =
    List.concat_map
      (fun s -> List.filter_map solved (Array.to_list s.responses))
      p.segments
  in
  let n_solved = List.length answered in
  let share f =
    Layers.pct
      (float_of_int (List.length (List.filter f answered)))
      (float_of_int n_solved)
  in
  let waits =
    Array.of_list
      (List.map
         (fun (r, l) -> l -. r.elapsed_ms)
         (verified ~ok (step p "high")))
  in
  let over = step p "over" in
  let lateness =
    Array.concat (List.map (fun s -> Openloop.lateness_ms s.outcome) p.segments)
  in
  let jobs = c "serve.solved" +. c "serve.infeasible" in
  let hits = c "serve.prepared_hits" and prepares = c "serve.prepares" in
  let prepare_busy = src.busy_s "serve.prepare" in
  let elapsed = Array.of_list (List.map (fun r -> r.elapsed_ms) answered) in
  let v value n = { Record.value; n } in
  [
    ("serve.solve_ms.p50", v (Pctl.median elapsed) n_solved);
    ("serve.wait_ms.p50", v (Pctl.median waits) (Array.length waits));
    ("serve.wait_ms.p90", v (Pctl.p90 waits) (Array.length waits));
    ( "gen.lateness_ms.p99",
      v (Pctl.percentile ~pct:99 lateness) (Array.length lateness) );
    ( "gen.lateness_ms.max",
      v (Pctl.max_or_zero lateness) (Array.length lateness) );
  ]
  @ Layers.of_list
      ([
         ("serve.batch_mean", Layers.ratio jobs (jobs -. c "serve.batched"));
         ("serve.prepared_hit_pct", Layers.pct hits (hits +. prepares));
         ( "serve.shed_pct.over",
           Layers.pct (float_of_int (shed over))
             (float_of_int (requests over)) );
         ("serve.prepare.count", prepares);
         ("serve.prepare.busy_s", prepare_busy);
         ( "serve.prepare.mean_ms",
           1000.0 *. Layers.ratio prepare_busy prepares );
         ("cascade.accepted_pct.ilp", share (fun r -> r.stage = "ilp"));
         ("cascade.accepted_pct.bb", share (fun r -> r.stage = "bb"));
         ( "cascade.accepted_pct.heuristic",
           share (fun r -> r.stage = "heuristic") );
         ( "cascade.accepted_pct.single_bb",
           share (fun r -> r.stage = "single_bb") );
         ("cascade.exhausted_pct", share (fun r -> r.exhausted));
         ("obs.tracing_overhead_pct", overhead_pct);
       ]
      @ Layers.common src)

(* ----- one workload run ------------------------------------------------- *)

(* Verify a pass; returns whether an answer id passed, and the failures. *)
let checked spec ~workload p =
  let failures = verify spec ~workload p in
  let bad = Hashtbl.create 8 in
  List.iter (fun (id, _) -> Hashtbl.replace bad id ()) failures;
  ((fun id -> not (Hashtbl.mem bad id)), List.map snd failures)

let attempted p = List.fold_left (fun n s -> n + requests s) 0 p.segments

(* Requests that failed correctness or were not served; a step that may
   shed does not count its [Overload] rejects. *)
let failures p ~ok = List.fold_left (fun n s -> n + failed ~ok s) 0 p.segments

let run (spec : Spec.serve) ~workload ~seed ~seconds ~trace =
  let untraced =
    pass spec ~workload ~seed ~seconds ~traced:false ~setups:Spec.serve_setups
  in
  let ok, verify_errs = checked spec ~workload untraced in
  let base =
    {
      Record.workload;
      seed;
      seconds;
      traced = trace;
      attempted = attempted untraced;
      failed = failures untraced ~ok;
      errors = untraced.guard_errors @ verify_errs;
      end_to_end = end_to_end untraced ~ok;
      per_layer = [];
      detail = [ ("steps", detail spec untraced ~ok) ];
      spans = J.Null;
    }
  in
  if not trace then base
  else begin
    Trace.enabled := true;
    let traced =
      Fun.protect ~finally:(fun () -> Trace.enabled := false) @@ fun () ->
      pass spec ~workload ~seed ~seconds ~traced:true ~setups:1
    in
    let tok, terrs = checked spec ~workload traced in
    let low_p50 p ~ok = Pctl.median (latencies ~ok (step p "low")) in
    let overhead_pct =
      Layers.overhead_pct ~untraced:(low_p50 untraced ~ok)
        ~traced:(low_p50 traced ~ok:tok)
    in
    let layers = per_layer traced ~ok:tok ~overhead_pct in
    let hit = (List.assoc "serve.prepared_hit_pct" layers).value in
    let hit_errs =
      if hit < spec.min_hit_pct || hit > spec.max_hit_pct then
        [
          Printf.sprintf "%s: serve.prepared_hit_pct %.1f outside [%g, %g]"
            workload hit spec.min_hit_pct spec.max_hit_pct;
        ]
      else []
    in
    {
      base with
      attempted = base.attempted + attempted traced;
      failed = base.failed + failures traced ~ok:tok;
      errors = base.errors @ traced.guard_errors @ terrs @ hit_errs;
      per_layer = Layers.complete layers;
      detail = base.detail @ [ ("traced_steps", detail spec traced ~ok:tok) ];
      spans = Trace.to_json ();
    }
  end
