(* The fbbd daemon core. Thread layout:

     accept thread ──spawns──> one reader thread per connection
                                   │ admission (per-tenant lanes)
                                   v
                            solver thread ── batches ──> Cascade.solve
                                   ▲                      (lib/par pool)
                                   │ restarts
                            watchdog thread

   Readers only parse, admit and answer ping/stats; every solve runs on
   the single solver thread, which multiplexes the domain pool that the
   cascade stages fan out on. One solver thread is deliberate: the pool
   already saturates the machine for a single request, a second
   concurrent solve would only fight it for domains, and the strict
   admission order makes latency accounting and the drain barrier
   trivial. Concurrency lives at the edges (readers/writers), parallelism
   in the pool.

   Admission is per-tenant fair: each tenant (the request's [client] id,
   or a synthetic per-connection id) owns a bounded FIFO lane, and the
   solver drains lanes deficit-round-robin — one same-netlist batch per
   visit — so a flooding tenant saturates only its own lane and sheds
   [Overload] while a quiet tenant's requests keep their place near the
   head of their own short lane.

   The solver is supervised: it heartbeats under the server lock, and a
   watchdog thread detects a dead solver (escaped exception, injected
   ["serve.solver_crash"]) or a stalled one (heartbeat older than the
   stall threshold while work is in flight, injected
   ["serve.solver_stall"]), fails the in-flight batch as typed
   [Faulted], and restarts the solver under a fresh generation. A
   bounded circuit breaker turns repeated back-to-back restarts into
   [Shutting_down] sheds until a half-open probe succeeds.

   Responses are written by whichever thread produced them (reader for
   rejects and ping/stats, solver for solve payloads, watchdog for
   crash failures) under a per-connection write mutex, so frames never
   interleave; a per-job answered flag makes every answer exactly-once
   even when the watchdog and a lagging solver race. A request's
   payload is a pure function of (workload, beta, clusters, work
   budget): batching, lane order, the persistent context store and
   pool width cannot change it — the determinism suite replays a
   script at jobs 1 vs 4 and demands bit-identical payloads per
   request id. *)

module P = Protocol
module Budget = Fbb_util.Budget
module Clock = Fbb_obs.Clock
module Counter = Fbb_obs.Counter
module Gauge = Fbb_obs.Counter.Gauge
module Histogram = Fbb_obs.Histogram
module Span = Fbb_obs.Span
module Flight = Fbb_obs.Flight
module Fault = Fbb_fault.Fault

type config = {
  addr : string;
  port : int;
  queue_capacity : int;
  tenant_queue_cap : int;
  tenant_inflight_cap : int;
  conn_pending_cap : int;
  batch_max : int;
  max_frame : int;
  prepared_cap : int;
  max_gates : int;
  default_deadline_ms : float option;
  default_work : int option;
  idle_timeout_s : float option;
  write_timeout_s : float option;
  stall_threshold_s : float option;
  watchdog_tick_s : float;
  breaker_limit : int;
  breaker_cooldown_s : float;
  store_dir : string option;
}

let default_config =
  {
    addr = "127.0.0.1";
    port = 9620;
    queue_capacity = 64;
    tenant_queue_cap = 64;
    tenant_inflight_cap = 16;
    conn_pending_cap = 256;
    batch_max = 16;
    max_frame = P.default_max_frame;
    prepared_cap = 8;
    max_gates = 50_000;
    default_deadline_ms = None;
    default_work = None;
    idle_timeout_s = None;
    write_timeout_s = Some 30.0;
    stall_threshold_s = None;
    watchdog_tick_s = 0.05;
    breaker_limit = 5;
    breaker_cooldown_s = 1.0;
    store_dir = None;
  }

(* ----- counters / histograms ------------------------------------------- *)

let c_requests = lazy (Counter.make "serve.requests")
let c_solved = lazy (Counter.make "serve.solved")
let c_infeasible = lazy (Counter.make "serve.infeasible")
let c_shed_overload = lazy (Counter.make "serve.shed.overload")
let c_shed_draining = lazy (Counter.make "serve.shed.draining")
let c_bad_request = lazy (Counter.make "serve.bad_request")
let c_protocol_errors = lazy (Counter.make "serve.protocol_errors")
let c_fault_accept = lazy (Counter.make "serve.faults.accept")
let c_fault_read = lazy (Counter.make "serve.faults.read")
let c_fault_solver_crash = lazy (Counter.make "serve.faults.solver_crash")
let c_fault_solver_stall = lazy (Counter.make "serve.faults.solver_stall")
let c_request_faults = lazy (Counter.make "serve.request_faults")
let c_batches = lazy (Counter.make "serve.batches")
let c_batched = lazy (Counter.make "serve.batched")
let c_prepares = lazy (Counter.make "serve.prepares")
let c_prepared_hits = lazy (Counter.make "serve.prepared_hits")

(* Tenant fairness plane. *)
let c_tenant_shed = lazy (Counter.make "serve.tenant.shed")
let c_conn_shed = lazy (Counter.make "serve.conn.shed")
let g_tenant_lanes = lazy (Gauge.make "serve.tenant.lanes")

(* Connection hygiene. *)
let c_idle_evictions = lazy (Counter.make "serve.idle_evictions")
let c_write_errors = lazy (Counter.make "serve.write_errors")

(* Solver supervision. *)
let c_solver_restarts = lazy (Counter.make "serve.solver.restarts")
let c_breaker_trips = lazy (Counter.make "serve.breaker.trips")
let g_breaker_open = lazy (Gauge.make "serve.breaker.open")
let g_heartbeat_age = lazy (Gauge.make "serve.solver.heartbeat_age_s")

(* Persistent prepared-context store. *)
let c_store_hits = lazy (Counter.make "serve.store.hits")
let c_store_spills = lazy (Counter.make "serve.store.spills")
let c_store_spill_failed = lazy (Counter.make "serve.store.spill_failed")
let c_store_corrupt = lazy (Counter.make "serve.store.corrupt")
let c_store_signoff_ok = lazy (Counter.make "serve.store.signoff_ok")
let c_store_signoff_failed = lazy (Counter.make "serve.store.signoff_failed")

(* Latency histograms carry per-bucket trace-id exemplars: a scraped
   p99 bucket links straight to the flight-recorder entry of the last
   request that landed in it. *)
let h_latency =
  lazy
    (let h = Histogram.make "serve.latency" in
     Histogram.enable_exemplars h;
     h)

let h_queue_wait =
  lazy
    (let h = Histogram.make "serve.queue_wait" in
     Histogram.enable_exemplars h;
     h)

(* ----- connections ------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  cid : int;  (* synthetic tenant id for client-less requests *)
  wlock : Mutex.t;  (* serializes writes; also guards [closed] *)
  mutable closed : bool;
  pending : int Atomic.t;  (* admitted, not yet answered *)
}

(* [closed] guards against the fd-reuse hazard: once the reader closes
   the descriptor the OS may recycle its number, so every later write
   or shutdown must first check the flag under the same lock. *)
let close_conn conn =
  Mutex.protect conn.wlock @@ fun () ->
  if not conn.closed then begin
    conn.closed <- true;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

let shutdown_conn conn =
  Mutex.protect conn.wlock @@ fun () ->
  if not conn.closed then
    try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let respond conn resp =
  let line = P.encode_response resp in
  let ok =
    Mutex.protect conn.wlock @@ fun () ->
    if conn.closed then true
    else
      match P.write_frame conn.fd line with Ok () -> true | Error _ -> false
  in
  (* A failed write covers both a peer that hung up and a non-reading
     peer whose send deadline (SO_SNDTIMEO) expired with a full socket
     buffer: either way the connection is evicted — write-side
     backpressure, so a stalled reader cannot balloon memory. The
     close happens outside [wlock] (close_conn takes it itself). *)
  if not ok then begin
    Counter.incr (Lazy.force c_write_errors);
    close_conn conn
  end

(* ----- prepared problem contexts ---------------------------------------- *)

(* A prepared context is the workload's {!Fbb_core.Problem.design}: a
   request is [Problem.pose ~beta] on it. The design is closure-free
   plain data ([Timing.analyze] forces its requireds with
   [Lazy.from_val]), so strict Marshal works and would fail loudly if a
   closure ever crept in. The payload bytes double as the context's
   fingerprint: construction is deterministic, so two scratch builds of
   the same workload marshal bit-identically, which is exactly what the
   store signoff checks. *)
let prepared_to_payload (d : Fbb_core.Problem.design) = Marshal.to_string d []

let prepared_of_payload (s : string) : Fbb_core.Problem.design =
  Marshal.from_string s 0

let build_placement = function
  | P.Benchmark name ->
    let spec = Fbb_netlist.Benchmarks.find name in
    let nl = spec.Fbb_netlist.Benchmarks.generate () in
    Fbb_place.Placement.place ~target_rows:spec.Fbb_netlist.Benchmarks.rows nl
  | P.Generated { seed; gates; rows } ->
    let nl = Fbb_netlist.Generators.random_module ~seed ~gates () in
    Fbb_place.Placement.place ~target_rows:rows nl

let prepare workload =
  Span.with_ ~name:"serve.prepare" @@ fun () ->
  Counter.incr (Lazy.force c_prepares);
  Fbb_core.Problem.prepare (build_placement workload)

(* ----- server state ----------------------------------------------------- *)

type job = {
  solve : P.solve;
  conn : conn;
  tenant : string;
  admitted_s : float;
  answered : bool Atomic.t;  (* exactly-once answer, solver vs watchdog *)
}

(* One bounded FIFO lane per tenant, drained deficit-round-robin. The
   deficit is replenished by [batch_max] per visit and charged per job,
   so with every job costing one unit the discipline degenerates to
   round-robin over lanes with one same-netlist batch per turn — the
   fairness bound DESIGN §17 states. *)
type lane = {
  mutable jobs : job list;  (* FIFO; small, bounded by tenant_queue_cap *)
  mutable ldepth : int;
  mutable deficit : int;
}

type t = {
  cfg : config;
  sock : Unix.file_descr;
  port : int;
  store : Store.t option;
  lock : Mutex.t;
  nonempty : Condition.t;  (* some lane gained work, or stopping *)
  idle : Condition.t;  (* queue and in-flight both empty *)
  lanes : (string, lane) Hashtbl.t;
  mutable ring : string list;  (* round-robin order over nonempty lanes *)
  mutable depth : int;  (* total queued over all lanes *)
  mutable in_flight : int;
  mutable inflight_jobs : job list;  (* the batch being solved *)
  mutable served : int;
  mutable shed : int;
  mutable draining : bool;
  mutable stopping : bool;
  mutable mean_service_s : float;  (* EWMA feeding the retry-after hint *)
  (* solver supervision *)
  mutable solver_gen : int;  (* restarts retire a generation *)
  mutable solver_alive : bool;
  mutable solver_exn : string option;
  mutable heartbeat_s : float;
  mutable consecutive_restarts : int;
  mutable breaker_open : bool;
  mutable breaker_opened_s : float;
  (* persistent store trust state (solver thread only) *)
  mutable store_load_ok : bool;  (* false after a failed signoff *)
  mutable signoff_armed : bool;  (* first load per daemon arms one check *)
  mutable signoff_pending : (string * Digest.t) option;
  prepared : (string, Fbb_core.Problem.design) Hashtbl.t;
  mutable lru : string list;  (* most recent first *)
  next_cid : int Atomic.t;
  mutable conns : conn list;
  mutable threads : Thread.t list;  (* reader threads, for the final join *)
  mutable accept_thread : Thread.t option;
  mutable solver_thread : Thread.t option;
  mutable retired_solvers : Thread.t list;  (* stalled gens, joined at stop *)
  mutable watchdog_thread : Thread.t option;
}

let port t = t.port

let stats t : P.stats_payload =
  let pct p =
    Option.map
      (fun s -> s *. 1000.0)
      (Histogram.percentile_opt (Lazy.force h_queue_wait) p)
  in
  Mutex.protect t.lock @@ fun () ->
  {
    P.queue_depth = t.depth;
    in_flight = t.in_flight;
    served = t.served;
    shed = t.shed;
    draining = t.draining || t.stopping;
    queue_p50_ms = pct 0.50;
    queue_p90_ms = pct 0.90;
    queue_p99_ms = pct 0.99;
  }

let breaker_open t = Mutex.protect t.lock (fun () -> t.breaker_open)

(* ----- validation ------------------------------------------------------- *)

let validate cfg (s : P.solve) =
  if not (Float.is_finite s.beta) || s.beta <= 0.0 || s.beta > 1.0 then
    Error "beta must be in (0, 1]"
  else if s.max_clusters < 1 then Error "clusters must be >= 1"
  else if
    match s.deadline_ms with
    | Some d -> (not (Float.is_finite d)) || d < 0.0
    | None -> false
  then Error "deadline_ms must be a finite number >= 0"
  else if (match s.work_budget with Some w -> w < 0 | None -> false) then
    Error "work_budget must be >= 0"
  else
    match s.workload with
    | P.Benchmark name -> (
      match Fbb_netlist.Benchmarks.find name with
      | _ -> Ok ()
      | exception Not_found ->
        Error (Printf.sprintf "unknown benchmark %S" name))
    | P.Generated { seed = _; gates; rows } ->
      if gates < 8 || gates > cfg.max_gates then
        Error (Printf.sprintf "gates must be in [8, %d]" cfg.max_gates)
      else if rows < 2 || rows > 4096 then Error "rows must be in [2, 4096]"
      else Ok ()

(* ----- admission -------------------------------------------------------- *)

let tenant_of conn (s : P.solve) =
  match s.client with
  | Some c when c <> "" -> "client:" ^ c
  | _ -> Printf.sprintf "conn:%d" conn.cid

let retry_after_ms t ~lane_depth =
  (* Rough clearing time for the backlog ahead of the shed request:
     the tenant's own lane depth plus the in-flight batch, at the
     recent mean service time (floored so a cold server still hints a
     real backoff). Under round-robin the shedding tenant's wait is
     governed by its own lane, not the global queue. *)
  let per = Float.max 0.002 t.mean_service_s in
  float_of_int (lane_depth + t.in_flight + 1) *. per *. 1000.0

let answer_job job resp =
  (* Exactly-once: the solver and the watchdog can both try to answer
     a job (a stall verdict racing a completion); whoever wins the CAS
     writes the frame and releases the connection's pending slot. *)
  if Atomic.compare_and_set job.answered false true then begin
    ignore (Atomic.fetch_and_add job.conn.pending (-1));
    respond job.conn resp
  end

let set_lanes_gauge t =
  Gauge.set (Lazy.force g_tenant_lanes) (float_of_int (Hashtbl.length t.lanes))

let admit t conn (s : P.solve) =
  Counter.incr (Lazy.force c_requests);
  match validate t.cfg s with
  | Error msg ->
    Counter.incr (Lazy.force c_bad_request);
    respond conn (P.Rejected { id = s.id; reject = P.Bad_request msg })
  | Ok () ->
    let tenant = tenant_of conn s in
    let verdict =
      Mutex.protect t.lock @@ fun () ->
      let lane_depth =
        match Hashtbl.find_opt t.lanes tenant with
        | Some l -> l.ldepth
        | None -> 0
      in
      if t.draining || t.stopping then begin
        t.shed <- t.shed + 1;
        `Shed_draining
      end
      else if
        t.breaker_open
        (* Half-open probe: after the cooldown, one request may pass
           through an otherwise-open breaker, but only into an empty
           server — its fate decides whether the breaker closes. *)
        && not
             (Clock.now_s () -. t.breaker_opened_s >= t.cfg.breaker_cooldown_s
             && t.depth = 0 && t.in_flight = 0)
      then begin
        t.shed <- t.shed + 1;
        `Shed_breaker
      end
      else if Atomic.get conn.pending >= t.cfg.conn_pending_cap then begin
        t.shed <- t.shed + 1;
        `Shed_conn (retry_after_ms t ~lane_depth)
      end
      else if t.depth >= t.cfg.queue_capacity || lane_depth >= t.cfg.tenant_queue_cap
      then begin
        t.shed <- t.shed + 1;
        `Shed_overload
          ( retry_after_ms t ~lane_depth,
            lane_depth >= t.cfg.tenant_queue_cap )
      end
      else begin
        let lane =
          match Hashtbl.find_opt t.lanes tenant with
          | Some l -> l
          | None ->
            let l = { jobs = []; ldepth = 0; deficit = 0 } in
            Hashtbl.replace t.lanes tenant l;
            t.ring <- t.ring @ [ tenant ];
            l
        in
        let job =
          {
            solve = s;
            conn;
            tenant;
            admitted_s = Clock.now_s ();
            answered = Atomic.make false;
          }
        in
        lane.jobs <- lane.jobs @ [ job ];
        lane.ldepth <- lane.ldepth + 1;
        t.depth <- t.depth + 1;
        ignore (Atomic.fetch_and_add conn.pending 1);
        set_lanes_gauge t;
        Condition.signal t.nonempty;
        `Admitted
      end
    in
    (* Shed requests never reach the solver, so they are recorded here:
       the flight recorder retains every one of them (a shed storm is
       exactly what post-hoc debugging needs to see), with an empty
       span tree since no work ran. *)
    let record_shed reason =
      if s.id <> "" then
        Flight.finish ~trace:("req:" ^ s.id) ~req_id:s.id
          ~outcome:(Flight.Shed reason) ~exhausted:false ~queue_wait_s:0.0
          ~latency_s:0.0 ~stages:[] ~counters:[]
    in
    (match verdict with
    | `Admitted -> ()
    | `Shed_draining ->
      Counter.incr (Lazy.force c_shed_draining);
      record_shed "shutting_down";
      respond conn (P.Rejected { id = s.id; reject = P.Shutting_down })
    | `Shed_breaker ->
      Counter.incr (Lazy.force c_shed_draining);
      record_shed "breaker_open";
      respond conn (P.Rejected { id = s.id; reject = P.Shutting_down })
    | `Shed_conn retry_after_ms ->
      Counter.incr (Lazy.force c_shed_overload);
      Counter.incr (Lazy.force c_conn_shed);
      record_shed "overload";
      respond conn
        (P.Rejected { id = s.id; reject = P.Overload { retry_after_ms } })
    | `Shed_overload (retry_after_ms, lane_bound) ->
      Counter.incr (Lazy.force c_shed_overload);
      if lane_bound then Counter.incr (Lazy.force c_tenant_shed);
      record_shed "overload";
      respond conn
        (P.Rejected { id = s.id; reject = P.Overload { retry_after_ms } }))

(* ----- persistent context store ----------------------------------------- *)

let lru_insert t key p =
  Hashtbl.replace t.prepared key p;
  t.lru <- key :: List.filter (fun k -> k <> key) t.lru;
  match List.filteri (fun i _ -> i >= t.cfg.prepared_cap) t.lru with
  | [] -> ()
  | evicted ->
    List.iter (Hashtbl.remove t.prepared) evicted;
    t.lru <- List.filteri (fun i _ -> i < t.cfg.prepared_cap) t.lru

(* Spill a freshly built context. Failures (injected io.transient
   storms, full disks) degrade the store to in-memory-only for this
   entry: the request is already answered from the live context and
   the previous on-disk entry, if any, is untouched. *)
let spill t key p =
  match t.store with
  | None -> ()
  | Some st -> (
    match Store.save st ~key (prepared_to_payload p) with
    | Ok () -> Counter.incr (Lazy.force c_store_spills)
    | Error _ | (exception _) ->
      Counter.incr (Lazy.force c_store_spill_failed))

let try_load t key =
  match t.store with
  | Some st when t.store_load_ok -> (
    match Store.load st ~key with
    | Store.Miss -> None
    | Store.Corrupt _ ->
      Counter.incr (Lazy.force c_store_corrupt);
      None
    | Store.Hit payload -> (
      match prepared_of_payload payload with
      | exception _ ->
        (* Framing validated but the bytes do not unmarshal: corrupt
           in a way the checksum cannot have missed unless the entry
           was written by a buggy spill — drop it and rebuild. *)
        Counter.incr (Lazy.force c_store_corrupt);
        (try Sys.remove (Store.entry_path st ~key) with Sys_error _ -> ());
        None
      | p ->
        Counter.incr (Lazy.force c_store_hits);
        if t.signoff_armed then begin
          (* Never trust a loaded context blindly: the first one used
             per daemon is scheduled for a scratch-rebuild signoff,
             run on the solver thread right after this batch answers
             (after, not before — the warm start must stay warm). *)
          t.signoff_armed <- false;
          t.signoff_pending <- Some (key, Digest.string payload)
        end;
        Some p))
  | _ -> None

let find_prepared t key workload =
  (* Solver-thread-only state: no lock. *)
  match Hashtbl.find_opt t.prepared key with
  | Some p ->
    Counter.incr (Lazy.force c_prepared_hits);
    t.lru <- key :: List.filter (fun k -> k <> key) t.lru;
    Ok p
  | None -> (
    match try_load t key with
    | Some p ->
      lru_insert t key p;
      Ok p
    | None -> (
      match prepare workload with
      | exception exn -> Error (Printexc.to_string exn)
      | p ->
        lru_insert t key p;
        spill t key p;
        Ok p))

(* The signoff rule (DESIGN §17): rebuild the workload from scratch
   and demand the stored payload bytes match the scratch context's
   marshalling bit-for-bit. Construction is deterministic, so any
   divergence means the store's content does not correspond to this
   binary's idea of the workload — fail closed: stop loading, flush
   every context that came from the store, and keep the scratch. *)
let run_signoff t key workload =
  match t.signoff_pending with
  | None -> ()
  | Some (skey, _) when skey <> key -> ()
  | Some (_, stored_digest) ->
    t.signoff_pending <- None;
    Span.with_ ~name:"serve.store.signoff" @@ fun () ->
    (match prepare workload with
    | exception _ ->
      (* Cannot rebuild to verify: fail closed. *)
      Counter.incr (Lazy.force c_store_signoff_failed);
      t.store_load_ok <- false
    | scratch ->
      if Digest.string (prepared_to_payload scratch) = stored_digest then
        Counter.incr (Lazy.force c_store_signoff_ok)
      else begin
        Counter.incr (Lazy.force c_store_signoff_failed);
        t.store_load_ok <- false;
        Hashtbl.reset t.prepared;
        t.lru <- [];
        lru_insert t key scratch
      end)

(* ----- the solver thread ------------------------------------------------ *)

let status_str = function
  | Fbb_core.Cascade.Accepted -> "accepted"
  | Fbb_core.Cascade.No_candidate -> "no_candidate"
  | Fbb_core.Cascade.Rejected -> "rejected"
  | Fbb_core.Cascade.Exhausted -> "exhausted"
  | Fbb_core.Cascade.Crashed m -> "crashed: " ^ m

(* Counter deltas across one solve, attributed to that request in its
   flight record. The solver thread is serial, so the diff of the
   global totals brackets exactly this request's increments (plus any
   concurrent reader-thread bumps — ping/stats counters, noted as
   such); a per-request counter set would cost the hot path more than
   this ambiguity is worth. *)
let counter_deltas ~before ~after =
  let prev = Hashtbl.create 16 in
  List.iter (fun (n, v) -> Hashtbl.replace prev n v) before;
  List.filter_map
    (fun (n, v) ->
      let d =
        v - (match Hashtbl.find_opt prev n with Some p -> p | None -> 0)
      in
      if d <> 0 then Some (n, d) else None)
    after

let touch_heartbeat t = Mutex.protect t.lock (fun () -> t.heartbeat_s <- Clock.now_s ())

let solve_one t gen prep (job : job) =
  let s = job.solve in
  touch_heartbeat t;
  let t0 = Clock.now_s () in
  let waited = t0 -. job.admitted_s in
  let trace = if s.id = "" then None else Some ("req:" ^ s.id) in
  Histogram.observe ?exemplar:trace (Lazy.force h_queue_wait) waited;
  (match trace with
  | Some tr -> Flight.begin_request ~trace:tr
  | None -> ());
  let counters_before =
    match trace with Some _ -> Counter.totals () | None -> []
  in
  let deadline_ms =
    match s.deadline_ms with Some _ as d -> d | None -> t.cfg.default_deadline_ms
  in
  let work =
    match s.work_budget with Some _ as w -> w | None -> t.cfg.default_work
  in
  let budget =
    match (deadline_ms, work) with
    | None, None -> Budget.unlimited
    | d, w ->
      (* The deadline is measured from admission: a request that waited
         in the queue arrives here with only its remainder (possibly
         zero — the cascade's single-BB floor still returns a
         signed-off anytime answer). *)
      Budget.create
        ?deadline_s:
          (Option.map (fun ms -> Float.max 0.0 ((ms /. 1000.0) -. waited)) d)
        ?work:w ()
  in
  let resp, flight_outcome, flight_exhausted, flight_stages =
    Fbb_obs.Context.with_ (Fbb_obs.Context.make ?trace ()) @@ fun () ->
    Span.with_ ~name:"serve.request" @@ fun () ->
    match
      Fbb_core.Cascade.solve ~max_clusters:s.max_clusters ~budget
        (Fbb_core.Problem.pose ~beta:s.beta prep)
    with
    | exception exn ->
      (* The cascade already contains stage crashes; anything escaping
         here (problem build, injected pool faults at the join point)
         degrades this one request, never the server. *)
      Counter.incr (Lazy.force c_request_faults);
      let msg = Printexc.to_string exn in
      ( P.Rejected { id = s.id; reject = P.Faulted msg },
        Flight.Errored msg,
        false,
        [] )
    | r -> (
      let elapsed_ms = (Clock.now_s () -. t0) *. 1000.0 in
      let attempts =
        List.map
          (fun (a : Fbb_core.Cascade.attempt) ->
            {
              P.stage = Fbb_core.Cascade.stage_name a.stage;
              status = status_str a.status;
              leakage_nw = a.leakage_nw;
              work = a.work_spent;
            })
          r.Fbb_core.Cascade.attempts
      in
      let stages =
        List.map
          (fun (a : P.attempt) ->
            {
              Flight.st_stage = a.stage;
              st_status = a.status;
              st_work = a.work;
              st_leakage_nw = a.leakage_nw;
            })
          attempts
      in
      let exhausted = r.Fbb_core.Cascade.exhausted in
      match r.Fbb_core.Cascade.outcome with
      | Fbb_core.Cascade.Infeasible ->
        Counter.incr (Lazy.force c_infeasible);
        (P.Infeasible { id = s.id; elapsed_ms }, Flight.Infeasible, exhausted,
         stages)
      | Fbb_core.Cascade.Solved { stage; levels; leakage_nw; gap_pct; optimal }
        ->
        Counter.incr (Lazy.force c_solved);
        let stage = Fbb_core.Cascade.stage_name stage in
        ( P.Solved
            {
              id = s.id;
              stage;
              levels;
              leakage_nw;
              gap_pct;
              optimal;
              exhausted;
              attempts;
              elapsed_ms;
            },
          Flight.Solved stage,
          exhausted,
          stages ))
  in
  let total_s = Clock.now_s () -. job.admitted_s in
  Histogram.observe ?exemplar:trace (Lazy.force h_latency) total_s;
  (match trace with
  | Some tr ->
    Flight.finish ~trace:tr ~req_id:s.id ~outcome:flight_outcome
      ~exhausted:flight_exhausted ~queue_wait_s:waited ~latency_s:total_s
      ~stages:flight_stages
      ~counters:(counter_deltas ~before:counters_before ~after:(Counter.totals ()))
  | None -> ());
  (* EWMA of pure service time, the retry-after hint's unit. The
     accounting lands before the response is written, so a client that
     queries stats right after its reply always sees itself served.
     All of it is gated on the solver generation: if the watchdog
     retired this solver mid-request, the books were already settled
     (and the job answered Faulted) — only the answer CAS below may
     still win for this thread. *)
  let service_s = Clock.now_s () -. t0 in
  Mutex.protect t.lock (fun () ->
      t.heartbeat_s <- Clock.now_s ();
      if t.solver_gen = gen then begin
        t.served <- t.served + 1;
        t.in_flight <- t.in_flight - 1;
        t.inflight_jobs <- List.filter (fun j -> j != job) t.inflight_jobs;
        (* Any completed request is a successful half-open probe: the
           breaker closes and the restart window resets. *)
        t.consecutive_restarts <- 0;
        if t.breaker_open then begin
          t.breaker_open <- false;
          Gauge.set (Lazy.force g_breaker_open) 0.0
        end;
        t.mean_service_s <-
          (if t.mean_service_s = 0.0 then service_s
           else (0.8 *. t.mean_service_s) +. (0.2 *. service_s))
      end);
  answer_job job resp

(* Deficit-round-robin drain: visit the lane at the ring's head,
   replenish its deficit by one batch quantum, and take the oldest job
   plus every lane-mate sharing its netlist key, up to the batch/
   deficit/in-flight caps. The lane then rotates to the tail (or
   leaves the ring when empty), so each nonempty lane gets one batch
   per ring revolution regardless of how deep the hot lane is. *)
let pop_batch t =
  match t.ring with
  | [] -> None
  | tenant :: ring_rest -> (
    match Hashtbl.find_opt t.lanes tenant with
    | None ->
      t.ring <- ring_rest;
      None
    | Some lane ->
      lane.deficit <- min (lane.deficit + t.cfg.batch_max) (2 * t.cfg.batch_max);
      let limit =
        max 1
          (min lane.deficit (min t.cfg.batch_max t.cfg.tenant_inflight_cap))
      in
      (match lane.jobs with
      | [] ->
        (* Defensive: an empty lane should have left the ring. *)
        Hashtbl.remove t.lanes tenant;
        t.ring <- ring_rest;
        set_lanes_gauge t;
        None
      | head :: rest ->
        let key = P.workload_key head.solve.P.workload in
        let batch, kept =
          List.fold_left
            (fun (batch, kept) job ->
              if
                List.length batch < limit
                && P.workload_key job.solve.P.workload = key
              then (job :: batch, kept)
              else (batch, job :: kept))
            ([ head ], []) rest
        in
        let batch = List.rev batch and kept = List.rev kept in
        let taken = List.length batch in
        lane.jobs <- kept;
        lane.ldepth <- List.length kept;
        lane.deficit <- lane.deficit - taken;
        if lane.ldepth = 0 then begin
          Hashtbl.remove t.lanes tenant;
          t.ring <- ring_rest
        end
        else t.ring <- ring_rest @ [ tenant ];
        t.depth <- t.depth - taken;
        t.in_flight <- taken;
        t.inflight_jobs <- batch;
        set_lanes_gauge t;
        Some (key, batch)))

exception Solver_fault of string
exception Stale_solver

(* An injected stall parks the solver, heartbeat frozen, until the
   watchdog retires this generation (or the server stops). Without a
   stall threshold nobody would ever retire it, so the site is inert
   unless detection is configured. *)
let stall_park t gen =
  match t.cfg.stall_threshold_s with
  | None -> ()
  | Some _ ->
    let retired () =
      Mutex.protect t.lock (fun () -> t.solver_gen <> gen || t.stopping)
    in
    while not (retired ()) do
      Thread.delay 0.005
    done;
    raise Stale_solver

let rec solver_loop t gen =
  Mutex.lock t.lock;
  t.heartbeat_s <- Clock.now_s ();
  while t.ring = [] && not t.stopping && t.solver_gen = gen do
    Condition.wait t.nonempty t.lock
  done;
  if t.solver_gen <> gen then begin
    Mutex.unlock t.lock;
    raise Stale_solver
  end;
  let popped = pop_batch t in
  t.heartbeat_s <- Clock.now_s ();
  Mutex.unlock t.lock;
  match popped with
  | None -> if not (Mutex.protect t.lock (fun () -> t.stopping)) then solver_loop t gen
  | Some (key, batch) ->
    (* Chaos sites, evaluated once per batch: a crash escapes this
       thread entirely (the watchdog restarts and answers), a stall
       freezes it past the detection threshold. *)
    if Fault.fire "serve.solver_crash" then begin
      Counter.incr (Lazy.force c_fault_solver_crash);
      raise (Solver_fault "injected serve.solver_crash fault")
    end;
    if Fault.fire "serve.solver_stall" then begin
      Counter.incr (Lazy.force c_fault_solver_stall);
      stall_park t gen
    end;
    let n = List.length batch in
    if n > 1 then begin
      Counter.incr (Lazy.force c_batches);
      Counter.add (Lazy.force c_batched) (n - 1)
    end;
    (match find_prepared t key (List.hd batch).solve.P.workload with
    | Ok prep -> List.iter (solve_one t gen prep) batch
    | Error msg ->
      (* The workload passed validation but failed to build (e.g. a
         degenerate generated netlist): every batch member gets the
         same typed answer. *)
      List.iter
        (fun (job : job) ->
          Counter.incr (Lazy.force c_bad_request);
          Mutex.protect t.lock (fun () ->
              t.heartbeat_s <- Clock.now_s ();
              if t.solver_gen = gen then begin
                t.served <- t.served + 1;
                t.in_flight <- t.in_flight - 1;
                t.inflight_jobs <-
                  List.filter (fun j -> j != job) t.inflight_jobs
              end);
          answer_job job
            (P.Rejected
               { id = job.solve.P.id; reject = P.Bad_request ("build: " ^ msg) }))
        batch);
    run_signoff t key (List.hd batch).solve.P.workload;
    Mutex.protect t.lock (fun () ->
        if t.solver_gen = gen && t.depth = 0 && t.in_flight = 0 then
          Condition.broadcast t.idle);
    solver_loop t gen

(* The solver body never lets an exception escape the thread silently:
   a crash under the current generation flips [solver_alive] so the
   watchdog's next tick fails the in-flight batch and restarts. A
   stale solver (its generation already retired) just exits. *)
let solver_body t gen =
  match solver_loop t gen with
  | () -> ()
  | exception Stale_solver -> ()
  | exception exn ->
    let msg =
      match exn with Solver_fault m -> m | e -> Printexc.to_string e
    in
    Mutex.protect t.lock (fun () ->
        if t.solver_gen = gen then begin
          t.solver_alive <- false;
          t.solver_exn <- Some msg
        end)

(* ----- the watchdog thread ---------------------------------------------- *)

(* One tick: detect a dead or stalled solver, settle the books under
   the lock (fail the in-flight batch, advance the generation, maybe
   trip the breaker and flush the lanes), then answer the victims and
   spawn the replacement outside it. *)
let rec watchdog_loop t =
  Thread.delay t.cfg.watchdog_tick_s;
  let verdict =
    Mutex.protect t.lock @@ fun () ->
    if t.stopping then `Exit
    else begin
      let now = Clock.now_s () in
      Gauge.set (Lazy.force g_heartbeat_age) (now -. t.heartbeat_s);
      let dead = not t.solver_alive in
      let stalled =
        (not dead) && t.in_flight > 0
        &&
        match t.cfg.stall_threshold_s with
        | Some th -> now -. t.heartbeat_s > th
        | None -> false
      in
      if not (dead || stalled) then `Tick
      else begin
        let reason =
          if dead then
            "solver crashed: "
            ^ Option.value t.solver_exn ~default:"unknown"
          else "solver stalled past threshold"
        in
        let victims = t.inflight_jobs in
        t.inflight_jobs <- [];
        t.in_flight <- 0;
        t.solver_exn <- None;
        t.consecutive_restarts <- t.consecutive_restarts + 1;
        Counter.incr (Lazy.force c_solver_restarts);
        t.solver_gen <- t.solver_gen + 1;
        t.solver_alive <- true;
        t.heartbeat_s <- now;
        let flushed =
          if t.consecutive_restarts >= t.cfg.breaker_limit then begin
            if not t.breaker_open then begin
              t.breaker_open <- true;
              Counter.incr (Lazy.force c_breaker_trips);
              Gauge.set (Lazy.force g_breaker_open) 1.0
            end;
            t.breaker_opened_s <- now;
            (* Flush every queued job: with the breaker open nothing
               would drain them, and Shutting_down tells clients not
               to hammer the retry path. *)
            let queued =
              List.concat_map
                (fun tenant ->
                  match Hashtbl.find_opt t.lanes tenant with
                  | Some lane -> lane.jobs
                  | None -> [])
                t.ring
            in
            Hashtbl.reset t.lanes;
            t.ring <- [];
            t.depth <- 0;
            t.shed <- t.shed + List.length queued;
            set_lanes_gauge t;
            queued
          end
          else []
        in
        if t.depth = 0 && t.in_flight = 0 then Condition.broadcast t.idle;
        `Restart (t.solver_gen, victims, reason, flushed)
      end
    end
  in
  match verdict with
  | `Exit -> ()
  | `Tick -> watchdog_loop t
  | `Restart (gen, victims, reason, flushed) ->
    (* The previous solver thread either already exited (crash) or
       will exit as soon as it observes its retired generation
       (injected stall); keep the handle and join it at stop. *)
    (match t.solver_thread with
    | Some th -> t.retired_solvers <- th :: t.retired_solvers
    | None -> ());
    t.solver_thread <- Some (Thread.create (fun () -> solver_body t gen) ());
    List.iter
      (fun (job : job) ->
        answer_job job
          (P.Rejected { id = job.solve.P.id; reject = P.Faulted reason }))
      victims;
    List.iter
      (fun (job : job) ->
        Counter.incr (Lazy.force c_shed_draining);
        answer_job job
          (P.Rejected { id = job.solve.P.id; reject = P.Shutting_down }))
      flushed;
    watchdog_loop t

(* ----- connection reader ------------------------------------------------ *)

let request_id = function
  | Ok (P.Solve { id; _ }) | Ok (P.Ping { id }) | Ok (P.Stats { id }) -> id
  | Error _ -> ""

let handle_conn t conn =
  let reader = P.reader ~max_frame:t.cfg.max_frame conn.fd in
  let rec loop () =
    match P.read_frame reader with
    | Error P.Closed | Error (P.Io _) -> ()
    | Error P.Truncated ->
      (* The peer shut its write side mid-frame; it may still read, so
         answer before hanging up. *)
      Counter.incr (Lazy.force c_protocol_errors);
      respond conn
        (P.Rejected { id = ""; reject = P.Bad_request "truncated frame" })
    | Error P.Idle_timeout ->
      (* Slow-loris eviction: the receive deadline expired without a
         complete frame. Typed close — the peer is told why. *)
      Counter.incr (Lazy.force c_idle_evictions);
      respond conn
        (P.Rejected
           {
             id = "";
             reject =
               P.Bad_request "idle timeout: no complete frame within deadline";
           })
    | Error (P.Oversized limit) ->
      (* Line framing cannot re-synchronize after an over-long frame:
         answer and close. *)
      Counter.incr (Lazy.force c_protocol_errors);
      respond conn
        (P.Rejected
           {
             id = "";
             reject =
               P.Bad_request (Printf.sprintf "frame exceeds %d bytes" limit);
           })
    | Ok line ->
      (if Fault.fire "serve.read" then begin
         (* Injected read fault: this request degrades to a typed
            reject; the connection and the server live on. *)
         Counter.incr (Lazy.force c_fault_read);
         respond conn
           (P.Rejected
              {
                id = request_id (P.decode_request line);
                reject = P.Faulted "injected serve.read fault";
              })
       end
       else
         match P.decode_request line with
         | Error msg ->
           Counter.incr (Lazy.force c_protocol_errors);
           respond conn (P.Rejected { id = ""; reject = P.Bad_request msg })
         | Ok (P.Ping { id }) -> respond conn (P.Pong { id })
         | Ok (P.Stats { id }) ->
           respond conn (P.Stats_reply { id; stats = stats t })
         | Ok (P.Solve s) -> admit t conn s);
      loop ()
  in
  (try loop () with _ -> ());
  close_conn conn

let handle_poisoned t conn =
  let reader = P.reader ~max_frame:t.cfg.max_frame conn.fd in
  (try
     match P.read_frame reader with
     | Ok line ->
       respond conn
         (P.Rejected
            {
              id = request_id (P.decode_request line);
              reject = P.Faulted "injected serve.accept fault";
            })
     | Error _ -> ()
   with _ -> ());
  close_conn conn

(* ----- accept loop ------------------------------------------------------ *)

let stopping t = Mutex.protect t.lock (fun () -> t.stopping)

let rec accept_loop t =
  match Unix.accept t.sock with
  | fd, _ ->
    if stopping t then (try Unix.close fd with Unix.Unix_error _ -> ())
    else begin
      (* Connection hygiene: both socket deadlines are set before the
         reader ever blocks, so a slow-loris peer costs one reader
         thread for at most the idle timeout and a non-reading peer
         blocks a writer for at most the write timeout. *)
      (match t.cfg.idle_timeout_s with
      | Some s -> (
        try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
        with Unix.Unix_error _ | Invalid_argument _ -> ())
      | None -> ());
      (match t.cfg.write_timeout_s with
      | Some s -> (
        try Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
        with Unix.Unix_error _ | Invalid_argument _ -> ())
      | None -> ());
      (* An accept-faulted connection still answers its first frame —
         with a typed reject — before closing: writing the reject
         eagerly at accept would race the peer's request against the
         close (the RST can eat the greeting), and a fault that
         degrades to a lost write is indistinguishable from a crash. *)
      let poisoned = Fault.fire "serve.accept" in
      if poisoned then Counter.incr (Lazy.force c_fault_accept);
      let conn =
        {
          fd;
          cid = Atomic.fetch_and_add t.next_cid 1;
          wlock = Mutex.create ();
          closed = false;
          pending = Atomic.make 0;
        }
      in
      let th =
        Thread.create
          (fun () ->
            if poisoned then handle_poisoned t conn else handle_conn t conn)
          ()
      in
      Mutex.protect t.lock (fun () ->
          t.conns <- conn :: t.conns;
          t.threads <- th :: t.threads)
    end;
    if not (stopping t) then accept_loop t
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
    if not (stopping t) then accept_loop t
  | exception _ ->
    if not (stopping t) then begin
      Thread.delay 0.05;
      accept_loop t
    end

(* ----- lifecycle -------------------------------------------------------- *)

let start ?(config = default_config) () =
  (* A peer that disappears between frames must error the write, not
     deliver SIGPIPE to the whole daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match
    match config.store_dir with
    | None -> Ok None
    | Some dir -> Result.map Option.some (Store.open_ ~dir)
  with
  | Error msg -> Error msg
  | Ok store -> (
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock
        (Unix.ADDR_INET (Unix.inet_addr_of_string config.addr, config.port));
      Unix.listen sock 64
    with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "bind %s:%d: %s" config.addr config.port
           (Unix.error_message e))
    | () ->
      let port =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> config.port
      in
      let t =
        {
          cfg = config;
          sock;
          port;
          store;
          lock = Mutex.create ();
          nonempty = Condition.create ();
          idle = Condition.create ();
          lanes = Hashtbl.create 8;
          ring = [];
          depth = 0;
          in_flight = 0;
          inflight_jobs = [];
          served = 0;
          shed = 0;
          draining = false;
          stopping = false;
          mean_service_s = 0.0;
          solver_gen = 0;
          solver_alive = true;
          solver_exn = None;
          heartbeat_s = Clock.now_s ();
          consecutive_restarts = 0;
          breaker_open = false;
          breaker_opened_s = 0.0;
          store_load_ok = true;
          signoff_armed = true;
          signoff_pending = None;
          prepared = Hashtbl.create 8;
          lru = [];
          next_cid = Atomic.make 0;
          conns = [];
          threads = [];
          accept_thread = None;
          solver_thread = None;
          retired_solvers = [];
          watchdog_thread = None;
        }
      in
      Gauge.set (Lazy.force g_breaker_open) 0.0;
      t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
      t.solver_thread <- Some (Thread.create (fun () -> solver_body t 0) ());
      t.watchdog_thread <- Some (Thread.create (fun () -> watchdog_loop t) ());
      Ok t)

let drain t =
  Mutex.lock t.lock;
  t.draining <- true;
  while t.depth > 0 || t.in_flight > 0 do
    Condition.wait t.idle t.lock
  done;
  Mutex.unlock t.lock

(* Wake the blocking accept(2) with a throwaway self-connection — the
   same portable trick Telemetry.shutdown uses. *)
let wake_accept t =
  try
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port)))
  with _ -> ()

let stop t =
  drain t;
  let already =
    Mutex.protect t.lock @@ fun () ->
    let was = t.stopping in
    t.stopping <- true;
    Condition.broadcast t.nonempty;
    was
  in
  if not already then begin
    wake_accept t;
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    t.accept_thread <- None;
    (match t.watchdog_thread with Some th -> Thread.join th | None -> ());
    t.watchdog_thread <- None;
    (match t.solver_thread with Some th -> Thread.join th | None -> ());
    t.solver_thread <- None;
    (* Retired solver generations are cooperative: a crashed one has
       already exited, an (injected) stalled one exits on observing
       [stopping]. *)
    List.iter Thread.join t.retired_solvers;
    t.retired_solvers <- [];
    let conns, threads =
      Mutex.protect t.lock (fun () -> (t.conns, t.threads))
    in
    List.iter shutdown_conn conns;
    List.iter Thread.join threads;
    List.iter close_conn conns;
    Mutex.protect t.lock (fun () ->
        t.conns <- [];
        t.threads <- []);
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end
