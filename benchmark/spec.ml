(* What the benchmark runs and what it reports: the four workloads with
   their frozen calibration constants, and the metric declarations that
   BENCHMARK.json mirrors (the test suite checks that the two agree).

   Calibration: the serving rates are absolute requests per second,
   measured once on a 2-vCPU x86-64 VM against a daemon at jobs 1 as
   fractions of its saturated goodput (the [over] step's number), then
   frozen. A faster commit therefore sees the same offered load and a
   lower latency; it does not get a harder test. The latency limit
   behind a step's SLO share is about 4x the [low] step's median at
   calibration. *)

module P = Fbb_serve.Protocol

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(* Reported by every workload, always from an untraced run. Each one
   scales about linearly with the host's speed: light-load latency,
   saturated goodput, batch times. Latency at a fixed rate near
   capacity does not (queueing turns a host a fifth slower into a
   latency several times higher), so the [high] step's percentiles and
   SLO share are in the step detail, not here. A batch workload's
   percentiles are over its units, and its [solved_pct] is the share of
   unit runs that verified. [solved_pct] is the complement of a failure
   share, which would read 0 on every good run.
   benchmark/README.md spells out each one per workload. *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "rss_peak_mb" "MB" Lower;
    m "p50_ms.low" "ms" Lower;
    m "p90_ms.low" "ms" Lower;
    m "solved_pct" "%" Higher;
    m "goodput_per_s" "1/s" Higher;
  ]

(* Reported by every workload from a traced run; 0 where the workload
   does not exercise the layer or the layer is not observable from
   outside the daemon. *)
let per_layer =
  [
    m "serve.solve_ms.p50" "ms" Lower;
    m "serve.wait_ms.p50" "ms" Lower;
    m "serve.wait_ms.p90" "ms" Lower;
    m "serve.batch_mean" "count" Higher;
    m "serve.prepared_hit_pct" "%" Higher;
    m "serve.shed_pct.over" "%" Lower;
    m "serve.prepare.count" "count" Lower;
    m "serve.prepare.busy_s" "s" Lower;
    m "serve.prepare.mean_ms" "ms" Lower;
    m "gen.lateness_ms.p99" "ms" Lower;
    m "gen.lateness_ms.max" "ms" Lower;
    m "place.busy_s" "s" Lower;
    m "cascade.solve.busy_s" "s" Lower;
    m "cascade.accepted_pct.ilp" "%" Higher;
    m "cascade.accepted_pct.bb" "%" Lower;
    m "cascade.accepted_pct.heuristic" "%" Lower;
    m "cascade.accepted_pct.single_bb" "%" Lower;
    m "cascade.exhausted_pct" "%" Lower;
    m "ilp.subsets_considered" "count" Lower;
    m "ilp.prune_pct" "%" Higher;
    m "ilp.enumerate.busy_s" "s" Lower;
    m "bb.nodes" "count" Lower;
    m "bb.waves" "count" Lower;
    m "bb.nodes_per_wave" "count" Higher;
    m "bb.pruned_pct" "%" Higher;
    m "bb.solve.busy_s" "s" Lower;
    m "lp.solves" "count" Lower;
    m "lp.pivots" "count" Lower;
    m "lp.phase1_pct" "%" Lower;
    m "lp.bound.busy_s" "s" Lower;
    m "lp.us_per_pivot" "us" Lower;
    m "refine.iterations" "count" Lower;
    m "refine.constraints_added" "count" Lower;
    m "refine.busy_s" "s" Lower;
    m "heuristic.moves" "count" Lower;
    m "sta.analyses" "count" Lower;
    m "sta.incr_updates" "count" Lower;
    m "sta.nodes_per_update" "count" Lower;
    m "sta.cache_hits" "count" Higher;
    m "sta.paths_extracted" "count" Lower;
    m "sta.incr_update.busy_s" "s" Lower;
    m "sta.paths.busy_s" "s" Lower;
    m "mc.samples" "count" Higher;
    m "tuning.compensations" "count" Lower;
    m "tuning.compensate.busy_s" "s" Lower;
    m "pool.busy_pct.w0" "%" Higher;
    m "pool.busy_pct.caller" "%" Higher;
    m "pool.tasks" "count" Lower;
    m "pool.tasks_per_batch" "count" Higher;
    m "gc.minor_words" "words" Lower;
    m "gc.major_collections" "count" Lower;
    m "gc.top_heap_words" "words" Lower;
    m "obs.tracing_overhead_pct" "%" Lower;
  ]

(* Metric and workload names: a letter or digit, then at most 63
   letters, digits, [_], [.] and [-]. *)
let valid_name s =
  let ok = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let first_ok = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
    | _ -> false
  in
  String.length s > 0
  && String.length s <= 64
  && first_ok s.[0]
  && String.for_all ok s

(* ----- serving workloads ------------------------------------------------ *)

type step = {
  step : string;  (** [low], [high] or [over] *)
  rate_rps : float;  (** absolute offered rate, frozen at calibration *)
  requests : int;  (** sent as one contiguous block *)
  may_shed : bool;
      (** an [Overload] reject is an expected answer here (on a slow
          host the [high] step can pass capacity too); in [low] any
          answer but a verified [Solved] counts as failed *)
}

type serve = {
  keys : P.workload array;  (** visited round-robin over a seeded shuffle *)
  warm_keys : P.workload array;
      (** sent once each during set-up, so they count in [setup_s] *)
  beta : float;
  max_clusters : int;
  work_budget : int;
  steps : step list;  (** in run order *)
  limit_ms : float;  (** latency limit behind each step's SLO share *)
  min_hit_pct : float;  (** validity guard on [serve.prepared_hit_pct] *)
  max_hit_pct : float;
}

let tenants = 4

(* [low], [high] and [over] are about a quarter, two thirds and two
   and a half times the daemon's saturated goodput at calibration.
   [low] stays light even when the host runs at half speed, so its
   latency is service time plus little queueing. [over] offers enough
   requests for the backlog to pass the daemon's 64-entry admission
   queue, so shedding is exercised. *)
let steps ~low ~high ~over =
  [
    { step = "low"; rate_rps = low; requests = 120; may_shed = false };
    { step = "high"; rate_rps = high; requests = 120; may_shed = true };
    { step = "over"; rate_rps = over; requests = 300; may_shed = true };
  ]

(* Six small keys that all fit the daemon's 8-entry prepared-context
   LRU: after warm-up every request is a cache hit, so service time is
   cascade -> enumerate -> B&B -> simplex and [prepare] never runs. *)
let warm_keys =
  Array.map
    (fun seed -> P.Generated { seed; gates = 200; rows = 5 })
    [| 14; 17; 20; 26; 33; 38 |]

(* Calibrated at seed 1: saturated goodput about 32 rps, [low] median
   about 34 ms. *)
let serve_warm =
  {
    keys = warm_keys;
    warm_keys;
    beta = 0.05;
    max_clusters = 4;
    work_budget = 20_000;
    steps = steps ~low:9.0 ~high:24.0 ~over:100.0;
    limit_ms = 140.0;
    min_hit_pct = 95.0;
    max_hit_pct = 100.0;
  }

(* 64 keys visited round-robin: each comes back only after 64 requests,
   far beyond the 8-entry LRU, so every request pays [prepare]
   (placement, delay cache, STA, path extraction) and a light solve.
   Warm-up fills the LRU with eight keys outside the rotation, so every
   measured request also evicts an entry. *)
let churn_key seed = P.Generated { seed; gates = 500; rows = 8 }

(* Calibrated at seed 1: saturated goodput about 35 rps, [low] median
   about 33 ms. *)
let serve_churn =
  {
    keys = Array.init 64 (fun i -> churn_key (5001 + i));
    warm_keys = Array.init 8 (fun i -> churn_key (4993 + i));
    beta = 0.05;
    max_clusters = 4;
    work_budget = 20;
    steps = steps ~low:8.0 ~high:21.0 ~over:90.0;
    limit_ms = 130.0;
    min_hit_pct = 0.0;
    max_hit_pct = 5.0;
  }

(* ----- table1-prove ----------------------------------------------------- *)

type cell = {
  design : string;
  cell_beta : float;
  c : int;
  leakage_nw : float;  (** proven optimum recorded at calibration *)
}

let cell design cell_beta c leakage_nw = { design; cell_beta; c; leakage_nw }

(* The eight Table-1 cells that prove optimal within seconds (0.3-4.5 s
   each on a quiet host, up to twice that on a busy one). The 90 s ILP
   cap is far above every proof time, so it never sets the result. *)
let cells =
  [|
    cell "c1355" 0.10 2 207.09894849496166;
    cell "c3540" 0.10 3 330.06799427781755;
    cell "c5315" 0.05 2 314.6361553741973;
    cell "c5315" 0.05 3 291.71020233496864;
    cell "c7552" 0.05 3 421.88549432628213;
    cell "c7552" 0.10 2 692.85832436353269;
    cell "adder_128bits" 0.10 3 778.67706828197822;
    cell "c6288" 0.05 3 735.56770083449112;
  |]

let ilp_limits =
  { Fbb_ilp.Branch_bound.max_nodes = 2_000_000; max_seconds = 90.0 }

(* ----- mc-tune-10k ------------------------------------------------------ *)

let mc_gates = 10_000
let mc_netlist_seed = 2009
let mc_sigma = 0.05
let mc_chunk_dies = 60

type chunk_ref = {
  chunk_seed : int;
  no_tuning : float * float;  (** yield %, mean leakage nW *)
  single_bb : float * float;
  clustered : float * float;
}

(* Three chunks of 60 dies, each run once per pass, with the results
   recorded at calibration that every measured chunk must reproduce bit
   for bit. A chunk takes 1-2 s. *)
let mc_chunks =
  [|
    {
      chunk_seed = 1;
      no_tuning = (46.666666666666664, 2169.7400000001016);
      single_bb = (90., 13300.742457372973);
      clustered = (90., 9156.2558438850192);
    };
    {
      chunk_seed = 2;
      no_tuning = (46.666666666666664, 2169.7400000001016);
      single_bb = (93.333333333333329, 12418.693254423577);
      clustered = (93.333333333333329, 8560.1768750833835);
    };
    {
      chunk_seed = 3;
      no_tuning = (43.333333333333336, 2169.7400000001016);
      single_bb = (91.666666666666671, 12990.135874191168);
      clustered = (91.666666666666671, 8884.9106755572902);
    };
  |]

(* ----- workloads -------------------------------------------------------- *)

type kind = Serve of serve | Prove | Mc_tune

let workloads =
  [
    ("serve-warm", Serve serve_warm);
    ("serve-churn", Serve serve_churn);
    ("table1-prove", Prove);
    ("mc-tune-10k", Mc_tune);
  ]

let default_seconds = 20

(* A serving run's steps last about [default_seconds]. Longer runs
   repeat each step's requests a whole number of times; shorter ones do
   not shrink them. *)
let repeats ~seconds = max 1 (seconds / default_seconds)

(* Domains of the batch workloads' pool: the two of a 2-vCPU host, with
   nothing else running. *)
let jobs = 2

(* The daemon's: one solver domain, so the daemon and the load
   generator's threads fit two vCPUs without contending for them. *)
let daemon_jobs = 1

(* Set-ups per untraced run; [setup_s] is their median. A serving set-up
   (daemon start and warm-up) takes about 0.3 s, so it can afford more
   repeats than a batch one (0.5-2.5 s). *)
let setups = 3
let serve_setups = 5
