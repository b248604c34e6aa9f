(* Unit tests for the benchmark harness itself: the request script, the
   open-loop timing rule, span self time, the percentile rule, metric
   names, and the agreement between the code's metric declarations and
   BENCHMARK.json. *)

open Fbb_benchmark
module J = Fbb_util.Json
module P = Fbb_serve.Protocol

let check_bool = Alcotest.(check bool)

(* ----- request script --------------------------------------------------- *)

let steps = [ ("low", 10.0, 50); ("high", 20.0, 50) ]

let script_is_pure_in_seed () =
  let make seed = Schedule.make ~seed ~keys:6 steps in
  let a = make 7 and b = make 7 and c = make 8 in
  let offsets (s : Schedule.t) =
    List.map (fun (seg : Schedule.segment) -> seg.offsets_s) s.segments
  in
  check_bool "same seed, same arrivals" true (offsets a = offsets b);
  check_bool "same seed, same keys" true (a.key_of = b.key_of);
  check_bool "other seed, other arrivals" true (offsets a <> offsets c);
  check_bool "other seed, other keys" true (a.key_of <> c.key_of)

let script_shape () =
  let s = Schedule.make ~seed:3 ~keys:6 steps in
  Alcotest.(check int) "one key per request" 100 (Array.length s.key_of);
  (* Round-robin over one shuffle: a key comes back exactly 6 later. *)
  Array.iteri
    (fun g k -> if g >= 6 then Alcotest.(check int) "period" s.key_of.(g - 6) k)
    s.key_of;
  Alcotest.(check (list (pair string int)))
    "one contiguous block per step, in order"
    [ ("low", 0); ("high", 50) ]
    (List.map
       (fun (seg : Schedule.segment) -> (seg.name, seg.first))
       s.segments);
  List.iter
    (fun (seg : Schedule.segment) ->
      let o = seg.offsets_s in
      let n = Array.length o in
      Alcotest.(check (float 0.0)) "starts at 0" 0.0 o.(0);
      Array.iteri
        (fun i x -> if i > 0 then check_bool "sorted" true (x >= o.(i - 1)))
        o;
      (* Stratified exponential gaps: the step lasts about n / rate. *)
      let expected = float_of_int n /. seg.rate_rps in
      check_bool "step length near count / rate" true
        (o.(n - 1) > 0.8 *. expected && o.(n - 1) < 1.05 *. expected))
    s.segments

(* ----- open-loop timing ------------------------------------------------- *)

(* A server that answers every request in order but stalls 200 ms before
   its first answer. Requests sent on schedule during the stall queue
   behind it, and their latency, measured from when they were due,
   carries the part of the stall they waited out. *)
let stall_shows_in_later_requests () =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let n = 10 and gap_s = 0.01 and stall_s = 0.2 in
  let fake =
    Thread.create
      (fun () ->
        let r = P.reader server in
        for i = 0 to n - 1 do
          match P.read_frame r with
          | Ok line ->
            if i = 0 then Unix.sleepf stall_s;
            ignore (P.write_frame server line)
          | Error _ -> ()
        done)
      ()
  in
  let o =
    Openloop.run client (P.reader client)
      ~frames:(Array.init n string_of_int)
      ~offsets_s:(Array.init n (fun i -> float_of_int i *. gap_s))
  in
  Thread.join fake;
  Unix.close client;
  Unix.close server;
  Alcotest.(check (option string)) "no transport error" None o.error;
  Alcotest.(check int) "every request answered" n (List.length o.replies);
  List.iter
    (fun (line, at) ->
      let i = int_of_string line in
      let lat = Openloop.latency_ms ~due:o.due.(i) ~received:at in
      let floor_ms = 1000.0 *. (stall_s -. (float_of_int i *. gap_s)) in
      if lat < floor_ms -. 1.0 then
        Alcotest.failf "request %d: %.1f ms hides the stall (>= %.1f ms)" i
          lat floor_ms)
    o.replies

(* ----- trace ----------------------------------------------------------- *)

(* Overlapping children (the requests of one step) are covered once. *)
let self_time_counts_overlap_once () =
  let span id start_s stop_s =
    let parent = if id = 1 then 0 else 1 in
    { Trace.id; parent; name = "s"; start_s; stop_s }
  in
  let children = Hashtbl.create 4 in
  List.iter
    (fun s -> Hashtbl.add children 1 s)
    [ span 2 1.0 3.0; span 3 2.0 5.0; span 4 7.0 8.0; span 5 9.5 12.0 ];
  Alcotest.(check (float 1e-12))
    "10 s span, children cover [1,5], [7,8] and [9.5,10]" 4.5
    (Trace.self_s children (span 1 0.0 10.0))

(* ----- percentiles ------------------------------------------------------ *)

let tail_rule () =
  let check n want =
    Alcotest.(check int) (Printf.sprintf "p90 rank %d" n) want
      (Pctl.rank ~pct:90 n)
  in
  check 1 1;
  check 8 8;
  check 10 9;
  check 12 11;
  check 99 90;
  check 100 90;
  check 101 91;
  check 109 99;
  check 110 99;
  check 120 108;
  check 1000 900;
  (* At least 10 samples lie beyond p90 exactly from 100 samples up. *)
  for n = 1 to 2000 do
    let beyond = n - Pctl.rank ~pct:90 n in
    if beyond >= 10 <> (n >= 100) then
      Alcotest.failf "n=%d: %d samples beyond p90" n beyond
  done;
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  let check_p90 what want xs =
    Alcotest.(check (float 0.0)) what want (Pctl.p90 xs)
  in
  check_p90 "p90 of 8 is the max" 8.0 (xs 8);
  check_p90 "p90 of 100" 90.0 (xs 100);
  check_p90 "p90 of 120" 108.0 (xs 120);
  check_bool "p90 of nothing" true (Float.is_nan (Pctl.p90 [||]))

let quartiles_match_python () =
  let check what xs want =
    let q1, q2, q3 = Pctl.quartiles (Array.of_list xs) in
    let w1, w2, w3 = want in
    let d a b = Float.abs (a -. b) in
    let err = d q1 w1 +. d q2 w2 +. d q3 w3 in
    check_bool what true (err < 1e-12)
  in
  (* Expected values from Python's statistics.quantiles(xs, n=4). *)
  check "[1;2]" [ 1.; 2. ] (0.75, 1.5, 2.25);
  check "[3;1;2]" [ 3.; 1.; 2. ] (1.0, 2.0, 3.0);
  check "[5;1;4;2;3]" [ 5.; 1.; 4.; 2.; 3. ] (1.5, 3.0, 4.5);
  check "1..10"
    (List.init 10 (fun i -> float_of_int (i + 1)))
    (2.75, 5.5, 8.25);
  Alcotest.(check (float 0.0)) "median even" 2.5
    (Pctl.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.(check (float 0.0)) "median odd" 3.0 (Pctl.median [| 5.; 1.; 3. |])

(* ----- metric names and BENCHMARK.json ---------------------------------- *)

let names () =
  let must_be_valid what s =
    if not (Spec.valid_name s) then Alcotest.failf "bad %s name %S" what s
  in
  List.iter
    (fun (m : Spec.metric) -> must_be_valid "metric" m.name)
    (Spec.end_to_end @ Spec.per_layer);
  List.iter (fun (w, _) -> must_be_valid "workload" w) Spec.workloads;
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "%S rejected" s) false (Spec.valid_name s))
    [ ""; ".p50"; "-x"; "p50 ms"; "p50/ms"; String.make 65 'a' ]

let declared = J.load "../../BENCHMARK.json"
let keys = function J.Obj kv -> List.map fst kv | _ -> []
let better_str = function Spec.Lower -> "lower" | Spec.Higher -> "higher"

(* The regression bounds: 25 % of the parent's median for every time,
   rate and size (the widest a bound may be; the host's speed alone
   spreads the times by 10-25 % from run to run, and table1-prove's peak
   memory by up to 9 %, see benchmark/README.md), and a 0.5-point drop
   of the solved share (0.5 % of a median at 100 %). *)
let expected_bound = function "solved_pct" -> 0.005 | _ -> 0.25

let check_metrics key (spec : Spec.metric list) ~with_bound =
  let ms = Option.get (J.member_arr key declared) in
  Alcotest.(check (list string))
    (key ^ " names")
    (List.map (fun (m : Spec.metric) -> m.name) spec)
    (List.map (fun m -> Option.get (J.member_str "name" m)) ms);
  List.iter2
    (fun (s : Spec.metric) m ->
      let field what want =
        Alcotest.(check (option string)) (s.name ^ " " ^ what) (Some want)
          (J.member_str what m)
      in
      Alcotest.(check (list string))
        (s.name ^ " keys")
        ([ "name"; "unit"; "better" ] @ if with_bound then [ "bound" ] else [])
        (keys m);
      field "unit" s.unit_;
      field "better" (better_str s.better);
      if with_bound then
        Alcotest.(check (option (float 0.0)))
          (s.name ^ " bound")
          (Some (expected_bound s.name))
          (J.member_num "bound" m))
    spec ms

let benchmark_json () =
  Alcotest.(check (list string))
    "top-level keys"
    [
      "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer";
    ]
    (keys declared);
  Alcotest.(check (option (float 0.0)))
    "run_seconds"
    (Some (float_of_int Spec.default_seconds))
    (J.member_num "run_seconds" declared);
  Alcotest.(check (list string))
    "workloads"
    (List.map fst Spec.workloads)
    (List.map
       (fun w -> Option.get (J.member_str "name" w))
       (Option.get (J.member_arr "workloads" declared)));
  check_metrics "end_to_end" Spec.end_to_end ~with_bound:true;
  check_metrics "per_layer" Spec.per_layer ~with_bound:false

let solved id =
  Some
    (P.Solved
       {
         id;
         stage = "ilp";
         levels = [| 0 |];
         leakage_nw = 1.0;
         gap_pct = None;
         optimal = true;
         exhausted = false;
         attempts = [];
         elapsed_ms = 1.0;
       })

(* What the workload code emits is exactly what is declared. *)
let emitted_metrics_are_declared () =
  let names l = List.map fst l in
  let e2e = List.map (fun (m : Spec.metric) -> m.name) Spec.end_to_end in
  let unit_run =
    { Batch_workload.label = "u"; seconds = 1.0; work = 1; error = lazy None }
  in
  let batch =
    Batch_workload.end_to_end ~rss_mb:1.0
      {
        setups_s = [ 1.0; 2.0; 3.0 ];
        passes = 1;
        units = [ unit_run ];
        counters = [];
      }
  in
  Alcotest.(check (list string)) "batch end-to-end" e2e (names batch);
  let segment name =
    {
      Serve_workload.plan =
        { Schedule.name; rate_rps = 1.0; offsets_s = [| 0.0 |]; first = 0 };
      may_shed = false;
      outcome =
        {
          Openloop.due = [| 0.0 |];
          sent = [| 0.0 |];
          replies = [];
          error = None;
        };
      keys = [| 0 |];
      responses = [| solved (name ^ ".0") |];
      received = [| 0.01 |];
      snapshot = Some (J.Obj []);
    }
  in
  let pass =
    {
      Serve_workload.setups_s = [ 0.1 ];
      rss_mb = 1.0;
      snapshot0 = Some (J.Obj []);
      segments = List.map segment [ "low"; "high"; "over" ];
      guard_errors = [];
    }
  in
  let ok _ = true in
  Alcotest.(check (list string))
    "serve end-to-end" e2e
    (names (Serve_workload.end_to_end pass ~ok));
  (* Layers.complete refuses undeclared names, so this checks them. *)
  let all_declared what l =
    Alcotest.(check int) what (List.length Spec.per_layer)
      (List.length (Layers.complete l))
  in
  all_declared "serve per-layer"
    (Serve_workload.per_layer pass ~ok ~overhead_pct:0.0);
  let _, layers, _ =
    Batch_workload.traced (fun () ->
        { Batch_workload.setups_s = []; passes = 0; units = []; counters = [] })
  in
  all_declared "batch per-layer" (Layers.of_list layers)

(* ----- unserved requests ------------------------------------------------ *)

let segment ?(may_shed = false) name responses =
  let n = Array.length responses in
  {
    Serve_workload.plan =
      {
        Schedule.name;
        rate_rps = 1.0;
        offsets_s = Array.make n 0.0;
        first = 0;
      };
    may_shed;
    outcome =
      {
        Openloop.due = Array.make n 0.0;
        sent = Array.make n 0.0;
        replies = [];
        error = None;
      };
    keys = Array.make n 0;
    responses;
    received = Array.make n 0.01;
    snapshot = None;
  }

(* A reject or an [Infeasible] is a typed answer, so it is not a wrong
   output; it counts as a request not served, in [failed] and, in the
   [low] step, against [solved_pct], so it cannot drop out of the
   latency sample and read as a speed-up. Only an overload reject in a
   step that may shed ([high], [over]) is an expected answer. An
   unanswered request fails the run. *)
let unserved_requests_count () =
  let overload id =
    Some (P.Rejected { id; reject = P.Overload { retry_after_ms = 1.0 } })
  in
  let faulted id = Some (P.Rejected { id; reject = P.Faulted "boom" }) in
  let infeasible id = Some (P.Infeasible { id; elapsed_ms = 1.0 }) in
  let verify_failures answers =
    List.map fst
      (Verify.serve ~workload:"w" ~spec:Spec.serve_warm
         (List.map
            (fun (req_id, response) -> { Verify.req_id; key = 0; response })
            answers))
  in
  Alcotest.(check (list string))
    "only the unanswered request fails verification" [ "c" ]
    (verify_failures
       [ ("a", overload "a"); ("b", infeasible "b"); ("c", None) ]);
  let p =
    {
      Serve_workload.setups_s = [ 0.1 ];
      rss_mb = 1.0;
      snapshot0 = None;
      segments =
        [
          segment "low" [| solved "low.0"; overload "low.1" |];
          segment ~may_shed:true "high"
            [| infeasible "high.0"; overload "high.1"; solved "high.2" |];
          segment ~may_shed:true "over"
            [| overload "over.0"; faulted "over.1"; solved "over.2" |];
        ];
      guard_errors = [];
    }
  in
  let ok _ = true in
  Alcotest.(check (list int))
    "failed per step" [ 1; 1; 1 ]
    (List.map (Serve_workload.failed ~ok) p.segments);
  Alcotest.(check (float 1e-9))
    "solved_pct over the low step" 50.0 (Serve_workload.solved_pct ~ok p)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "benchmark"
    [
      ( "schedule",
        [
          quick "pure in seed" script_is_pure_in_seed;
          quick "shape" script_shape;
        ] );
      ( "openloop",
        [
          quick "stall charged to later requests" stall_shows_in_later_requests;
        ] );
      ("trace", [ quick "self time" self_time_counts_overlap_once ]);
      ( "pctl",
        [
          quick "tail rule" tail_rule; quick "quartiles" quartiles_match_python;
        ] );
      ( "metrics",
        [
          quick "names" names;
          quick "BENCHMARK.json" benchmark_json;
          quick "emitted = declared" emitted_metrics_are_declared;
        ] );
      ("serve", [ quick "unserved requests count" unserved_requests_count ]);
    ]
