(* Tests for Fbb_obs: spans, counters, sinks, JSONL traces. *)

module Obs = Fbb_obs

(* A sink that records every event, for asserting on the raw stream. *)
let recording () =
  let events = ref [] in
  ( { Obs.Sink.emit = (fun e -> events := e :: !events);
      flush = (fun () -> ()) },
    fun () -> List.rev !events )

let fresh =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Printf.sprintf "%s.%d" prefix !n

(* ----- spans ------------------------------------------------------------ *)

let test_span_nesting () =
  let sink, events = recording () in
  let r =
    Obs.Sink.with_installed sink (fun () ->
        Obs.Span.with_ ~name:"outer" (fun () ->
            Obs.Span.with_ ~name:"inner" (fun () -> ());
            Obs.Span.with_ ~name:"inner" (fun () -> 41 + 1)))
  in
  Alcotest.(check int) "value returned through spans" 42 r;
  let shape =
    List.filter_map
      (function
        | Obs.Event.Span_begin { name; depth; _ } -> Some (`B, name, depth)
        | Obs.Event.Span_end { name; depth; _ } -> Some (`E, name, depth)
        | _ -> None)
      (events ())
  in
  Alcotest.(check int) "six span events" 6 (List.length shape);
  Alcotest.(check bool) "begin/end pairing and depths" true
    (shape
    = [
        (`B, "outer", 0);
        (`B, "inner", 1);
        (`E, "inner", 1);
        (`B, "inner", 1);
        (`E, "inner", 1);
        (`E, "outer", 0);
      ])

let test_span_exception_safe () =
  let sink, events = recording () in
  (try
     Obs.Sink.with_installed sink (fun () ->
         Obs.Span.with_ ~name:"doomed" (fun () -> failwith "boom"))
   with Failure _ -> ());
  let opens, closes =
    List.fold_left
      (fun (b, e) ev ->
        match ev with
        | Obs.Event.Span_begin _ -> (b + 1, e)
        | Obs.Event.Span_end _ -> (b, e + 1)
        | _ -> (b, e))
      (0, 0) (events ())
  in
  Alcotest.(check (pair int int)) "end emitted despite raise" (1, 1)
    (opens, closes)

let test_span_durations_aggregate () =
  let agg = Obs.Aggregate.create () in
  Obs.Sink.with_installed (Obs.Aggregate.sink agg) (fun () ->
      for _ = 1 to 3 do
        Obs.Span.with_ ~name:"work" (fun () -> Sys.opaque_identity ())
      done);
  match Obs.Aggregate.span_stat agg "work" with
  | None -> Alcotest.fail "span not aggregated"
  | Some (count, total_s, max_s) ->
    Alcotest.(check int) "count" 3 count;
    Alcotest.(check bool) "durations sane" true
      (total_s >= 0.0 && max_s >= 0.0 && max_s <= total_s +. 1e-12)

(* ----- counters --------------------------------------------------------- *)

let test_counter_totals_without_sink () =
  Alcotest.(check bool) "no sink installed" false (Obs.Sink.enabled ());
  let c = Obs.Counter.make (fresh "t.plain") in
  Obs.Counter.add c 5;
  Obs.Counter.incr c;
  Alcotest.(check int) "total accumulates sink-free" 6 (Obs.Counter.read c);
  Obs.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Obs.Counter.read c)

let test_counter_registration_idempotent () =
  let name = fresh "t.idem" in
  let a = Obs.Counter.make name in
  let b = Obs.Counter.make name in
  Obs.Counter.add a 2;
  Obs.Counter.add b 3;
  Alcotest.(check int) "same underlying counter" 5 (Obs.Counter.read a);
  Alcotest.(check string) "name preserved" name (Obs.Counter.name b)

let test_counter_aggregation () =
  let name = fresh "t.agg" in
  let c = Obs.Counter.make name in
  let agg = Obs.Aggregate.create () in
  Obs.Sink.with_installed (Obs.Aggregate.sink agg) (fun () ->
      Obs.Span.with_ ~name:"span" (fun () ->
          Obs.Counter.add c 4;
          Obs.Counter.incr c));
  Alcotest.(check (option int)) "deltas reach the aggregator" (Some 5)
    (Obs.Aggregate.counter_total agg name)

let test_counter_delta_attribution () =
  (* Pending deltas flush at span boundaries: increments made inside a
     span appear as Counter_add events between its begin and end. *)
  let name = fresh "t.attr" in
  let c = Obs.Counter.make name in
  let sink, events = recording () in
  Obs.Sink.with_installed sink (fun () ->
      Obs.Span.with_ ~name:"s" (fun () -> Obs.Counter.add c 7));
  let saw = ref None in
  List.iter
    (function
      | Obs.Event.Counter_add { name = n; delta; _ } when n = name ->
        saw := Some delta
      | _ -> ())
    (events ());
  Alcotest.(check (option int)) "one batched delta event" (Some 7) !saw

let test_gauge () =
  let g = Obs.Counter.Gauge.make (fresh "t.gauge") in
  Obs.Counter.Gauge.set g 2.5;
  Alcotest.(check (float 1e-12)) "gauge readback" 2.5
    (Obs.Counter.Gauge.read g)

(* ----- sink management -------------------------------------------------- *)

let test_sink_restore () =
  let sink_a, _ = recording () in
  let sink_b, events_b = recording () in
  Obs.Sink.with_installed sink_a (fun () ->
      Obs.Sink.with_installed sink_b (fun () ->
          Alcotest.(check bool) "inner enabled" true (Obs.Sink.enabled ());
          Obs.Span.with_ ~name:"inner-only" (fun () -> ()));
      Alcotest.(check bool) "outer restored" true (Obs.Sink.enabled ()));
  Alcotest.(check bool) "cleared at top level" false (Obs.Sink.enabled ());
  (* A completed span emits begin/end plus a histogram observation and
     a GC sample; only the begin/end pair is counted here. *)
  Alcotest.(check int) "inner sink saw its span" 2
    (List.length
       (List.filter
          (function
            | Obs.Event.Span_begin _ | Obs.Event.Span_end _ -> true
            | _ -> false)
          (events_b ())))

let test_suspended () =
  let sink, events = recording () in
  Obs.Sink.with_installed sink (fun () ->
      Obs.Sink.suspended (fun () ->
          Alcotest.(check bool) "suspended" false (Obs.Sink.enabled ());
          Obs.Span.with_ ~name:"invisible" (fun () -> ()));
      Alcotest.(check bool) "restored" true (Obs.Sink.enabled ()));
  Alcotest.(check int) "no events while suspended" 0
    (List.length (events ()))

let test_null_sink_noop () =
  (* The null sink must swallow the full event stream without effect;
     counters still accumulate. *)
  let c = Obs.Counter.make (fresh "t.null") in
  let r =
    Obs.Sink.with_installed Obs.Sink.null (fun () ->
        Obs.Span.with_ ~name:"nulled" (fun () ->
            Obs.Counter.add c 9;
            "ok"))
  in
  Alcotest.(check string) "value through null sink" "ok" r;
  Alcotest.(check int) "counter total intact" 9 (Obs.Counter.read c)

(* ----- JSONL round-trip ------------------------------------------------- *)

(* Minimal parser for the flat one-line objects Jsonl emits: keys are
   plain strings, values are strings or numbers, no nesting. *)
let parse_flat line =
  let n = String.length line in
  let i = ref 0 in
  let fail msg = Alcotest.failf "bad json (%s): %s" msg line in
  let expect ch =
    if !i >= n || line.[!i] <> ch then
      fail (Printf.sprintf "expected '%c' at %d" ch !i);
    incr i
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string"
      else
        match line.[!i] with
        | '"' -> incr i
        | '\\' ->
          incr i;
          if !i >= n then fail "dangling escape";
          (match line.[!i] with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'u' ->
            if !i + 4 >= n then fail "short \\u";
            let code = int_of_string ("0x" ^ String.sub line (!i + 1) 4) in
            Buffer.add_char b (Char.chr (code land 0xff));
            i := !i + 4
          | c -> Buffer.add_char b c);
          incr i;
          go ()
        | c ->
          Buffer.add_char b c;
          incr i;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !i in
    while
      !i < n
      && (match line.[!i] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr i
    done;
    match float_of_string_opt (String.sub line start (!i - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  expect '{';
  let fields = ref [] in
  let rec members () =
    let key = parse_string () in
    expect ':';
    let value =
      if !i < n && line.[!i] = '"' then `S (parse_string ())
      else `F (parse_number ())
    in
    fields := (key, value) :: !fields;
    if !i < n && line.[!i] = ',' then begin
      incr i;
      members ()
    end
  in
  if not (!i < n && line.[!i] = '}') then members ();
  expect '}';
  if !i <> n then fail "trailing garbage";
  List.rev !fields

let test_jsonl_roundtrip () =
  let path = Filename.temp_file "fbb_obs" ".jsonl" in
  let counter = Obs.Counter.make (fresh "t.jsonl") in
  let cname = Obs.Counter.name counter in
  let writer = Obs.Jsonl.create path in
  Obs.Sink.with_installed (Obs.Jsonl.sink writer) (fun () ->
      Obs.Span.with_ ~name:"a \"quoted\"\nname" (fun () ->
          Obs.Span.with_ ~name:"child" (fun () -> Obs.Counter.add counter 3)));
  Obs.Jsonl.close writer;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check bool) "trace non-empty" true (lines <> []);
  let stack = ref [] in
  let counter_sum = ref 0 in
  List.iter
    (fun line ->
      let fields = parse_flat line in
      let str k =
        match List.assoc_opt k fields with
        | Some (`S s) -> s
        | Some (`F _) | None -> Alcotest.failf "missing string %s: %s" k line
      in
      let num k =
        match List.assoc_opt k fields with
        | Some (`F f) -> f
        | Some (`S _) | None -> Alcotest.failf "missing number %s: %s" k line
      in
      Alcotest.(check bool) "timestamp present and sane" true (num "ts" >= 0.0);
      match str "ph" with
      | "B" -> stack := str "name" :: !stack
      | "E" -> begin
        match !stack with
        | top :: rest ->
          Alcotest.(check string) "end matches innermost begin" top
            (str "name");
          Alcotest.(check bool) "duration non-negative" true
            (num "dur_s" >= 0.0);
          stack := rest
        | [] -> Alcotest.failf "unbalanced end: %s" line
      end
      | "C" -> if str "name" = cname then
          counter_sum := !counter_sum + int_of_float (num "delta")
      | "G" | "H" -> ignore (num "value")
      | "M" -> ignore (num "minor_words")
      | ph -> Alcotest.failf "unknown phase %s" ph)
    lines;
  Alcotest.(check (list string)) "all spans closed" [] !stack;
  Alcotest.(check int) "counter delta survives round-trip" 3 !counter_sum

let test_event_json_escaping () =
  let j =
    Obs.Event.to_json
      (Obs.Event.Span_begin
         { name = "q\"\\\n\t"; ts = 0.5; depth = 2; dom = 0; trace = "" })
  in
  let fields = parse_flat j in
  match List.assoc_opt "name" fields with
  | Some (`S s) -> Alcotest.(check string) "escapes round-trip" "q\"\\\n\t" s
  | Some (`F _) | None -> Alcotest.fail "name field missing"

(* ----- histograms ------------------------------------------------------- *)

let test_histogram_edges () =
  let h = Obs.Histogram.create "t.hist.edges" in
  (* Zero, negative and NaN land in the bottom bucket: counted, no max. *)
  Obs.Histogram.observe h 0.0;
  Obs.Histogram.observe h (-3.0);
  Obs.Histogram.observe h Float.nan;
  Alcotest.(check int) "degenerate values counted" 3 (Obs.Histogram.count h);
  Alcotest.(check (float 0.0)) "max untouched by degenerates" 0.0
    (Obs.Histogram.max_value h);
  (match Obs.Histogram.nonzero_buckets h with
  | [ (0, 3) ] -> ()
  | bs ->
    Alcotest.failf "degenerates not in bucket 0: %s"
      (String.concat ","
         (List.map (fun (i, c) -> Printf.sprintf "%d:%d" i c) bs)));
  (* Values below the grid (2^-40) and above it (2^24) clamp to the
     first and last real bucket instead of being dropped. *)
  Obs.Histogram.observe h 1e-15;
  Obs.Histogram.observe h 1e9;
  Alcotest.(check int) "extremes counted" 5 (Obs.Histogram.count h);
  Alcotest.(check (float 0.0)) "max is exact" 1e9 (Obs.Histogram.max_value h);
  Alcotest.(check (float 0.0)) "p99 capped at the exact max" 1e9
    (Obs.Histogram.percentile h 0.99)

let test_histogram_percentile_accuracy () =
  let h = Obs.Histogram.create "t.hist.acc" in
  for i = 1 to 1000 do
    Obs.Histogram.observe h (float_of_int i *. 1e-3)
  done;
  let check_pct p expected =
    let got = Obs.Histogram.percentile h p in
    (* One log-linear bucket is 1/16 of an octave: <= 6.25% relative
       error, upper-edge biased. *)
    Alcotest.(check bool)
      (Printf.sprintf "p%.0f within a bucket width" (p *. 100.0))
      true
      (got >= expected *. 0.99 && got <= expected *. 1.07)
  in
  check_pct 0.50 0.5;
  check_pct 0.90 0.9;
  check_pct 0.99 0.99;
  Alcotest.(check (float 1e-9)) "mean exact from atomic sum" 0.5005
    (Obs.Histogram.mean h)

let test_histogram_merge_matches_combined () =
  let a = Obs.Histogram.create "t.hist.a"
  and b = Obs.Histogram.create "t.hist.b"
  and all = Obs.Histogram.create "t.hist.all" in
  let vs_a = [ 0.001; 0.004; 0.12; 7.0 ] and vs_b = [ 0.0; 0.03; 250.0 ] in
  List.iter (Obs.Histogram.observe a) vs_a;
  List.iter (Obs.Histogram.observe b) vs_b;
  List.iter (Obs.Histogram.observe all) (vs_a @ vs_b);
  let u = Obs.Histogram.union a b in
  Alcotest.(check int) "merged count" (Obs.Histogram.count all)
    (Obs.Histogram.count u);
  Alcotest.(check (float 0.0)) "merged max" (Obs.Histogram.max_value all)
    (Obs.Histogram.max_value u);
  Alcotest.(check bool) "merged buckets" true
    (Obs.Histogram.nonzero_buckets u = Obs.Histogram.nonzero_buckets all)

let qcheck_histogram_merge_associative =
  (* Bucket counts, count and max are exactly associative under union
     (float sums only approximately, so they are not compared). *)
  let gen =
    QCheck.list_of_size (QCheck.Gen.int_range 0 30)
      (QCheck.float_range (-1.0) 1e7)
  in
  QCheck.Test.make ~count:100 ~name:"histogram union is associative"
    (QCheck.triple gen gen gen)
    (fun (xs, ys, zs) ->
      let mk name vs =
        let h = Obs.Histogram.create name in
        List.iter (Obs.Histogram.observe h) vs;
        h
      in
      let a = mk "qa" xs and b = mk "qb" ys and c = mk "qc" zs in
      let l = Obs.Histogram.union (Obs.Histogram.union a b) c in
      let r = Obs.Histogram.union a (Obs.Histogram.union b c) in
      Obs.Histogram.nonzero_buckets l = Obs.Histogram.nonzero_buckets r
      && Obs.Histogram.count l = Obs.Histogram.count r
      && (Obs.Histogram.count l = 0
         || Obs.Histogram.max_value l = Obs.Histogram.max_value r))

let test_span_records_histogram () =
  let name = fresh "t.span.hist" in
  let sink, events = recording () in
  Obs.Sink.with_installed sink (fun () ->
      Obs.Span.with_ ~name (fun () -> Sys.opaque_identity ()));
  (* The duration lands both in the registry histogram and on the wire
     as a Hist_record carrying the same value. *)
  let h = Obs.Histogram.make name in
  Alcotest.(check int) "registry histogram observed the span" 1
    (Obs.Histogram.count h);
  let wire =
    List.filter_map
      (function
        | Obs.Event.Hist_record { name = n; value; _ } when n = name ->
          Some value
        | _ -> None)
      (events ())
  in
  (match wire with
  | [ v ] ->
    Alcotest.(check (float 1e-12)) "wire value = histogram sum" v
      (Obs.Histogram.sum h)
  | l -> Alcotest.failf "expected 1 Hist_record, got %d" (List.length l));
  Obs.Histogram.reset h

(* ----- GC profiling ------------------------------------------------------ *)

let test_gc_delta_monotone () =
  let before = Obs.Gcprof.sample () in
  (* Allocate enough to move minor_words for sure. *)
  let keep = ref [] in
  for i = 1 to 1000 do
    keep := Array.make 10 i :: !keep
  done;
  ignore (Sys.opaque_identity !keep);
  let after = Obs.Gcprof.sample () in
  let d = Obs.Gcprof.delta ~before ~after in
  Alcotest.(check bool) "allocation observed" true
    (d.Obs.Gcprof.minor_words > 0.0);
  Alcotest.(check bool) "all delta fields non-negative" true
    (d.Obs.Gcprof.minor_words >= 0.0
    && d.Obs.Gcprof.major_words >= 0.0
    && d.Obs.Gcprof.minor_collections >= 0
    && d.Obs.Gcprof.major_collections >= 0);
  (* Deltas against a later snapshot clamp at zero, never go negative. *)
  let clamped = Obs.Gcprof.delta ~before:after ~after:before in
  Alcotest.(check (float 0.0)) "clamped minor words" 0.0
    clamped.Obs.Gcprof.minor_words;
  Alcotest.(check int) "clamped collections" 0
    clamped.Obs.Gcprof.minor_collections

let test_span_emits_gc_sample () =
  let name = fresh "t.span.gc" in
  let sink, events = recording () in
  Obs.Sink.with_installed sink (fun () ->
      Obs.Span.with_ ~name (fun () ->
          ignore (Sys.opaque_identity (Array.make 4096 0.0))));
  let samples =
    List.filter
      (function
        | Obs.Event.Gc_sample { name = n; minor_words; _ } ->
          n = name && minor_words >= 0.0
        | _ -> false)
      (events ())
  in
  Alcotest.(check int) "one GC sample per span" 1 (List.length samples)

let test_gc_sampling_toggle () =
  let sink, events = recording () in
  Obs.Gcprof.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.Gcprof.set_enabled true)
    (fun () ->
      Obs.Sink.with_installed sink (fun () ->
          Obs.Span.with_ ~name:"t.gc.off" (fun () -> ())));
  Alcotest.(check int) "no GC sample when disabled" 0
    (List.length
       (List.filter
          (function Obs.Event.Gc_sample _ -> true | _ -> false)
          (events ())))

(* ----- JSONL under exceptions ------------------------------------------- *)

let test_jsonl_valid_when_raising () =
  (* Satellite guarantee: even when spanned code raises, the trace file
     closes as valid line-by-line JSON with a balanced span stream. *)
  let path = Filename.temp_file "fbb_obs_raise" ".jsonl" in
  let writer = Obs.Jsonl.create path in
  (try
     Obs.Sink.with_installed (Obs.Jsonl.sink writer) (fun () ->
         Obs.Span.with_ ~name:"outer" (fun () ->
             Obs.Span.with_ ~name:"inner" (fun () -> failwith "boom")))
   with Failure _ -> ());
  Obs.Jsonl.close writer;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check bool) "trace non-empty" true (lines <> []);
  let stack = ref [] in
  List.iter
    (fun line ->
      (* Every line must parse as standalone JSON... *)
      match Fbb_util.Json.parse_opt line with
      | None -> Alcotest.failf "invalid JSON line: %s" line
      | Some v -> (
        match
          (Fbb_util.Json.member_str "ph" v, Fbb_util.Json.member_str "name" v)
        with
        | Some "B", Some name -> stack := name :: !stack
        | Some "E", Some name -> (
          match !stack with
          | top :: rest when top = name -> stack := rest
          | _ -> Alcotest.failf "unbalanced end: %s" line)
        | Some _, Some _ -> ()
        | _ -> Alcotest.failf "line without ph/name: %s" line))
    lines;
  (* ...and both spans must have closed despite the raise. *)
  Alcotest.(check (list string)) "balanced despite raise" [] !stack

(* ----- contexts --------------------------------------------------------- *)

let test_context_scoping () =
  Alcotest.(check (option pass)) "no context by default" None
    (Obs.Context.current ());
  Alcotest.(check string) "empty trace id by default" ""
    (Obs.Context.trace_id ());
  let a = Obs.Context.make () and b = Obs.Context.make () in
  Alcotest.(check bool) "fresh ids are unique" true (a.trace <> b.trace);
  let seen =
    Obs.Context.with_ a (fun () ->
        let outer = Obs.Context.trace_id () in
        let inner = Obs.Context.with_ b (fun () -> Obs.Context.trace_id ()) in
        (outer, inner, Obs.Context.trace_id ()))
  in
  Alcotest.(check (triple string string string)) "nesting restores"
    (a.trace, b.trace, a.trace) seen;
  Alcotest.(check string) "restored to none" "" (Obs.Context.trace_id ());
  (try
     Obs.Context.with_ a (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check string) "restored after raise" "" (Obs.Context.trace_id ())

let test_context_parent_span () =
  let sink, _ = recording () in
  let parent =
    Obs.Sink.with_installed sink (fun () ->
        Obs.Span.with_ ~name:"outer" (fun () ->
            Obs.Span.with_ ~name:"inner" (fun () ->
                (Obs.Context.make ()).parent_span)))
  in
  Alcotest.(check string) "parent is the innermost open span" "inner" parent;
  Alcotest.(check string) "span stack drained" "" (Obs.Context.innermost_span ());
  Alcotest.(check string) "top-level parent is empty" ""
    ((Obs.Context.make ()).parent_span)

let test_spans_carry_trace () =
  let sink, events = recording () in
  let ctx = Obs.Context.make ~trace:"t-spans" () in
  Obs.Sink.with_installed sink (fun () ->
      Obs.Context.with_ ctx (fun () ->
          Obs.Span.with_ ~name:"a" (fun () ->
              Obs.Span.with_ ~name:"b" (fun () -> ())));
      Obs.Span.with_ ~name:"after" (fun () -> ()));
  let traces =
    List.filter_map
      (function
        | Obs.Event.Span_begin { name; trace; _ }
        | Obs.Event.Span_end { name; trace; _ } -> Some (name, trace)
        | _ -> None)
      (events ())
  in
  List.iter
    (fun (name, trace) ->
      Alcotest.(check string)
        (Printf.sprintf "span %s trace" name)
        (if name = "after" then "" else "t-spans")
        trace)
    traces

let test_pool_propagates_context () =
  (* Every span opened inside a parallel section — wherever it runs —
     must carry the submitting request's trace id. *)
  let sink, events = recording () in
  let ctx = Obs.Context.make ~trace:"t-pool" () in
  Fbb_par.Pool.set_jobs 4;
  Obs.Sink.with_installed sink (fun () ->
      Obs.Context.with_ ctx (fun () ->
          Fbb_par.Pool.parallel_for ~chunk:1 ~n:16 (fun i ->
              Obs.Span.with_ ~name:"task" (fun () ->
                  ignore (Sys.opaque_identity i)))));
  Fbb_par.Pool.set_jobs 1;
  let spans =
    List.filter_map
      (function
        | Obs.Event.Span_begin { name = "task"; trace; dom; _ } ->
          Some (trace, dom)
        | _ -> None)
      (events ())
  in
  Alcotest.(check int) "all 16 task spans recorded" 16 (List.length spans);
  List.iter
    (fun (trace, dom) ->
      Alcotest.(check string)
        (Printf.sprintf "task span on domain %d is traced" dom)
        "t-pool" trace)
    spans

(* ----- series ----------------------------------------------------------- *)

let test_series_ring () =
  let s = Obs.Series.create ~cap:4 (fresh "t.series") in
  Alcotest.(check int) "empty" 0 (Obs.Series.length s);
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "no last" None
    (Obs.Series.last s);
  for i = 1 to 3 do
    Obs.Series.push s ~ts:(float_of_int i) (float_of_int (10 * i))
  done;
  Alcotest.(check int) "partial fill" 3 (Obs.Series.length s);
  Alcotest.(check bool) "oldest first" true
    (Obs.Series.points s = [| (1.0, 10.0); (2.0, 20.0); (3.0, 30.0) |]);
  for i = 4 to 6 do
    Obs.Series.push s ~ts:(float_of_int i) (float_of_int (10 * i))
  done;
  Alcotest.(check int) "capped" 4 (Obs.Series.length s);
  Alcotest.(check bool) "wraparound evicts oldest" true
    (Obs.Series.values s = [| 30.0; 40.0; 50.0; 60.0 |]);
  Alcotest.(check (option (pair (float 0.0) (float 0.0)))) "last"
    (Some (6.0, 60.0)) (Obs.Series.last s);
  Alcotest.(check bool) "zero cap rejected" true
    (match Obs.Series.create ~cap:0 "t.bad" with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_series_registry () =
  let name = fresh "t.series.reg" in
  let a = Obs.Series.make ~cap:8 name in
  let b = Obs.Series.make name in
  Obs.Series.push a ~ts:1.0 5.0;
  Alcotest.(check int) "same underlying ring" 1 (Obs.Series.length b);
  Alcotest.(check bool) "registered" true
    (List.exists (fun s -> Obs.Series.name s = name) (Obs.Series.registered ()))

(* ----- histogram snapshots ---------------------------------------------- *)

let test_histogram_percentile_opt () =
  let h = Obs.Histogram.create (fresh "t.hist.opt") in
  Alcotest.(check (option (float 0.0))) "empty -> None" None
    (Obs.Histogram.percentile_opt h 0.5);
  Obs.Histogram.observe h 2.0;
  Alcotest.(check bool) "non-empty -> Some" true
    (Obs.Histogram.percentile_opt h 0.5 <> None)

let test_histogram_interval_sub () =
  let h = Obs.Histogram.create (fresh "t.hist.iv") in
  Obs.Histogram.observe h 0.001;
  Obs.Histogram.observe h 0.002;
  let older = Obs.Histogram.copy h in
  Alcotest.(check int) "copy is a snapshot" 2 (Obs.Histogram.count older);
  Obs.Histogram.observe h 0.100;
  Obs.Histogram.observe h 0.200;
  let iv = Obs.Histogram.interval_sub ~newer:(Obs.Histogram.copy h) ~older in
  Alcotest.(check int) "interval counts only new samples" 2
    (Obs.Histogram.count iv);
  (* The two new observations are 0.1 and 0.2: the interval median must
     sit near them, far above the older millisecond samples. *)
  (match Obs.Histogram.percentile_opt iv 0.99 with
  | Some p -> Alcotest.(check bool) "interval p99 reflects new samples" true
                (p > 0.05)
  | None -> Alcotest.fail "interval histogram empty");
  let empty_iv =
    Obs.Histogram.interval_sub ~newer:(Obs.Histogram.copy h)
      ~older:(Obs.Histogram.copy h)
  in
  Alcotest.(check int) "idle interval is empty" 0
    (Obs.Histogram.count empty_iv)

(* ----- telemetry sampler ------------------------------------------------ *)

let test_sampler_series () =
  let cname = fresh "t.tele.work" in
  let gname = fresh "t.tele.level" in
  let c = Obs.Counter.make cname in
  let g = Obs.Counter.Gauge.make gname in
  let s = Obs.Telemetry.create () in
  Obs.Counter.add c 5;
  Obs.Counter.Gauge.set g 2.5;
  Obs.Telemetry.sample_now s;
  Obs.Counter.add c 3;
  Obs.Telemetry.sample_now s;
  Obs.Telemetry.sample_now s;
  let series name = Obs.Series.values (Obs.Series.make ("counter." ^ name)) in
  let tail2 a =
    let n = Array.length a in
    if n < 2 then [||] else Array.sub a (n - 2) 2
  in
  (* First tick swallows the pre-existing total as its delta; the next
     two see +3 and +0. *)
  Alcotest.(check bool) "counter deltas per tick" true
    (tail2 (series cname) = [| 3.0; 0.0 |]);
  let gs = Obs.Series.values (Obs.Series.make ("gauge." ^ gname)) in
  Alcotest.(check bool) "gauge sampled" true
    (Array.length gs >= 3 && gs.(Array.length gs - 1) = 2.5);
  Alcotest.(check bool) "sampler cost published" true
    (List.mem_assoc "obs.telemetry.ticks" (Obs.Counter.Gauge.values ()));
  Alcotest.(check bool) "overhead is a sane percentage" true
    (let p = Obs.Telemetry.overhead_pct s in
     p >= 0.0 && p <= 100.0)

let test_sampler_histogram_interval () =
  let hname = fresh "t.tele.lat" in
  let h = Obs.Histogram.make hname in
  let s = Obs.Telemetry.create () in
  Obs.Histogram.observe h 0.010;
  Obs.Histogram.observe h 0.010;
  Obs.Telemetry.sample_now s;
  Obs.Telemetry.sample_now s;
  let p50 = Obs.Series.values (Obs.Series.make ("hist." ^ hname ^ ".p50_s")) in
  let n = Array.length p50 in
  Alcotest.(check bool) "active tick has a finite p50" true
    (n >= 2 && Float.is_finite p50.(n - 2));
  Alcotest.(check bool) "idle tick records NaN gap" true
    (n >= 1 && Float.is_nan p50.(n - 1))

(* ----- prometheus text -------------------------------------------------- *)

let test_promtext_render_valid () =
  let c = Obs.Counter.make (fresh "t.prom.hits") in
  let g = Obs.Counter.Gauge.make (fresh "t.prom-gauge") in
  Obs.Counter.add c 7;
  Obs.Counter.Gauge.set g Float.nan;
  let page = Obs.Promtext.render () in
  (match Obs.Promtext.validate page with
  | Ok () -> ()
  | Error m -> Alcotest.failf "rendered page fails validation: %s\n%s" m page);
  Alcotest.(check bool) "counter rendered as _total" true
    (let needle = Obs.Promtext.metric_name (Obs.Counter.name c) ^ "_total 7" in
     let nh = String.length page and nn = String.length needle in
     let rec go i =
       i + nn <= nh && (String.sub page i nn = needle || go (i + 1))
     in
     go 0);
  Alcotest.(check string) "names sanitized and prefixed" "fbb_t_prom_gauge_1"
    (Obs.Promtext.metric_name "t.prom-gauge_1")

let test_promtext_validator_rejects () =
  let bad page = Obs.Promtext.validate page = Ok () in
  Alcotest.(check bool) "valid minimal page" true
    (Obs.Promtext.validate "# HELP x y\n# TYPE x counter\nx 1\n" = Ok ());
  Alcotest.(check bool) "bad metric name" false (bad "9name 1\n");
  Alcotest.(check bool) "bad TYPE" false (bad "# TYPE x widget\nx 1\n");
  Alcotest.(check bool) "bad value" false (bad "x one\n");
  Alcotest.(check bool) "unterminated label block" false (bad "x{a=\"b\" 1\n");
  Alcotest.(check bool) "labels ok" true
    (bad "x{quantile=\"0.5\",le=\"+Inf\"} NaN 1700000000\n")

(* ----- exemplars -------------------------------------------------------- *)

let test_exemplar_basic () =
  let h = Obs.Histogram.create (fresh "t.exem") in
  Obs.Histogram.observe ~exemplar:"t-early" h 0.010;
  Alcotest.(check bool) "disabled: no exemplar stored" true
    (Obs.Histogram.exemplar_for h 0.010 = None);
  Obs.Histogram.enable_exemplars h;
  Obs.Histogram.enable_exemplars h;  (* idempotent *)
  Obs.Histogram.observe ~exemplar:"t-1" h 0.010;
  (match Obs.Histogram.exemplar_for h 0.010 with
  | Some e ->
    Alcotest.(check string) "trace id" "t-1" e.Obs.Histogram.ex_trace;
    Alcotest.(check (float 1e-12)) "value" 0.010 e.Obs.Histogram.ex_value
  | None -> Alcotest.fail "exemplar not recorded");
  (* Untraced and empty-trace observations never clobber an exemplar. *)
  Obs.Histogram.observe h 0.010;
  Obs.Histogram.observe ~exemplar:"" h 0.010;
  (match Obs.Histogram.exemplar_for h 0.010 with
  | Some e -> Alcotest.(check string) "survives untraced" "t-1" e.ex_trace
  | None -> Alcotest.fail "exemplar lost");
  (* Last traced writer wins; other buckets are independent. *)
  Obs.Histogram.observe ~exemplar:"t-2" h 0.010;
  Obs.Histogram.observe ~exemplar:"t-big" h 10.0;
  (match Obs.Histogram.exemplar_for h 0.010 with
  | Some e -> Alcotest.(check string) "last writer wins" "t-2" e.ex_trace
  | None -> Alcotest.fail "exemplar lost");
  (match Obs.Histogram.exemplar_for h 10.0 with
  | Some e -> Alcotest.(check string) "per-bucket slot" "t-big" e.ex_trace
  | None -> Alcotest.fail "exemplar lost");
  Obs.Histogram.reset h;
  Alcotest.(check bool) "reset clears exemplars" true
    (Obs.Histogram.exemplar_for h 0.010 = None)

let test_exemplar_concurrent_writers () =
  (* Multi-domain writers hammer one bucket, each with its own (trace,
     value) pairing. Last-writer-wins is fine; a torn exemplar — the
     trace id of one writer paired with another's value — is not. *)
  let h = Obs.Histogram.create (fresh "t.exem.race") in
  Obs.Histogram.enable_exemplars h;
  let writers = 4 and rounds = 2_000 in
  (* All values land in the same bucket (within one 6.25% grid step). *)
  let value_of w = 1.0 +. (0.001 *. float_of_int w) in
  let trace_of w = Printf.sprintf "writer-%d" w in
  let torn = Atomic.make 0 in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          (match Obs.Histogram.exemplar_for h 1.0 with
          | None -> ()
          | Some e ->
            let consistent =
              List.exists
                (fun w ->
                  e.Obs.Histogram.ex_trace = trace_of w
                  && Float.abs (e.ex_value -. value_of w) < 1e-12)
                (List.init writers Fun.id)
            in
            if not consistent then Atomic.incr torn);
          Domain.cpu_relax ()
        done)
  in
  let doms =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for _ = 1 to rounds do
              Obs.Histogram.observe ~exemplar:(trace_of w) h (value_of w)
            done))
  in
  List.iter Domain.join doms;
  Atomic.set stop true;
  Domain.join reader;
  Alcotest.(check int) "no torn exemplars" 0 (Atomic.get torn);
  Alcotest.(check int) "no lost observations" (writers * rounds)
    (Obs.Histogram.count h);
  match Obs.Histogram.exemplar_for h 1.0 with
  | Some _ -> ()
  | None -> Alcotest.fail "final exemplar missing"

let test_promtext_exemplar_render () =
  let h = Obs.Histogram.make (fresh "t.prom.exem") in
  Obs.Histogram.enable_exemplars h;
  Obs.Histogram.observe ~exemplar:"req:abc" h 0.010;
  Obs.Histogram.observe h 0.500;
  let page = Obs.Promtext.render () in
  (match Obs.Promtext.validate page with
  | Ok () -> ()
  | Error m -> Alcotest.failf "exemplar page fails validation: %s\n%s" m page);
  let contains needle =
    let nh = String.length page and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub page i nn = needle || go (i + 1)) in
    go 0
  in
  let n = Obs.Promtext.metric_name (Obs.Histogram.name h) ^ "_seconds" in
  Alcotest.(check bool) "bucket exposition" true (contains (n ^ "_bucket{le=\""));
  Alcotest.(check bool) "+Inf bucket closes the grid" true
    (contains (n ^ "_bucket{le=\"+Inf\"} 2"));
  Alcotest.(check bool) "exemplar rendered" true
    (contains "# {trace_id=\"req:abc\"}");
  Obs.Histogram.reset h

(* ----- promtext adversarial pages --------------------------------------- *)

let test_promtext_duplicate_blocks () =
  let ok page = Obs.Promtext.validate page = Ok () in
  Alcotest.(check bool) "duplicate HELP rejected" false
    (ok "# HELP x a\n# TYPE x counter\nx 1\n# HELP x b\nx 2\n");
  Alcotest.(check bool) "duplicate TYPE rejected" false
    (ok "# TYPE x counter\nx 1\n# TYPE x gauge\nx 2\n");
  Alcotest.(check bool) "distinct names fine" true
    (ok "# HELP x a\n# TYPE x counter\nx 1\n# HELP y b\n# TYPE y gauge\ny 2\n");
  (* The duplicate error names the offending line. *)
  (match Obs.Promtext.validate "# HELP x a\n# HELP x b\n" with
  | Error m ->
    Alcotest.(check bool) "error carries line number" true
      (String.length m >= 7 && String.sub m 0 7 = "line 2:")
  | Ok () -> Alcotest.fail "duplicate HELP accepted")

let test_promtext_exemplar_validation () =
  let ok page = Obs.Promtext.validate page = Ok () in
  Alcotest.(check bool) "exemplar on _bucket ok" true
    (ok "x_bucket{le=\"0.1\"} 3 # {trace_id=\"t1\"} 0.05 1700000000.5\n");
  Alcotest.(check bool) "exemplar on _total ok" true
    (ok "x_total 3 # {trace_id=\"t1\"} 1\n");
  Alcotest.(check bool) "exemplar on gauge sample rejected" false
    (ok "x 3 # {trace_id=\"t1\"} 1\n");
  Alcotest.(check bool) "exemplar needs labels" false (ok "x_total 3 # 1\n");
  Alcotest.(check bool) "exemplar needs a value" false
    (ok "x_total 3 # {trace_id=\"t1\"}\n");
  Alcotest.(check bool) "bad exemplar value rejected" false
    (ok "x_total 3 # {trace_id=\"t1\"} zap\n");
  Alcotest.(check bool) "unterminated exemplar labels rejected" false
    (ok "x_total 3 # {trace_id=\"t1\" 1\n");
  Alcotest.(check bool) "trailing garbage rejected" false
    (ok "x_total 3 # {trace_id=\"t1\"} 1 2 3\n")

(* ----- flight recorder --------------------------------------------------- *)

let flight_finish ?(outcome = Obs.Flight.Solved "ilp") ?(exhausted = false)
    ?(latency_s = 0.010) ?(stages = []) ?(counters = []) trace =
  Obs.Flight.finish ~trace ~req_id:trace ~outcome ~exhausted
    ~queue_wait_s:0.001 ~latency_s ~stages ~counters

let test_flight_record_roundtrip () =
  Obs.Flight.clear ();
  let trace = "req:rt-1" in
  Obs.Flight.begin_request ~trace;
  Obs.Sink.with_installed (Obs.Flight.sink ()) (fun () ->
      Obs.Context.with_ (Obs.Context.make ~trace ()) (fun () ->
          Obs.Span.with_ ~name:"serve.request" (fun () ->
              Obs.Span.with_ ~name:"cascade.ilp" (fun () -> ());
              Obs.Span.with_ ~name:"cascade.bb" (fun () -> ()))));
  flight_finish trace
    ~stages:
      [
        {
          Obs.Flight.st_stage = "ilp";
          st_status = "accepted";
          st_work = 120;
          st_leakage_nw = Some 42.5;
        };
      ]
    ~counters:[ ("sta.nodes_repropagated", 17) ];
  (match Obs.Flight.find trace with
  | None -> Alcotest.fail "record not stored"
  | Some r ->
    Alcotest.(check string) "request id" trace r.Obs.Flight.req_id;
    (match r.Obs.Flight.spans with
    | [ root ] ->
      Alcotest.(check string) "root span" "serve.request"
        root.Obs.Flight.sp_name;
      Alcotest.(check int) "children in begin order" 2
        (List.length root.Obs.Flight.sp_children);
      Alcotest.(check (list string)) "child names"
        [ "cascade.ilp"; "cascade.bb" ]
        (List.map (fun s -> s.Obs.Flight.sp_name) root.Obs.Flight.sp_children)
    | spans -> Alcotest.failf "expected one root span, got %d" (List.length spans));
    let j = Obs.Flight.to_json r in
    Alcotest.(check (option string)) "record schema"
      (Some "fbb-flight-record-1")
      (Fbb_util.Json.member_str "schema" j);
    Alcotest.(check (option (float 0.0))) "counter delta serialized" (Some 17.0)
      (Option.bind
         (Fbb_util.Json.member "counters" j)
         (Fbb_util.Json.member_num "sta.nodes_repropagated")));
  (* Untracked traces cost nothing and record nothing. *)
  Alcotest.(check bool) "unknown trace is None" true
    (Obs.Flight.find "req:never" = None);
  let idx = Obs.Flight.index_json () in
  Alcotest.(check (option string)) "index schema" (Some "fbb-flight-1")
    (Fbb_util.Json.member_str "schema" idx);
  Obs.Flight.clear ()

let test_flight_offsets_from_earliest_root () =
  (* A worker-domain span completes before the request's root span
     does; the root still comes first and anchors the offsets at 0. *)
  Obs.Flight.clear ();
  let trace = "req:two-dom" in
  let b name dom ts =
    Obs.Event.Span_begin { name; ts; depth = 0; dom; trace }
  and e name dom ts dur_s =
    Obs.Event.Span_end { name; ts; dur_s; depth = 0; dom; trace }
  in
  Obs.Flight.begin_request ~trace;
  List.iter (Obs.Flight.sink ()).Obs.Sink.emit
    [
      b "serve.request" 0 10.0;
      b "bb.lp_bound" 1 10.1;
      e "bb.lp_bound" 1 10.2 0.1;
      e "serve.request" 0 10.5 0.5;
    ];
  flight_finish trace;
  (match Obs.Flight.record_json trace with
  | None -> Alcotest.fail "record not stored"
  | Some j ->
    let roots =
      Option.value (Fbb_util.Json.member_arr "spans" j) ~default:[]
    in
    Alcotest.(check (list (option string))) "roots ordered by start"
      [ Some "serve.request"; Some "bb.lp_bound" ]
      (List.map (Fbb_util.Json.member_str "name") roots);
    Alcotest.(check (list (option (float 1e-9))))
      "offsets from the earliest root" [ Some 0.0; Some 0.1 ]
      (List.map (Fbb_util.Json.member_num "start_s") roots));
  Obs.Flight.clear ()

let test_flight_eviction_retention () =
  (* Under churn past the capacity, the slowest-K, every non-Solved and
     every exhausted record must survive; fillers go FIFO. *)
  Obs.Flight.clear ();
  Obs.Flight.configure ~capacity:8 ~keep_slowest:2 ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Flight.configure ~capacity:512 ~keep_slowest:16 ();
      Obs.Flight.clear ())
  @@ fun () ->
  flight_finish "req:slow-1" ~latency_s:9.0;
  flight_finish "req:slow-2" ~latency_s:8.0;
  flight_finish "req:shed-1" ~outcome:(Obs.Flight.Shed "overload")
    ~latency_s:0.0;
  flight_finish "req:err-1" ~outcome:(Obs.Flight.Errored "boom")
    ~latency_s:0.002;
  flight_finish "req:exh-1" ~exhausted:true ~latency_s:0.003;
  for i = 1 to 40 do
    flight_finish (Printf.sprintf "req:fill-%d" i) ~latency_s:0.001
  done;
  Alcotest.(check int) "ring stays bounded" 8 (Obs.Flight.size ());
  List.iter
    (fun tr ->
      Alcotest.(check bool) (tr ^ " retained") true (Obs.Flight.find tr <> None))
    [ "req:slow-1"; "req:slow-2"; "req:shed-1"; "req:err-1"; "req:exh-1" ];
  (* FIFO among the unprotected fillers: the early ones are gone, the
     ring's remainder is the newest fillers. *)
  Alcotest.(check bool) "old filler evicted" true
    (Obs.Flight.find "req:fill-1" = None);
  Alcotest.(check bool) "newest filler retained" true
    (Obs.Flight.find "req:fill-40" <> None);
  (* seq stays monotone in the index (newest first). *)
  let seqs = List.map (fun r -> r.Obs.Flight.seq) (Obs.Flight.index ()) in
  Alcotest.(check bool) "index newest-first by seq" true
    (List.sort (fun a b -> compare b a) seqs = seqs)

let test_flight_protection_yields_at_cap () =
  (* A pathological all-protected ring still respects the bound. *)
  Obs.Flight.clear ();
  Obs.Flight.configure ~capacity:4 ~keep_slowest:2 ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Flight.configure ~capacity:512 ~keep_slowest:16 ();
      Obs.Flight.clear ())
  @@ fun () ->
  for i = 1 to 20 do
    flight_finish
      (Printf.sprintf "req:shed-%d" i)
      ~outcome:(Obs.Flight.Shed "overload") ~latency_s:0.0
  done;
  Alcotest.(check int) "bounded even when all protected" 4
    (Obs.Flight.size ());
  Alcotest.(check bool) "newest survives" true
    (Obs.Flight.find "req:shed-20" <> None)

(* ----- slo burn rates ---------------------------------------------------- *)

let test_slo_latency_burn () =
  let sname = fresh "t.slo.p99" in
  let s = Obs.Series.make sname in
  let now = 10_000.0 in
  (* 10 ticks: the 4 oldest non-idle ones breach the threshold, the 4
     newest are healthy, 2 are idle (NaN). *)
  for i = 1 to 10 do
    let v =
      if i <= 4 then 0.010 else if i <= 8 then 1.0 else Float.nan
    in
    Obs.Series.push s ~ts:(now -. float_of_int i) v
  done;
  let o =
    {
      Obs.Slo.slo_name = fresh "latency";
      kind = Obs.Slo.Latency_p { series = sname; threshold_s = 0.5 };
      target = 0.9;
      windows = { Obs.Slo.fast_s = 60.0; slow_s = 3600.0 };
      burn_limit = 2.0;
    }
  in
  let st = Obs.Slo.evaluate ~now o in
  (* bad_frac = 4/8 (NaN ticks excluded); burn = 0.5 / 0.1 = 5. *)
  Alcotest.(check (float 1e-9)) "fast burn" 5.0 st.Obs.Slo.burn_fast;
  Alcotest.(check (float 1e-9)) "slow burn" 5.0 st.Obs.Slo.burn_slow;
  Alcotest.(check bool) "breached when both windows burn" false st.Obs.Slo.ok;
  (* A short fast window holding only good ticks recovers [ok] (slow
     window alone cannot breach). *)
  let o2 =
    { o with Obs.Slo.windows = { Obs.Slo.fast_s = 3.5; slow_s = 3600.0 } }
  in
  let st2 = Obs.Slo.evaluate ~now o2 in
  Alcotest.(check (float 1e-9)) "clean fast window" 0.0 st2.Obs.Slo.burn_fast;
  Alcotest.(check bool) "multi-window veto" true st2.Obs.Slo.ok

let test_slo_ratio_and_gauges () =
  let bad_name = fresh "t.slo.bad" and total_name = fresh "t.slo.total" in
  let bad = Obs.Series.make bad_name and total = Obs.Series.make total_name in
  let now = 20_000.0 in
  for i = 1 to 10 do
    let ts = now -. float_of_int i in
    Obs.Series.push bad ~ts (if i <= 2 then 1.0 else 0.0);
    Obs.Series.push total ~ts 4.0
  done;
  let oname = fresh "shed" in
  Obs.Slo.register
    {
      Obs.Slo.slo_name = oname;
      kind = Obs.Slo.Ratio { bad = [ bad_name ]; total = total_name };
      target = 0.9;
      windows = { Obs.Slo.fast_s = 60.0; slow_s = 3600.0 };
      burn_limit = 2.0;
    };
  Fun.protect ~finally:Obs.Slo.clear @@ fun () ->
  let statuses = Obs.Slo.evaluate_all ~now () in
  (match List.find_opt (fun st -> st.Obs.Slo.objective.slo_name = oname) statuses with
  | None -> Alcotest.fail "objective not evaluated"
  | Some st ->
    (* bad_frac = 2/40; burn = 0.05 / 0.1 = 0.5. *)
    Alcotest.(check (float 1e-9)) "ratio burn" 0.5 st.Obs.Slo.burn_fast;
    Alcotest.(check bool) "inside budget" true st.Obs.Slo.ok);
  (* evaluate_all published the gauges. *)
  let gauges = Obs.Counter.Gauge.values () in
  Alcotest.(check bool) "burn gauge published" true
    (List.mem_assoc ("slo." ^ oname ^ ".burn_fast") gauges);
  Alcotest.(check (option (float 0.0))) "ok gauge is 1" (Some 1.0)
    (List.assoc_opt ("slo." ^ oname ^ ".ok") gauges);
  (* An empty ring burns nothing. *)
  let empty =
    Obs.Slo.evaluate ~now
      {
        Obs.Slo.slo_name = fresh "empty";
        kind =
          Obs.Slo.Ratio { bad = [ fresh "t.slo.none" ]; total = fresh "t.slo.no" };
        target = 0.99;
        windows = Obs.Slo.default_windows;
        burn_limit = 2.0;
      }
  in
  Alcotest.(check (float 1e-12)) "empty window burns 0" 0.0
    empty.Obs.Slo.burn_fast;
  Alcotest.(check bool) "empty window is ok" true empty.Obs.Slo.ok

let test_slo_register_validation () =
  let o =
    {
      Obs.Slo.slo_name = "bad";
      kind = Obs.Slo.Latency_p { series = "x"; threshold_s = 1.0 };
      target = 1.0;
      windows = Obs.Slo.default_windows;
      burn_limit = 2.0;
    }
  in
  Alcotest.check_raises "target 1.0 rejected"
    (Invalid_argument "Slo.register: target must be in [0, 1)") (fun () ->
      Obs.Slo.register o);
  Alcotest.check_raises "non-positive burn limit rejected"
    (Invalid_argument "Slo.register: burn_limit must be > 0") (fun () ->
      Obs.Slo.register { o with Obs.Slo.target = 0.9; burn_limit = 0.0 })

(* ----- http endpoint ---------------------------------------------------- *)

let test_metrics_endpoint () =
  let c = Obs.Counter.make (fresh "t.http.hits") in
  Obs.Counter.add c 3;
  let s = Obs.Telemetry.create () in
  Obs.Telemetry.sample_now s;
  match Obs.Telemetry.serve ~port:0 () with
  | Error m -> Alcotest.failf "serve: %s" m
  | Ok srv ->
    Fun.protect ~finally:(fun () -> Obs.Telemetry.shutdown srv) @@ fun () ->
    let base = Printf.sprintf "http://127.0.0.1:%d" (Obs.Telemetry.port srv) in
    (match Obs.Telemetry.http_get (base ^ "/metrics") with
    | Error m -> Alcotest.failf "GET /metrics: %s" m
    | Ok body -> (
      match Obs.Promtext.validate body with
      | Ok () -> ()
      | Error m -> Alcotest.failf "/metrics invalid: %s" m));
    (match Obs.Telemetry.http_get (base ^ "/snapshot.json") with
    | Error m -> Alcotest.failf "GET /snapshot.json: %s" m
    | Ok body -> (
      match Fbb_util.Json.parse_opt body with
      | None -> Alcotest.fail "/snapshot.json is not JSON"
      | Some j ->
        Alcotest.(check (option string)) "schema" (Some "fbb-telemetry-1")
          (Fbb_util.Json.member_str "schema" j)));
    (match Obs.Telemetry.http_get (base ^ "/healthz") with
    | Ok body -> Alcotest.(check string) "healthz" "ok\n" body
    | Error m -> Alcotest.failf "GET /healthz: %s" m);
    Alcotest.(check bool) "unknown path is a 404" true
      (match Obs.Telemetry.http_get (base ^ "/nope") with
      | Error _ -> true
      | Ok _ -> false);
    (* Scrapes count themselves. *)
    Alcotest.(check bool) "scrape counter ticked" true
      (Obs.Counter.read (Obs.Counter.make "obs.telemetry.scrapes") >= 3)

(* ----- sink swap under load --------------------------------------------- *)

let test_sink_swap_under_load () =
  (* Property: a base sink installed for the whole run observes a
     balanced per-domain span stream even while a second domain
     concurrently tees a scratch sink in and out (the live-attach
     pattern a telemetry endpoint needs). Balance = every Span_end
     matches the innermost open Span_begin of the same domain. *)
  let base, events = recording () in
  let stop = Atomic.make false in
  Obs.Sink.with_installed base (fun () ->
      let swapper =
        Domain.spawn (fun () ->
            let scratch = { Obs.Sink.emit = ignore; flush = ignore } in
            while not (Atomic.get stop) do
              (match Obs.Sink.installed () with
              | Some cur -> Obs.Sink.install (Obs.Sink.tee cur scratch)
              | None -> ());
              Domain.cpu_relax ();
              Obs.Sink.install base
            done)
      in
      Fbb_par.Pool.set_jobs 4;
      for _ = 1 to 50 do
        Fbb_par.Pool.parallel_for ~chunk:1 ~n:8 (fun i ->
            Obs.Span.with_ ~name:"swap.task" (fun () ->
                Obs.Span.with_ ~name:"swap.leaf" (fun () ->
                    ignore (Sys.opaque_identity i))))
      done;
      Atomic.set stop true;
      Domain.join swapper;
      Fbb_par.Pool.set_jobs 1);
  let stacks = Hashtbl.create 8 in
  let stack dom = try Hashtbl.find stacks dom with Not_found -> [] in
  let balanced =
    List.for_all
      (function
        | Obs.Event.Span_begin { name; dom; _ } ->
          Hashtbl.replace stacks dom (name :: stack dom);
          true
        | Obs.Event.Span_end { name; dom; _ } -> (
          match stack dom with
          | top :: rest when top = name ->
            Hashtbl.replace stacks dom rest;
            true
          | _ -> false)
        | _ -> true)
      (events ())
  in
  Alcotest.(check bool) "per-domain span streams stay balanced" true balanced;
  Alcotest.(check bool) "all stacks drained" true
    (Hashtbl.fold (fun _ s acc -> acc && s = []) stacks true);
  let begins =
    List.length
      (List.filter
         (function
           | Obs.Event.Span_begin { name = "swap.task"; _ } -> true
           | _ -> false)
         (events ()))
  in
  Alcotest.(check int) "base sink saw every task span" 400 begins

let suite =
  [
    ("span nesting", `Quick, test_span_nesting);
    ("span exception safety", `Quick, test_span_exception_safe);
    ("span duration aggregation", `Quick, test_span_durations_aggregate);
    ("counter totals without sink", `Quick, test_counter_totals_without_sink);
    ("counter registration idempotent", `Quick,
     test_counter_registration_idempotent);
    ("counter aggregation", `Quick, test_counter_aggregation);
    ("counter delta attribution", `Quick, test_counter_delta_attribution);
    ("gauge", `Quick, test_gauge);
    ("sink install/restore", `Quick, test_sink_restore);
    ("sink suspended", `Quick, test_suspended);
    ("null sink is a no-op", `Quick, test_null_sink_noop);
    ("jsonl round-trip", `Quick, test_jsonl_roundtrip);
    ("event json escaping", `Quick, test_event_json_escaping);
    ("histogram edge buckets", `Quick, test_histogram_edges);
    ("histogram percentile accuracy", `Quick,
     test_histogram_percentile_accuracy);
    ("histogram merge = combined", `Quick,
     test_histogram_merge_matches_combined);
    ("span records histogram", `Quick, test_span_records_histogram);
    ("gc delta monotone", `Quick, test_gc_delta_monotone);
    ("span emits gc sample", `Quick, test_span_emits_gc_sample);
    ("gc sampling toggle", `Quick, test_gc_sampling_toggle);
    ("jsonl valid when raising", `Quick, test_jsonl_valid_when_raising);
    ("context scoping", `Quick, test_context_scoping);
    ("context parent span", `Quick, test_context_parent_span);
    ("spans carry trace id", `Quick, test_spans_carry_trace);
    ("pool propagates context", `Quick, test_pool_propagates_context);
    ("series ring buffer", `Quick, test_series_ring);
    ("series registry", `Quick, test_series_registry);
    ("histogram percentile_opt", `Quick, test_histogram_percentile_opt);
    ("histogram interval_sub", `Quick, test_histogram_interval_sub);
    ("sampler builds series", `Quick, test_sampler_series);
    ("sampler histogram intervals", `Quick, test_sampler_histogram_interval);
    ("promtext render validates", `Quick, test_promtext_render_valid);
    ("promtext validator rejects", `Quick, test_promtext_validator_rejects);
    ("exemplar basic", `Quick, test_exemplar_basic);
    ("exemplar concurrent writers", `Quick, test_exemplar_concurrent_writers);
    ("promtext exemplar render", `Quick, test_promtext_exemplar_render);
    ("promtext duplicate blocks", `Quick, test_promtext_duplicate_blocks);
    ("promtext exemplar validation", `Quick,
     test_promtext_exemplar_validation);
    ("flight record round-trip", `Quick, test_flight_record_roundtrip);
    ("flight offsets from earliest root", `Quick,
     test_flight_offsets_from_earliest_root);
    ("flight eviction retention", `Quick, test_flight_eviction_retention);
    ("flight bounded when all protected", `Quick,
     test_flight_protection_yields_at_cap);
    ("slo latency burn", `Quick, test_slo_latency_burn);
    ("slo ratio and gauges", `Quick, test_slo_ratio_and_gauges);
    ("slo register validation", `Quick, test_slo_register_validation);
    ("metrics endpoint", `Quick, test_metrics_endpoint);
    ("sink swap under load", `Quick, test_sink_swap_under_load);
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [ qcheck_histogram_merge_associative ]
