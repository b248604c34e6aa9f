(* Offline converters for JSONL traces.

   A trace recorded with the {!Jsonl} sink is a stream of one-line JSON
   events. This module parses it back into {!Event.t} and renders it as

   * Chrome [trace_event] JSON - load the output in Perfetto
     (https://ui.perfetto.dev) or chrome://tracing. Spans become B/E
     pairs on one track per domain; counters and gauges become "C"
     counter tracks; histogram observations and GC samples become
     instant events carrying their payload in [args].
   * folded flamegraph stacks - "a;b;c <self microseconds>" lines,
     ready for inferno / flamegraph.pl. Self time is a span's duration
     minus its children's; stacks are kept per domain.
   * a statistics report - the trace replayed through an {!Aggregate},
     plus stream-level facts (event counts, span balance).

   Both span-nesting views read the one {!Span_tree} replay. Parsing is
   tolerant where recording may have been cut short: [stats] reports
   the tree's orphan ends and never-closed spans instead of failing,
   and the flamegraph drops those frames. Malformed JSON is a hard
   error - the Jsonl sink never writes it, so it means the wrong
   file. *)

module Json = Fbb_util.Json

let int_field v k ~default =
  match Json.member_num k v with
  | Some f -> int_of_float f
  | None -> default

let parse_line line =
  match Json.parse_opt line with
  | None -> Error "malformed JSON"
  | Some v -> (
    match (Json.member_str "ph" v, Json.member_str "name" v) with
    | None, _ | _, None -> Error "missing \"ph\" or \"name\""
    | Some ph, Some name -> (
      let ts = Option.value (Json.member_num "ts" v) ~default:0.0 in
      let num k = Option.value (Json.member_num k v) ~default:0.0 in
      (* depth/dom default to 0 and trace to "" so traces from before
         those fields existed still convert. *)
      match ph with
      | "B" ->
        Ok
          (Event.Span_begin
             {
               name;
               ts;
               depth = int_field v "depth" ~default:0;
               dom = int_field v "dom" ~default:0;
               trace = Option.value (Json.member_str "trace" v) ~default:"";
             })
      | "E" ->
        Ok
          (Event.Span_end
             {
               name;
               ts;
               dur_s = num "dur_s";
               depth = int_field v "depth" ~default:0;
               dom = int_field v "dom" ~default:0;
               trace = Option.value (Json.member_str "trace" v) ~default:"";
             })
      | "C" ->
        Ok (Event.Counter_add { name; delta = int_field v "delta" ~default:0; ts })
      | "G" -> Ok (Event.Gauge_set { name; value = num "value"; ts })
      | "H" -> Ok (Event.Hist_record { name; value = num "value"; ts })
      | "M" ->
        Ok
          (Event.Gc_sample
             {
               name;
               minor_words = num "minor_words";
               major_words = num "major_words";
               minor_collections = int_field v "minor_collections" ~default:0;
               major_collections = int_field v "major_collections" ~default:0;
               top_heap_words = int_field v "top_heap_words" ~default:0;
               ts;
             })
      | ph -> Error (Printf.sprintf "unknown phase %S" ph)))

let default_on_truncated msg = Printf.eprintf "%s\n%!" msg

let load ?(on_truncated = default_on_truncated) path =
  let lines =
    In_channel.with_open_text path In_channel.input_lines |> Array.of_list
  in
  (* Index of the last non-blank line: a parse failure there is the
     signature of a write cut short (crash or kill mid-append), so the
     intact prefix is salvaged and the loss reported; a malformed line
     with valid lines after it is real corruption and still fails. *)
  let last = ref (-1) in
  Array.iteri (fun i l -> if String.trim l <> "" then last := i) lines;
  let events = ref [] in
  Array.iteri
    (fun i line ->
      if String.trim line <> "" then
        match parse_line line with
        | Ok ev -> events := ev :: !events
        | Error msg ->
          let msg = Printf.sprintf "%s:%d: %s" path (i + 1) msg in
          if i = !last then
            on_truncated
              (Printf.sprintf
                 "%s (truncated final line; salvaged %d events)" msg
                 (List.length !events))
          else failwith msg)
    lines;
  List.rev !events

(* ----- trace-id filter -------------------------------------------------- *)

(* Restrict a stream to one request: keep the span events stamped with
   [trace]. Counters, gauges, histogram observations and GC samples
   are process-global (no trace id) and are dropped — a filtered trace
   answers "what did this request do", not "what did the process do
   meanwhile". *)
let filter_trace ~trace events =
  List.filter
    (function
      | Event.Span_begin { trace = t; _ } | Event.Span_end { trace = t; _ } ->
        t = trace
      | Event.Counter_add _ | Event.Gauge_set _ | Event.Hist_record _
      | Event.Gc_sample _ -> false)
    events

(* ----- Chrome trace_event --------------------------------------------- *)

let us ts = ts *. 1e6

let to_chrome events =
  (* Chrome counter tracks plot totals; our Counter_add events carry
     deltas, so integrate per name as we go. *)
  let counter_totals : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
  let trace_events =
    List.map
      (fun ev ->
        let common ph name ts tid rest =
          Json.Obj
            ([
               ("name", Json.Str name);
               ("ph", Json.Str ph);
               ("ts", Json.Num (us ts));
               ("pid", Json.Num 1.0);
               ("tid", Json.Num (float_of_int tid));
             ]
            @ rest)
        in
        match ev with
        | Event.Span_begin { name; ts; depth; dom; trace } ->
          let args = [ ("depth", Json.Num (float_of_int depth)) ] in
          let args =
            if trace = "" then args else ("trace", Json.Str trace) :: args
          in
          common "B" name ts dom [ ("args", Json.Obj args) ]
        | Event.Span_end { name; ts; dom; _ } -> common "E" name ts dom []
        | Event.Counter_add { name; delta; ts } ->
          let r =
            match Hashtbl.find_opt counter_totals name with
            | Some r -> r
            | None ->
              let r = ref 0 in
              Hashtbl.add counter_totals name r;
              r
          in
          r := !r + delta;
          common "C" name ts 0
            [ ("args", Json.Obj [ ("value", Json.Num (float_of_int !r)) ]) ]
        | Event.Gauge_set { name; value; ts } ->
          common "C" name ts 0 [ ("args", Json.Obj [ ("value", Json.Num value) ]) ]
        | Event.Hist_record { name; value; ts } ->
          common "i" name ts 0
            [
              ("s", Json.Str "t");
              ("args", Json.Obj [ ("value", Json.Num value) ]);
            ]
        | Event.Gc_sample
            {
              name;
              minor_words;
              major_words;
              minor_collections;
              major_collections;
              top_heap_words;
              ts;
            } ->
          common "i" ("gc " ^ name) ts 0
            [
              ("s", Json.Str "t");
              ( "args",
                Json.Obj
                  [
                    ("minor_words", Json.Num minor_words);
                    ("major_words", Json.Num major_words);
                    ("minor_collections", Json.Num (float_of_int minor_collections));
                    ("major_collections", Json.Num (float_of_int major_collections));
                    ("top_heap_words", Json.Num (float_of_int top_heap_words));
                  ] );
            ])
      events
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr trace_events);
      ("displayTimeUnit", Json.Str "ms");
    ]

(* ----- folded flamegraph stacks ---------------------------------------- *)

let to_folded events =
  let roots = (Span_tree.build events).roots in
  (* A node's children share its domain, so the roots name every
     domain in the trace. *)
  let multi_dom =
    match roots with
    | r :: rest -> List.exists (fun n -> n.Span_tree.sp_dom <> r.sp_dom) rest
    | [] -> false
  in
  let folded : (string, float) Hashtbl.t = Hashtbl.create 64 in
  (* Post-order, so each key accumulates in its domain's end order.
     Orphan ends are dropped; a never-closed span contributes no frame
     of its own but stays on the path of its closed descendants. *)
  let rec walk path (n : Span_tree.node) =
    match n.sp_status with
    | Orphan_end -> ()
    | Closed | Never_closed ->
      let path = n.sp_name :: path in
      List.iter (walk path) n.sp_children;
      if n.sp_status = Closed then begin
        let key = String.concat ";" (List.rev path) in
        Hashtbl.replace folded key
          (Span_tree.self_s n
          +. Option.value (Hashtbl.find_opt folded key) ~default:0.0)
      end
  in
  List.iter
    (fun (r : Span_tree.node) ->
      walk (if multi_dom then [ Printf.sprintf "d%d" r.sp_dom ] else []) r)
    roots;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) folded []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let folded_to_string folded =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (stack, self_s) ->
      (* flamegraph.pl wants integer sample counts; use microseconds. *)
      Buffer.add_string buf
        (Printf.sprintf "%s %.0f\n" stack (Float.round (us self_s))))
    folded;
  Buffer.contents buf

(* ----- statistics ------------------------------------------------------ *)

let stats events =
  let agg = Aggregate.create () in
  let s = Aggregate.sink agg in
  List.iter s.Sink.emit events;
  let begins = ref 0
  and ends = ref 0
  and counters = ref 0
  and gauges = ref 0
  and hists = ref 0
  and gcs = ref 0 in
  List.iter
    (function
      | Event.Span_begin _ -> incr begins
      | Event.Span_end _ -> incr ends
      | Event.Counter_add _ -> incr counters
      | Event.Gauge_set _ -> incr gauges
      | Event.Hist_record _ -> incr hists
      | Event.Gc_sample _ -> incr gcs)
    events;
  let { Span_tree.orphan_ends; never_closed; _ } = Span_tree.build events in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "events: %d (%d span begin, %d span end, %d counter, %d gauge, %d \
     histogram, %d gc)\n"
    (List.length events) !begins !ends !counters !gauges !hists !gcs;
  if orphan_ends > 0 || never_closed > 0 then
    Printf.bprintf buf
      "WARNING: unbalanced spans: %d mismatched end(s), %d never closed\n"
      orphan_ends never_closed
  else Printf.bprintf buf "span stream balanced\n";
  Buffer.add_string buf (Aggregate.report agg);
  Buffer.contents buf
