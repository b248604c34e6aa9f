(** Offline converters for JSONL traces recorded with {!Jsonl}:
    Chrome [trace_event] JSON (Perfetto / chrome://tracing), folded
    flamegraph stacks, and a statistics report. Driven by
    [fbbopt trace convert|flame|stats]. *)

val parse_line : string -> (Event.t, string) result
(** Parse one JSONL trace line. [depth]/[dom] default to 0 and [trace]
    to [""] when absent, so traces recorded before those fields
    existed still convert. *)

val load : ?on_truncated:(string -> unit) -> string -> Event.t list
(** Read a whole trace file; blank lines are skipped. Raises [Failure
    "<path>:<line>: <msg>"] on a malformed line — {e except} when the
    malformed line is the file's last non-blank line, the signature of
    a writer killed mid-append: then the intact prefix is returned and
    [on_truncated] (default: print to stderr) is told what was lost. *)

val filter_trace : trace:string -> Event.t list -> Event.t list
(** Restrict a stream to one request: span events whose trace id
    equals [trace]. Process-global events (counters, gauges, histogram
    observations, GC samples) carry no trace id and are dropped.
    Backs [fbbopt trace convert --trace-id]. *)

val to_chrome : Event.t list -> Fbb_util.Json.t
(** Chrome trace_event document: [{"traceEvents": [...]}] with spans
    as B/E pairs (one [tid] per domain, timestamps rescaled to
    microseconds), counters integrated from deltas onto "C" tracks,
    gauges as "C" values, histogram observations and GC samples as
    instant events with their payload in [args]. Tolerates unbalanced
    traces (Perfetto auto-closes spans cut short). *)

val to_folded : Event.t list -> (string * float) list
(** Folded stacks with self-time in seconds: [("a;b;c", self_s)],
    sorted by stack. Self time is the span's duration minus its direct
    children's durations ({!Span_tree.self_s}), accumulated per
    distinct stack; stacks are tracked per domain and prefixed with
    ["d<dom>"] when the trace involves more than one. Orphan ends and
    spans that never closed are dropped, but closed spans under a
    never-closed parent keep it on their stack. *)

val folded_to_string : (string * float) list -> string
(** Render folded stacks as "stack <self microseconds>" lines (integer
    counts, as flamegraph.pl / inferno expect). *)

val stats : Event.t list -> string
(** Replay the events through an {!Aggregate} and render its report,
    prefixed with stream-level facts: per-phase event counts and span
    balance ({!Span_tree}'s mismatched ends and spans never closed). *)
