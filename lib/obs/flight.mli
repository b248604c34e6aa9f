(** Request flight recorder.

    A bounded, domain-safe store of recently served requests — full
    span tree, counter deltas, per-stage cascade accounting, queue
    wait and latency — keyed by trace id. The aggregate histograms
    answer "how slow is p99"; the recorder answers "{e which} request
    was the p99 and where did its budget go".

    Usage: compose {!sink} into the process sink ([Sink.tee] with
    whatever else is installed), bracket each request with
    {!begin_request} / {!finish}, and serve {!index_json} /
    {!record_json} from the telemetry HTTP server ([/requests],
    [/request/<trace-id>.json]).

    Retention is FIFO over {!configure}'s [capacity], except that
    eviction skips the [keep_slowest] highest-latency records, every
    record with a non-[Solved] outcome, and every deadline-exhausted
    record. Protection is best-effort at the cap: when everything is
    protected the oldest record goes anyway — the ring is bounded
    before it is complete.

    The recorder never touches solver state: recording is observation
    only, and the determinism suite replays with it installed. *)

type span = Span_tree.node = {
  sp_name : string;
  sp_dom : int;  (** domain the span ran on *)
  sp_start_s : float;  (** monotonic begin timestamp *)
  sp_dur_s : float;  (** 0 for a span still open at {!finish} *)
  sp_status : Span_tree.status;
  sp_children : span list;
}
(** One node of the request's span tree, as built by {!Span_tree}:
    orphan ends are kept as flat spans, never-closed spans close at
    zero duration. *)

type stage = {
  st_stage : string;
  st_status : string;
  st_work : int;  (** work units this cascade stage spent *)
  st_leakage_nw : float option;
}

type outcome =
  | Solved of string  (** accepting cascade stage *)
  | Infeasible
  | Shed of string  (** reject reason, e.g. ["overload"] *)
  | Errored of string

type record = {
  seq : int;  (** monotone across the process — [fbbd tail]'s cursor *)
  trace : string;
  req_id : string;
  outcome : outcome;
  exhausted : bool;
  queue_wait_s : float;
  latency_s : float;
  stages : stage list;
  counters : (string * int) list;  (** counter deltas across the solve *)
  spans : span list;  (** root spans, ordered by start time *)
  ts_unix : float;
}

val configure : ?capacity:int -> ?keep_slowest:int -> unit -> unit
(** Resize the ring (default 512 records, 16 slowest kept). Values
    below 1 (capacity) or 0 (keep_slowest) are ignored. *)

val sink : unit -> Sink.t
(** A sink that captures span events for pending traces (those between
    {!begin_request} and {!finish}); everything else is dropped at one
    hashtable miss. *)

val begin_request : trace:string -> unit
(** Open a capture window for [trace]; a no-op on [""]. Re-opening a
    live trace discards its captured events. *)

val finish :
  trace:string ->
  req_id:string ->
  outcome:outcome ->
  exhausted:bool ->
  queue_wait_s:float ->
  latency_s:float ->
  stages:stage list ->
  counters:(string * int) list ->
  unit
(** Close the capture window and insert the record (evicting per the
    retention policy). Works without a prior {!begin_request} — shed
    requests record with an empty span tree. No-op on [trace = ""]. *)

val find : string -> record option
val index : unit -> record list
(** All records, newest first. *)

val size : unit -> int
val clear : unit -> unit

val outcome_label : outcome -> string
(** ["solved"], ["infeasible"], ["shed"] or ["error"]. *)

val outcome_detail : outcome -> string

val to_json : record -> Fbb_util.Json.t
(** Full record: schema ["fbb-flight-record-1"], stages, counter
    deltas, span tree with per-span start offsets relative to the
    earliest root. *)

val summary_json : record -> Fbb_util.Json.t
val index_json : unit -> Fbb_util.Json.t
(** Index page: schema ["fbb-flight-1"], newest first. *)

val record_json : string -> Fbb_util.Json.t option
(** [to_json] of the record for a trace id, if held. *)
