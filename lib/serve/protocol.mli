(** The fbbd wire protocol: line-delimited JSON over TCP.

    One request or response per line ([\n]-terminated, no newlines
    inside a frame — {!Fbb_util.Json} never emits any). The codecs are
    total: every decode failure comes back as a typed [Error], never an
    exception, so a garbage peer cannot crash a connection handler.
    Round-trips are exact — [decode (encode v) = Ok v] for every value
    whose floats are finite (JSON has no inf/nan), which the QCheck
    suite pins down.

    Frame reading is bounded: a line longer than the reader's
    [max_frame] is a typed {!read_error}, and EOF in the middle of a
    line is distinguished from a clean close so the server can answer
    a truncated frame before hanging up. *)

(** {2 Requests} *)

type workload =
  | Benchmark of string  (** a built-in {!Fbb_netlist.Benchmarks} design *)
  | Generated of { seed : int; gates : int; rows : int }
      (** {!Fbb_netlist.Generators.random_module} placed on [rows] rows *)

val workload_key : workload -> string
(** Canonical netlist identity, e.g. ["bench:c5315"] or
    ["gen:7:1200:8"]. Requests with equal keys share one prepared
    problem context (delay cache, nominal STA, path set) in the
    server's batcher. *)

type solve = {
  id : string;  (** caller-chosen request id, echoed on the response *)
  client : string option;
      (** tenant id for per-client fair admission; [None] groups the
          request under its connection's synthetic tenant *)
  workload : workload;
  beta : float;  (** slowdown coefficient, fraction (0.05 = 5%) *)
  max_clusters : int;
  deadline_ms : float option;
      (** wall-clock budget measured from {e admission}: queue wait
          counts, so a request that waited out its deadline still gets
          the anytime floor, not an error *)
  work_budget : int option;
      (** deterministic work-tick budget ({!Fbb_util.Budget}); same
          budget, same payload, at any [--jobs] *)
}

type request =
  | Solve of solve
  | Ping of { id : string }
  | Stats of { id : string }

(** {2 Responses} *)

type attempt = {
  stage : string;  (** ["ilp"|"heuristic"|"single_bb"] *)
  status : string;  (** {!Fbb_core.Cascade.status}, rendered *)
  leakage_nw : float option;
  work : int;
}

type reject =
  | Overload of { retry_after_ms : float }
      (** admission queue at capacity; retry after the hinted backoff *)
  | Shutting_down  (** the daemon is draining *)
  | Bad_request of string  (** malformed frame or invalid parameters *)
  | Faulted of string
      (** the request was degraded by an internal error or an injected
          ["serve.accept"]/["serve.read"] fault *)

type stats_payload = {
  queue_depth : int;
  in_flight : int;
  served : int;
  shed : int;
  draining : bool;
  queue_p50_ms : float option;
      (** queue-wait percentiles over the server's lifetime, [None]
          until something has been dequeued *)
  queue_p90_ms : float option;
  queue_p99_ms : float option;
}

type response =
  | Solved of {
      id : string;
      stage : string;
      levels : int array;
      leakage_nw : float;
      gap_pct : float option;
      optimal : bool;
      exhausted : bool;
      attempts : attempt list;
      elapsed_ms : float;
    }
  | Infeasible of { id : string; elapsed_ms : float }
  | Rejected of { id : string; reject : reject }
  | Pong of { id : string }
  | Stats_reply of { id : string; stats : stats_payload }

val response_id : response -> string

(** {2 Codecs} *)

val encode_request : request -> string
(** One JSON line, without the trailing newline. *)

val decode_request : string -> (request, string) result

val encode_response : response -> string
val decode_response : string -> (response, string) result

(** {2 Bounded frame reading} *)

val default_max_frame : int
(** 1 MiB. *)

type read_error =
  | Closed  (** clean EOF at a frame boundary *)
  | Truncated  (** EOF in the middle of a frame *)
  | Oversized of int  (** frame exceeded the limit (the limit, bytes) *)
  | Idle_timeout
      (** the socket's receive deadline ([SO_RCVTIMEO]) expired before
          a complete frame arrived — the slow-loris signal, distinct
          from [Closed]/[Truncated] so evictions are observable *)
  | Io of string  (** transport error, rendered *)

val read_error_to_string : read_error -> string

type reader

val reader : ?max_frame:int -> Unix.file_descr -> reader
(** A buffered line reader over [fd]. The reader owns nothing: closing
    [fd] is the caller's business. *)

val read_frame : reader -> (string, read_error) result
(** Next [\n]-terminated line, without the terminator. After
    [Oversized] the stream cannot be re-synchronized; close the
    connection. *)

val write_frame : Unix.file_descr -> string -> (unit, string) result
(** Write [line ^ "\n"], handling short writes; transport errors come
    back as [Error], never raise. *)
