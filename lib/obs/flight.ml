(* The request flight recorder: a bounded, domain-safe store of
   recently served requests, each with its full span tree, counter
   deltas, per-stage cascade accounting and queue/latency timings,
   keyed by trace id. This is the per-request half of the telemetry
   plane: aggregate histograms answer "how slow is p99", the recorder
   answers "*which* request was the p99 and where did its budget go".

   Capture path: the server brackets each request with [begin_request]
   / [finish]. In between, a recorder {!Sink.t} (composed into the
   daemon's sink with [Sink.tee]) appends every span event whose trace
   id has a pending entry, as the raw {!Event.t}. At [finish] time
   {!Span_tree} rebuilds the per-domain trees from that interleaved
   stream; the record keeps every node it yields (an orphan end as a
   flat span, a never-closed span at zero duration), so a truncated
   capture still shows where time was being spent. Events for
   traces nobody registered (and all non-span events) are dropped at
   the door, so a busy sink costs untraced work one hashtable miss.

   Retention: a FIFO ring of [capacity] records, except that eviction
   skips (1) the [keep_slowest] highest-latency records, (2) every
   record whose outcome is not Solved (shed, errored, infeasible), and
   (3) every deadline-exhausted record — precisely the requests worth
   debugging after the fact. Protection is best-effort at the cap: if
   *every* record is protected the oldest non-slowest goes anyway
   (bounded beats complete — a misbehaving deployment shedding 100% of
   traffic must not grow the ring without bound).

   Concurrency: one mutex guards the pending table, the record table
   and the eviction order. Sink emits lock it per event (span events
   are already serialized by the sink mutex; this one only orders them
   against begin/finish from the solver thread), reads lock it per
   query. Nothing here is on the solver's algorithmic path, so the
   recorder cannot perturb payloads: the determinism suite replays
   with the recorder installed and demands bit-identical responses. *)

type span = Span_tree.node = {
  sp_name : string;
  sp_dom : int;
  sp_start_s : float;  (* monotonic, same clock as every event ts *)
  sp_dur_s : float;
  sp_status : Span_tree.status;
  sp_children : span list;
}

type stage = {
  st_stage : string;
  st_status : string;
  st_work : int;
  st_leakage_nw : float option;
}

type outcome =
  | Solved of string  (* accepting stage *)
  | Infeasible
  | Shed of string  (* reject reason, e.g. "overload" *)
  | Errored of string

type record = {
  seq : int;  (* monotone across the process; [fbbd tail]'s cursor *)
  trace : string;
  req_id : string;
  outcome : outcome;
  exhausted : bool;
  queue_wait_s : float;
  latency_s : float;
  stages : stage list;
  counters : (string * int) list;  (* counter deltas across the solve *)
  spans : span list;  (* root spans, ordered by start time *)
  ts_unix : float;
}

let outcome_label = function
  | Solved _ -> "solved"
  | Infeasible -> "infeasible"
  | Shed _ -> "shed"
  | Errored _ -> "error"

let outcome_detail = function
  | Solved stage -> stage
  | Infeasible -> ""
  | Shed reason -> reason
  | Errored msg -> msg

(* ----- recorder state --------------------------------------------------- *)

type t = {
  lock : Mutex.t;
  mutable capacity : int;
  mutable keep_slowest : int;
  pending : (string, Event.t list ref) Hashtbl.t;  (* events newest-first *)
  records : (string, record) Hashtbl.t;
  mutable order : string list;  (* insertion order, oldest first *)
  mutable count : int;
  mutable seq : int;
}

let default_capacity = 512
let default_keep_slowest = 16

(* Backstop for begin_request calls whose finish never came (a crashed
   caller): beyond this many open requests the oldest pending entries
   are dropped rather than accreting events forever. *)
let max_pending = 256

let recorder =
  {
    lock = Mutex.create ();
    capacity = default_capacity;
    keep_slowest = default_keep_slowest;
    pending = Hashtbl.create 16;
    records = Hashtbl.create 64;
    order = [];
    count = 0;
    seq = 0;
  }

let configure ?capacity ?keep_slowest () =
  Mutex.protect recorder.lock @@ fun () ->
  (match capacity with
  | Some c when c >= 1 -> recorder.capacity <- c
  | _ -> ());
  match keep_slowest with
  | Some k when k >= 0 -> recorder.keep_slowest <- k
  | _ -> ()

(* ----- capture ---------------------------------------------------------- *)

let begin_request ~trace =
  if trace <> "" then begin
    Mutex.protect recorder.lock @@ fun () ->
    Hashtbl.replace recorder.pending trace (ref []);
    if Hashtbl.length recorder.pending > max_pending then begin
      (* Drop an arbitrary stale entry; with a serial solver the table
         holds one live trace, so anything else is already orphaned. *)
      let victim =
        Hashtbl.fold
          (fun k _ acc -> if k = trace then acc else Some k)
          recorder.pending None
      in
      match victim with
      | Some k -> Hashtbl.remove recorder.pending k
      | None -> ()
    end
  end

(* The recorder's sink: filters the event stream down to span events of
   pending traces. Runs under the sink's emit mutex like any sink, and
   takes the recorder lock per retained event to order captures against
   begin/finish. *)
let sink () =
  let emit ev =
    match ev with
    | (Event.Span_begin { trace; _ } | Event.Span_end { trace; _ })
      when trace <> "" -> (
      Mutex.protect recorder.lock @@ fun () ->
      match Hashtbl.find_opt recorder.pending trace with
      | Some evs -> evs := ev :: !evs
      | None -> ())
    | _ -> ()
  in
  { Sink.emit; flush = (fun () -> ()) }

(* Pick the eviction victim: oldest record that is neither in the
   slowest-K set nor protected by outcome/exhaustion; falling back to
   the oldest non-slowest, then the oldest outright. Called with the
   lock held. *)
let evict_locked () =
  let r = recorder in
  let latencies =
    Hashtbl.fold (fun _ rec_ acc -> rec_.latency_s :: acc) r.records []
    |> List.sort (fun a b -> compare b a)
  in
  let slow_floor =
    (* K-th largest latency; records at or above it are the slowest-K
       (ties widen the set, which errs toward keeping more). *)
    match List.nth_opt latencies (r.keep_slowest - 1) with
    | Some v when r.keep_slowest > 0 -> v
    | _ -> Float.infinity
  in
  let is_slow rec_ = rec_.latency_s >= slow_floor in
  let protected_ rec_ =
    is_slow rec_ || rec_.exhausted
    || (match rec_.outcome with Solved _ -> false | _ -> true)
  in
  let find pred =
    List.find_opt
      (fun tr ->
        match Hashtbl.find_opt r.records tr with
        | Some rec_ -> pred rec_
        | None -> false)
      r.order
  in
  let victim =
    match find (fun rec_ -> not (protected_ rec_)) with
    | Some _ as v -> v
    | None -> (
      match find (fun rec_ -> not (is_slow rec_)) with
      | Some _ as v -> v
      | None -> ( match r.order with tr :: _ -> Some tr | [] -> None))
  in
  match victim with
  | Some tr ->
    Hashtbl.remove r.records tr;
    r.order <- List.filter (fun t -> t <> tr) r.order;
    r.count <- r.count - 1
  | None -> ()

let insert_locked trace record =
  let r = recorder in
  (if Hashtbl.mem r.records trace then begin
     (* Re-used trace id (client retried with the same request id):
        the newer record wins and the order entry moves to the back. *)
     Hashtbl.remove r.records trace;
     r.order <- List.filter (fun t -> t <> trace) r.order;
     r.count <- r.count - 1
   end);
  Hashtbl.replace r.records trace record;
  r.order <- r.order @ [ trace ];
  r.count <- r.count + 1;
  while r.count > r.capacity do
    evict_locked ()
  done

let finish ~trace ~req_id ~outcome ~exhausted ~queue_wait_s ~latency_s ~stages
    ~counters =
  if trace <> "" then begin
    Mutex.protect recorder.lock @@ fun () ->
    let events =
      match Hashtbl.find_opt recorder.pending trace with
      | Some evs ->
        Hashtbl.remove recorder.pending trace;
        List.rev !evs
      | None -> []  (* shed before any span fired, or no begin_request *)
    in
    recorder.seq <- recorder.seq + 1;
    let record =
      {
        seq = recorder.seq;
        trace;
        req_id;
        outcome;
        exhausted;
        queue_wait_s;
        latency_s;
        stages;
        counters;
        spans = (Span_tree.build events).roots;
        ts_unix = Clock.now_unix ();
      }
    in
    insert_locked trace record
  end

(* ----- queries ----------------------------------------------------------- *)

let find trace =
  Mutex.protect recorder.lock @@ fun () ->
  Hashtbl.find_opt recorder.records trace

let index () =
  Mutex.protect recorder.lock @@ fun () ->
  List.rev_map
    (fun tr -> Hashtbl.find recorder.records tr)
    recorder.order

let size () = Mutex.protect recorder.lock @@ fun () -> recorder.count

let clear () =
  Mutex.protect recorder.lock @@ fun () ->
  Hashtbl.reset recorder.pending;
  Hashtbl.reset recorder.records;
  recorder.order <- [];
  recorder.count <- 0

(* ----- JSON -------------------------------------------------------------- *)

module J = Fbb_util.Json

let num_i i = J.Num (float_of_int i)

let rec span_json ~t0 sp =
  J.Obj
    [
      ("name", J.Str sp.sp_name);
      ("dom", num_i sp.sp_dom);
      ("start_s", J.Num (sp.sp_start_s -. t0));
      ("dur_s", J.Num sp.sp_dur_s);
      ("spans", J.Arr (List.map (span_json ~t0) sp.sp_children));
    ]

let stage_json st =
  J.Obj
    ([
       ("stage", J.Str st.st_stage);
       ("status", J.Str st.st_status);
       ("work", num_i st.st_work);
     ]
    @ match st.st_leakage_nw with
      | None -> []
      | Some v -> [ ("leakage_nw", J.Num v) ])

let summary_json (rec_ : record) =
  J.Obj
    [
      ("seq", num_i rec_.seq);
      ("trace", J.Str rec_.trace);
      ("id", J.Str rec_.req_id);
      ("outcome", J.Str (outcome_label rec_.outcome));
      ("detail", J.Str (outcome_detail rec_.outcome));
      ("exhausted", J.Bool rec_.exhausted);
      ("queue_wait_ms", J.Num (rec_.queue_wait_s *. 1000.0));
      ("latency_ms", J.Num (rec_.latency_s *. 1000.0));
      ("stages", num_i (List.length rec_.stages));
      ("ts_unix", J.Num rec_.ts_unix);
    ]

let to_json (rec_ : record) =
  (* Span timestamps are monotonic; report them relative to the
     earliest root (roots are ordered by start) so a reader sees
     non-negative offsets into the request, not clock values. *)
  let t0 =
    match rec_.spans with sp :: _ -> sp.sp_start_s | [] -> 0.0
  in
  J.Obj
    [
      ("schema", J.Str "fbb-flight-record-1");
      ("seq", num_i rec_.seq);
      ("trace", J.Str rec_.trace);
      ("id", J.Str rec_.req_id);
      ("outcome", J.Str (outcome_label rec_.outcome));
      ("detail", J.Str (outcome_detail rec_.outcome));
      ("exhausted", J.Bool rec_.exhausted);
      ("queue_wait_ms", J.Num (rec_.queue_wait_s *. 1000.0));
      ("latency_ms", J.Num (rec_.latency_s *. 1000.0));
      ("ts_unix", J.Num rec_.ts_unix);
      ("stages", J.Arr (List.map stage_json rec_.stages));
      ( "counters",
        J.Obj (List.map (fun (n, d) -> (n, num_i d)) rec_.counters) );
      ("spans", J.Arr (List.map (span_json ~t0) rec_.spans));
    ]

let index_json () =
  let entries = index () in
  J.Obj
    [
      ("schema", J.Str "fbb-flight-1");
      ("ts_unix", J.Num (Clock.now_unix ()));
      ("count", num_i (List.length entries));
      ("requests", J.Arr (List.map summary_json entries));
    ]

let record_json trace = Option.map to_json (find trace)
