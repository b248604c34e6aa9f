type reason = Deadline | Work

type t = {
  started : float;
  deadline : float option;  (* absolute Unix time *)
  work : int option;
  used : int Atomic.t;
  tripped : reason option Atomic.t;
  infinite : bool;  (* the shared [unlimited] token: ticks are no-ops *)
}

let now () = Unix.gettimeofday ()

let make ~deadline_s ~work ~infinite =
  let started = now () in
  {
    started;
    deadline = Option.map (fun d -> started +. Float.max 0.0 d) deadline_s;
    work = Option.map (max 0) work;
    used = Atomic.make 0;
    tripped = Atomic.make None;
    infinite;
  }

let unlimited = make ~deadline_s:None ~work:None ~infinite:true

let create ?deadline_s ?work () = make ~deadline_s ~work ~infinite:false

let is_unlimited t = t.infinite

let trip t r =
  (* First trip wins; later ticks keep reporting the original reason. *)
  ignore (Atomic.compare_and_set t.tripped None (Some r))

(* The deadline is only consulted when one was set, so work-only
   budgets (the deterministic kind tests rely on) never read the
   clock. *)
let check_deadline t =
  match t.deadline with
  | Some d when now () > d -> trip t Deadline
  | Some _ | None -> ()

(* Charge [cost] only if it fits under the work limit. A charge that
   does not fit trips the budget and charges nothing, so [used] never
   passes the limit, whatever the interleaving of domains. *)
let charge t cost =
  match t.work with
  | None -> if cost <> 0 then ignore (Atomic.fetch_and_add t.used cost)
  | Some limit ->
    let rec go () =
      let before = Atomic.get t.used in
      if before + cost > limit then trip t Work
      else if not (Atomic.compare_and_set t.used before (before + cost)) then
        go ()
    in
    go ()

let tick ?(cost = 1) t =
  if t.infinite then true
  else if Atomic.get t.tripped <> None then false
  else begin
    charge t cost;
    if Atomic.get t.tripped = None then check_deadline t;
    Atomic.get t.tripped = None
  end

let ok t = tick ~cost:0 t

let exhausted t = not (ok t)

let reason t =
  if t.infinite then None
  else begin
    check_deadline t;
    Atomic.get t.tripped
  end

let work_used t = Atomic.get t.used

let remaining_work t = Option.map (fun limit -> limit - Atomic.get t.used) t.work

let elapsed_s t = now () -. t.started

let remaining_s t = Option.map (fun d -> Float.max 0.0 (d -. now ())) t.deadline

let sub ?(work_frac = 1.0) ?(deadline_frac = 1.0) ?max_work t =
  if t.infinite && max_work = None then unlimited
  else begin
    let work =
      Option.map
        (fun rem ->
          if rem = 0 then 0
          else max 1 (int_of_float (ceil (float_of_int rem *. work_frac))))
        (remaining_work t)
    in
    let work =
      match (work, max_work) with
      | Some w, Some cap -> Some (min w cap)
      | w, None | None, w -> w
    in
    let deadline_s =
      Option.map (fun rem -> rem *. Float.min 1.0 deadline_frac) (remaining_s t)
    in
    let child = make ~deadline_s ~work ~infinite:false in
    Option.iter (trip child) (reason t);
    child
  end

let consume t n = if (not t.infinite) && n > 0 then charge t n
