(* The serving workloads' bench-side spans — set-ups, load steps, and
   one span per request from its due time to its answer — kept in
   memory and written out with their self time when the run ends. A
   request span has explicit end points and the requests of one step
   overlap, which {!Fbb_obs.Span} cannot express; the batch workloads
   use {!Fbb_obs.Span} and the aggregate sink instead. Off unless a
   traced pass turns it on, so untraced passes measure exactly what
   users run. Single-threaded: only the benchmark's main thread records
   spans. *)

type span = {
  id : int;
  parent : int;  (** 0 at top level *)
  name : string;
  start_s : float;
  stop_s : float;
}

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let fresh () =
  incr next_id;
  !next_id

let add ~name ~start_s ~stop_s =
  if !enabled then
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    spans := { id = fresh (); parent; name; start_s; stop_s } :: !spans

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = fresh () in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    let start_s = Fbb_obs.Clock.now_s () in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        spans :=
          { id; parent; name; start_s; stop_s = Fbb_obs.Clock.now_s () }
          :: !spans)
      f
  end

(* A span's duration minus the part of it its children cover. Children
   may overlap (the requests of one load step are in flight together),
   so the covered part is the union of their intervals. *)
let self_s children s =
  let kids =
    List.sort
      (fun a b -> Float.compare a.start_s b.start_s)
      (Hashtbl.find_all children s.id)
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) k ->
        let a = Float.max k.start_s reach and b = Float.min k.stop_s s.stop_s in
        (acc +. Float.max 0.0 (b -. a), Float.max reach b))
      (0.0, s.start_s) kids
  in
  s.stop_s -. s.start_s -. covered

let to_json () =
  let module J = Fbb_util.Json in
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) !spans;
  J.Arr
    (List.rev_map
       (fun s ->
         J.Obj
           [
             ("id", J.Num (float_of_int s.id));
             ("parent", J.Num (float_of_int s.parent));
             ("name", J.Str s.name);
             ("start_s", J.Num s.start_s);
             ("dur_s", J.Num (s.stop_s -. s.start_s));
             ("self_s", J.Num (self_s children s));
           ])
       !spans)
