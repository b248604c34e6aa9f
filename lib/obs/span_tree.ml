(* One per-domain stack replay over span events; see the interface for
   the orphan / never-closed conventions. *)

type status = Closed | Orphan_end | Never_closed

type node = {
  sp_name : string;
  sp_dom : int;
  sp_start_s : float;
  sp_dur_s : float;
  sp_status : status;
  sp_children : node list;
}

type t = { roots : node list; orphan_ends : int; never_closed : int }

(* An open span on some domain's stack; children accumulate newest
   first. *)
type frame = { name : string; start : float; mutable children : node list }

let build events =
  let stacks : (int, frame list ref) Hashtbl.t = Hashtbl.create 4 in
  let roots = ref [] and orphan_ends = ref 0 and never_closed = ref 0 in
  let stack_of dom =
    match Hashtbl.find_opt stacks dom with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks dom s;
      s
  in
  let attach stack node =
    match !stack with
    | f :: _ -> f.children <- node :: f.children
    | [] -> roots := node :: !roots
  in
  let close dom f status dur =
    {
      sp_name = f.name;
      sp_dom = dom;
      sp_start_s = f.start;
      sp_dur_s = dur;
      sp_status = status;
      sp_children = List.rev f.children;
    }
  in
  List.iter
    (function
      | Event.Span_begin { name; ts; dom; _ } ->
        let st = stack_of dom in
        st := { name; start = ts; children = [] } :: !st
      | Event.Span_end { name; ts; dur_s; dom; _ } -> (
        let st = stack_of dom in
        match !st with
        | f :: tl when f.name = name ->
          st := tl;
          attach st (close dom f Closed dur_s)
        | _ ->
          incr orphan_ends;
          attach st
            {
              sp_name = name;
              sp_dom = dom;
              sp_start_s = ts -. dur_s;
              sp_dur_s = dur_s;
              sp_status = Orphan_end;
              sp_children = [];
            })
      | Event.Counter_add _ | Event.Gauge_set _ | Event.Hist_record _
      | Event.Gc_sample _ -> ())
    events;
  (* Close what is still open, innermost first, so each never-closed
     span lands under the next outer one. *)
  let rec drain dom st =
    match !st with
    | [] -> ()
    | f :: tl ->
      st := tl;
      incr never_closed;
      attach st (close dom f Never_closed 0.0);
      drain dom st
  in
  Hashtbl.iter drain stacks;
  {
    roots =
      List.stable_sort
        (fun a b -> Float.compare a.sp_start_s b.sp_start_s)
        (List.rev !roots);
    orphan_ends = !orphan_ends;
    never_closed = !never_closed;
  }

let self_s n =
  let children =
    List.fold_left
      (fun acc c -> if c.sp_status = Closed then acc +. c.sp_dur_s else acc)
      0.0 n.sp_children
  in
  Float.max 0.0 (n.sp_dur_s -. children)
