open Fbb_netlist

type path = { gates : Netlist.id array; delay : float }

let extractions_c = Fbb_obs.Counter.make "sta.path_extractions"
let paths_c = Fbb_obs.Counter.make "sta.paths_extracted"

(* Longest continuation of each node towards an endpoint: value and the
   successor gate achieving it (-1 when the best continuation stops here,
   i.e. the node feeds an endpoint or nothing). *)
let downstream t =
  let nl = Timing.netlist t in
  let n = Netlist.size nl in
  let order = Netlist.topo_order nl in
  let down = Array.make n 0.0 in
  let succ = Array.make n (-1) in
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    let best = ref 0.0 in
    let best_s = ref (-1) in
    Array.iter
      (fun fo ->
        match Netlist.kind nl fo with
        | Netlist.Output | Netlist.Input -> ()
        | Netlist.Gate c ->
          if not (Fbb_tech.Cell_library.is_sequential c.Fbb_tech.Cell_library.kind)
          then begin
            let v = Timing.gate_delay t fo +. down.(fo) in
            if v > !best then begin
              best := v;
              best_s := fo
            end
          end)
      (Netlist.fanouts nl i);
    down.(i) <- !best;
    succ.(i) <- !best_s
  done;
  (down, succ)

let backtrace t g =
  let nl = Timing.netlist t in
  let rec go i acc =
    match Netlist.kind nl i with
    | Netlist.Input | Netlist.Output -> acc
    | Netlist.Gate c ->
      let acc = i :: acc in
      if Fbb_tech.Cell_library.is_sequential c.Fbb_tech.Cell_library.kind then
        acc
      else begin
        let fanins = Netlist.fanins nl i in
        let best = ref fanins.(0) in
        Array.iter
          (fun f ->
            if Timing.arrival t f > Timing.arrival t !best then best := f)
          fanins;
        go !best acc
      end
  in
  go g []

let through_cell t =
  Fbb_obs.Span.with_ ~name:"sta.paths" @@ fun () ->
  Fbb_obs.Counter.incr extractions_c;
  let nl = Timing.netlist t in
  let down, succ = downstream t in
  let seen = Hashtbl.create 1024 in
  let acc = ref [] in
  Array.iter
    (fun g ->
      let prefix = backtrace t g in
      let rec forward i tail =
        if succ.(i) < 0 then List.rev tail else forward succ.(i) (succ.(i) :: tail)
      in
      let gates = Array.of_list (prefix @ forward g []) in
      let delay = Timing.arrival t g +. down.(g) in
      if not (Hashtbl.mem seen gates) then begin
        Hashtbl.add seen gates ();
        acc := { gates; delay } :: !acc
      end)
    (Netlist.gates nl);
  let paths = Array.of_list !acc in
  Array.sort (fun a b -> Float.compare b.delay a.delay) paths;
  Fbb_obs.Counter.add paths_c (Array.length paths);
  paths

let delay_of t gates =
  Array.fold_left (fun acc g -> acc +. Timing.gate_delay t g) 0.0 gates

let pp t fmt p =
  let nl = Timing.netlist t in
  Format.fprintf fmt "%.1fps:" p.delay;
  Array.iter (fun g -> Format.fprintf fmt " %s" (Netlist.name nl g)) p.gates
