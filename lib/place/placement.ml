open Fbb_netlist
module CL = Fbb_tech.Cell_library

type t = {
  nl : Netlist.t;
  rows : Netlist.id array array; (* per row, x order *)
  row_of : int array; (* node id -> row, -1 for ports *)
  site_of : int array;
  capacity : int;
}

let site_width_um = 0.2
let row_height_um = 1.4

let netlist t = t.nl
let num_rows t = Array.length t.rows
let row_gates t r = t.rows.(r)
let row_of t i = t.row_of.(i)
let site_of t i = t.site_of.(i)
let row_capacity_sites t = t.capacity

let width nl g = (Netlist.cell nl g).CL.width_sites

let row_used_sites t r =
  Array.fold_left (fun acc g -> acc + width t.nl g) 0 t.rows.(r)

let row_utilization t r =
  float_of_int (row_used_sites t r) /. float_of_int t.capacity

let die_width_um t = float_of_int t.capacity *. site_width_um
let die_height_um t = float_of_int (num_rows t) *. row_height_um

(* Recursive min-cut bisection down to small leaves yields the linear cell
   order. Nets crossing a region boundary are projected into each
   sub-region (terminal propagation is omitted: row granularity does not
   need it).

   A driver contributes a net to a region only if it lies in the region
   or feeds one of its gates, so each recursion node visits its own gates
   and their fanins, sorted into the global driver order (inputs, then
   gates): O(region) per node instead of O(netlist). [index_of] maps a
   node to its position in the current region (-1 outside) and
   [visited] dedupes drivers; both are reset before recursing. *)
let ordering nl ~seed =
  let gates = Netlist.gates nl in
  let inputs = Netlist.inputs nl in
  let n = Netlist.size nl in
  let rank = Array.make n (-1) in
  Array.iteri (fun k d -> rank.(d) <- k) inputs;
  Array.iteri (fun k g -> rank.(g) <- Array.length inputs + k) gates;
  let index_of = Array.make n (-1) in
  let visited = Array.make n false in
  let order = ref [] in
  let rec recurse ids seed =
    if Array.length ids <= 12 then
      Array.iter (fun g -> order := g :: !order) ids
    else begin
      Array.iteri (fun k g -> index_of.(g) <- k) ids;
      let drivers = ref [] in
      let visit d =
        if rank.(d) >= 0 && not visited.(d) then begin
          visited.(d) <- true;
          drivers := d :: !drivers
        end
      in
      Array.iter
        (fun g ->
          visit g;
          Array.iter visit (Netlist.fanins nl g))
        ids;
      let drivers = Array.of_list !drivers in
      Array.sort (fun a b -> Int.compare rank.(a) rank.(b)) drivers;
      let nets = ref [] in
      Array.iter
        (fun d ->
          visited.(d) <- false;
          let members =
            Array.fold_right
              (fun g acc ->
                if index_of.(g) >= 0 then index_of.(g) :: acc else acc)
              (Netlist.fanouts nl d) []
          in
          let members =
            if index_of.(d) >= 0 then index_of.(d) :: members else members
          in
          match members with
          | [] | [ _ ] -> ()
          | ms -> nets := Array.of_list ms :: !nets)
        drivers;
      Array.iter (fun g -> index_of.(g) <- -1) ids;
      let h =
        {
          Partition.nv = Array.length ids;
          weights = Array.map (fun g -> width nl g) ids;
          nets = Array.of_list !nets;
        }
      in
      let side = Partition.bisect ~seed h in
      let left = ref [] and right = ref [] in
      Array.iteri
        (fun k g -> if side.(k) then right := g :: !right else left := g :: !left)
        ids;
      recurse (Array.of_list (List.rev !left)) ((seed * 2) + 1);
      recurse (Array.of_list (List.rev !right)) ((seed * 2) + 2)
    end
  in
  recurse gates seed;
  Array.of_list (List.rev !order)

let default_rows nl ~utilization =
  (* Squarest floorplan: rows * row_height ~ capacity * site_width. *)
  let total = float_of_int (Netlist.total_width_sites nl) /. utilization in
  let sites_per_row_height = row_height_um /. site_width_um in
  max 1 (int_of_float (Float.round (sqrt (total /. sites_per_row_height))))

let place ?(utilization = 0.7) ?target_rows ?(seed = 42) nl =
  if utilization <= 0.0 || utilization > 1.0 then
    invalid_arg "Placement.place: utilization out of (0, 1]";
  let rows_wanted =
    match target_rows with Some r -> r | None -> default_rows nl ~utilization
  in
  if rows_wanted < 1 then invalid_arg "Placement.place: need at least 1 row";
  let total_sites = Netlist.total_width_sites nl in
  let capacity =
    int_of_float
      (Float.ceil
         (float_of_int total_sites /. utilization /. float_of_int rows_wanted))
  in
  if capacity * rows_wanted < total_sites then
    invalid_arg "Placement.place: design does not fit";
  let order = ordering nl ~seed in
  let n = Netlist.size nl in
  let row_of = Array.make n (-1) in
  let site_of = Array.make n 0 in
  let rows = Array.make rows_wanted [] in
  let budget = float_of_int total_sites /. float_of_int rows_wanted in
  let row = ref 0 in
  let used = ref 0 in
  let cumulative = ref 0 in
  Array.iter
    (fun g ->
      let w = width nl g in
      (* Advance once this row's share of the cumulative width is met, so
         every row ends up near the same utilization. *)
      if
        !row < rows_wanted - 1
        && float_of_int !cumulative >= float_of_int (!row + 1) *. budget
      then begin
        incr row;
        used := 0
      end;
      row_of.(g) <- !row;
      site_of.(g) <- !used;
      used := !used + w;
      cumulative := !cumulative + w;
      rows.(!row) <- g :: rows.(!row))
    order;
  let rows = Array.map (fun l -> Array.of_list (List.rev l)) rows in
  (* Serpentine: odd rows run right-to-left; mirror their site offsets. *)
  Array.iteri
    (fun r gates ->
      if r land 1 = 1 then begin
        let u = Array.fold_left (fun acc g -> acc + width nl g) 0 gates in
        Array.iter
          (fun g -> site_of.(g) <- u - site_of.(g) - width nl g)
          gates;
        let rev = Array.copy gates in
        let m = Array.length gates in
        Array.iteri (fun k g -> rev.(m - 1 - k) <- g) gates;
        rows.(r) <- rev
      end)
    rows;
  { nl; rows; row_of; site_of; capacity }

let permute_rows t perm =
  let n = Array.length t.rows in
  if Array.length perm <> n then
    invalid_arg "Placement.permute_rows: wrong length";
  let seen = Array.make n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= n || seen.(p) then
        invalid_arg "Placement.permute_rows: not a permutation";
      seen.(p) <- true)
    perm;
  let rows = Array.init n (fun pos -> t.rows.(perm.(pos))) in
  let row_of = Array.copy t.row_of in
  Array.iteri
    (fun pos gates -> Array.iter (fun g -> row_of.(g) <- pos) gates)
    rows;
  { t with rows; row_of }

let half_perimeter_wirelength t =
  let nl = t.nl in
  let total = ref 0.0 in
  let consider driver =
    let fanouts = Netlist.fanouts nl driver in
    if Array.length fanouts > 0 then begin
      let xs g = (float_of_int t.site_of.(g) +. (float_of_int (width nl g) /. 2.0)) *. site_width_um in
      let ys g = float_of_int t.row_of.(g) *. row_height_um in
      let pts =
        Array.to_list fanouts @ [ driver ]
        |> List.filter (fun g -> t.row_of.(g) >= 0)
      in
      match pts with
      | [] | [ _ ] -> ()
      | p0 :: rest ->
        let x0 = xs p0 and y0 = ys p0 in
        let minx, maxx, miny, maxy =
          List.fold_left
            (fun (a, b, c, d) g ->
              ( Float.min a (xs g),
                Float.max b (xs g),
                Float.min c (ys g),
                Float.max d (ys g) ))
            (x0, x0, y0, y0) rest
        in
        total := !total +. (maxx -. minx) +. (maxy -. miny)
    end
  in
  Array.iter consider (Netlist.gates nl);
  Array.iter consider (Netlist.inputs nl);
  !total

let pp_summary fmt t =
  Format.fprintf fmt
    "%d rows x %d sites (%.1f x %.1f um), %d gates, avg util %.1f%%, HPWL %.0f um"
    (num_rows t) t.capacity (die_width_um t) (die_height_um t)
    (Netlist.gate_count t.nl)
    (100.0
    *. (float_of_int (Netlist.total_width_sites t.nl)
       /. float_of_int (t.capacity * num_rows t)))
    (half_perimeter_wirelength t)
