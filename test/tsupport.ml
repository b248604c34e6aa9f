(* Shared helpers for the test suite. *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  if n = 0 then true
  else begin
    let rec go i =
      if i + n > h then false
      else if String.sub haystack i n = needle then true
      else go (i + 1)
    in
    go 0
  end

(* A small placed design shared by several suites: fast to build, has
   flip-flops, multiple rows, and a non-trivial critical path. *)
let small_placement =
  lazy
    (let nl =
       Fbb_netlist.Generators.prefix_adder ~bits:16 ~registered_inputs:true ()
     in
     Fbb_place.Placement.place ~target_rows:6 nl)

let small_problem ?(beta = 0.08) () =
  Fbb_core.Problem.build ~beta (Lazy.force small_placement)

(* The problem cut down to its least-demanding constraint: Pi then
   underestimates the bias timing needs, so every solver's first answer
   fails full-STA sign-off and refinement has paths to fold in. *)
let least_demanding_cut (p : Fbb_core.Problem.t) =
  let k = ref 0 in
  Array.iteri
    (fun i r -> if r < p.Fbb_core.Problem.required.(!k) then k := i)
    p.Fbb_core.Problem.required;
  Fbb_core.Problem.select p [| !k |]
