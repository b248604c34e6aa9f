(* Tests for Fbb_sta: arrival/required/slack propagation, critical path,
   per-cell longest-path extraction. *)

module N = Fbb_netlist.Netlist
module B = N.Builder
module CL = Fbb_tech.Cell_library
module T = Fbb_sta.Timing
module P = Fbb_sta.Paths

let lib = CL.default

(* chain: a -> inv1 -> inv2 -> out; plus a short branch a -> inv3 -> out2 *)
let chain () =
  let b = B.create lib in
  let a = B.input b "a" in
  let i1 = B.gate b ~name:"i1" CL.Inv [ a ] in
  let i2 = B.gate b ~name:"i2" CL.Inv [ i1 ] in
  let i3 = B.gate b ~name:"i3" CL.Inv [ a ] in
  ignore (B.output b "o1" i2);
  ignore (B.output b "o2" i3);
  B.freeze b

let inv_delay nl g t = T.gate_delay t (N.find nl g)

let test_arrival_chain () =
  let nl = chain () in
  let t = T.analyze nl in
  let d1 = inv_delay nl "i1" t and d2 = inv_delay nl "i2" t in
  Alcotest.(check (float 1e-9)) "arrival i2" (d1 +. d2)
    (T.arrival t (N.find nl "i2"));
  Alcotest.(check (float 1e-9)) "dcrit = longest" (d1 +. d2) (T.dcrit t);
  Alcotest.(check (float 1e-9)) "output arrival = driver" (d1 +. d2)
    (T.arrival t (N.find nl "o1"))

let test_slack () =
  let nl = chain () in
  let t = T.analyze nl in
  Alcotest.(check (float 1e-9)) "critical slack 0" 0.0
    (T.slack t (N.find nl "i2"));
  Alcotest.(check bool) "branch has slack" true
    (T.slack t (N.find nl "i3") > 1.0)

let test_derate_scales () =
  let nl = chain () in
  let t0 = T.analyze nl in
  let t1 = T.analyze ~derate:(fun _ -> 1.1) nl in
  Alcotest.(check (float 1e-6)) "10% slower" (T.dcrit t0 *. 1.1) (T.dcrit t1)

let test_bias_speeds_up () =
  let nl = chain () in
  let t0 = T.analyze nl in
  let t1 = T.analyze ~bias:(fun _ -> 0.5) nl in
  let expect =
    T.dcrit t0 *. Fbb_tech.Device.delay_factor Fbb_tech.Device.default ~vbs:0.5
  in
  Alcotest.(check (float 1e-6)) "21% faster" expect (T.dcrit t1)

let test_critical_path_of_chain () =
  let nl = chain () in
  let t = T.analyze nl in
  let names = List.map (N.name nl) (T.critical_path t) in
  Alcotest.(check (list string)) "path" [ "i1"; "i2" ] names

let test_dff_launch_capture () =
  (* in -> inv -> dff -> inv -> out: two timing paths split by the dff *)
  let b = B.create lib in
  let a = B.input b "a" in
  let i1 = B.gate b ~name:"i1" CL.Inv [ a ] in
  let q = B.gate b ~name:"q" CL.Dff [ i1 ] in
  let i2 = B.gate b ~name:"i2" CL.Inv [ q ] in
  ignore (B.output b "o" i2);
  let nl = B.freeze b in
  let t = T.analyze nl in
  let dq = T.gate_delay t (N.find nl "q") in
  let d2 = T.gate_delay t (N.find nl "i2") in
  Alcotest.(check (float 1e-9)) "q launches at clk-to-q" dq
    (T.arrival t (N.find nl "q"));
  Alcotest.(check bool) "endpoint flags" true (T.is_endpoint t (N.find nl "q"));
  (* dcrit is the max of (launch + i2) and (i1 capture) *)
  let d1 = T.gate_delay t (N.find nl "i1") in
  Alcotest.(check (float 1e-9)) "dcrit" (Float.max (dq +. d2) d1) (T.dcrit t)

let test_paths_cover_all_gates () =
  let nl = Fbb_netlist.Generators.alu ~bits:4 () in
  let t = T.analyze nl in
  let paths = P.through_cell t in
  let on_path = Hashtbl.create 64 in
  Array.iter
    (fun p -> Array.iter (fun g -> Hashtbl.replace on_path g ()) p.P.gates)
    paths;
  Array.iter
    (fun g ->
      Alcotest.(check bool)
        (Printf.sprintf "gate %s covered" (N.name nl g))
        true (Hashtbl.mem on_path g))
    (N.gates nl)

let test_paths_delay_consistent () =
  let nl = Fbb_netlist.Generators.alu ~bits:4 () in
  let t = T.analyze nl in
  Array.iter
    (fun p ->
      Alcotest.(check (float 1e-6)) "delay = sum of gate delays"
        (P.delay_of t p.P.gates) p.P.delay;
      Alcotest.(check bool) "within dcrit" true
        (p.P.delay <= T.dcrit t +. 1e-6))
    (P.through_cell t)

let test_paths_unique () =
  let nl = Fbb_netlist.Generators.alu ~bits:4 () in
  let t = T.analyze nl in
  let paths = P.through_cell t in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "no duplicates" false (Hashtbl.mem seen p.P.gates);
      Hashtbl.add seen p.P.gates ())
    paths

let test_paths_sorted () =
  let nl = Fbb_netlist.Generators.alu ~bits:4 () in
  let t = T.analyze nl in
  let paths = P.through_cell t in
  for i = 1 to Array.length paths - 1 do
    Alcotest.(check bool) "descending" true
      (paths.(i - 1).P.delay >= paths.(i).P.delay -. 1e-9)
  done

(* The violating-path screen lives in [Problem.build]: Pi is the subset
   of the per-cell longest paths whose degraded delay exceeds dcrit. *)
let violating ~beta =
  let nl = Fbb_netlist.Generators.alu ~bits:4 () in
  let pl = Fbb_place.Placement.place ~target_rows:4 nl in
  (Fbb_core.Problem.build ~beta pl).Fbb_core.Problem.paths

let test_violating_monotone_in_beta () =
  let v5 = Array.length (violating ~beta:0.05) in
  let v10 = Array.length (violating ~beta:0.10) in
  let v0 = Array.length (violating ~beta:0.0) in
  Alcotest.(check int) "no violations at beta=0" 0 v0;
  Alcotest.(check bool) "monotone" true (v10 >= v5)

let test_violating_definition () =
  let nl = Fbb_netlist.Generators.alu ~bits:4 () in
  let t = T.analyze nl in
  let beta = 0.07 in
  let v = violating ~beta in
  Alcotest.(check bool) "non-empty" true (Array.length v > 0);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "degraded exceeds dcrit" true
        (p.P.delay *. (1.0 +. beta) > T.dcrit t))
    v

let test_paths_structurally_connected () =
  let nl = Fbb_netlist.Generators.alu ~bits:4 () in
  let t = T.analyze nl in
  Array.iter
    (fun p ->
      let gs = p.P.gates in
      for i = 1 to Array.length gs - 1 do
        let fanins = N.fanins nl gs.(i) in
        Alcotest.(check bool) "consecutive gates connected" true
          (Array.exists (( = ) gs.(i - 1)) fanins)
      done)
    (P.through_cell t)

let test_paths_pp () =
  let nl = chain () in
  let t = T.analyze nl in
  let paths = P.through_cell t in
  let s = Format.asprintf "%a" (P.pp t) paths.(0) in
  Alcotest.(check bool) "mentions a gate name" true
    (Tsupport.contains s "i1" || Tsupport.contains s "i3")

let suite =
  [
    ("arrival over a chain", `Quick, test_arrival_chain);
    ("slack", `Quick, test_slack);
    ("derate scales dcrit", `Quick, test_derate_scales);
    ("bias speeds up", `Quick, test_bias_speeds_up);
    ("critical path of chain", `Quick, test_critical_path_of_chain);
    ("dff launch and capture", `Quick, test_dff_launch_capture);
    ("paths cover all gates", `Quick, test_paths_cover_all_gates);
    ("path delays consistent", `Quick, test_paths_delay_consistent);
    ("paths unique", `Quick, test_paths_unique);
    ("paths sorted", `Quick, test_paths_sorted);
    ("violating monotone in beta", `Quick, test_violating_monotone_in_beta);
    ("violating definition", `Quick, test_violating_definition);
    ("paths structurally connected", `Quick, test_paths_structurally_connected);
    ("paths pretty printer", `Quick, test_paths_pp);
  ]
