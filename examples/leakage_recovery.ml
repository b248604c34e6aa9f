(* The other direction of the same knob: a design that *meets* timing
   with margin can trade that margin for standby leakage by reverse
   biasing its slack-rich rows (the fine-grained body-biasing use case of
   the paper's reference [7]).

     dune exec examples/leakage_recovery.exe

   The example also exports the design as structural Verilog so the flow
   can be connected to external tooling. *)

let () =
  let netlist = Fbb_netlist.Generators.alu ~bits:8 ~stages:2 () in
  let placement = Fbb_place.Placement.place ~target_rows:12 netlist in
  Format.printf "placement: %a@." Fbb_place.Placement.pp_summary placement;

  (* Export for external tools: both exchange formats round-trip. *)
  if not (Sys.file_exists "example_out") then Sys.mkdir "example_out" 0o755;
  Fbb_netlist.Verilog_io.save ~module_name:"alu8x2" netlist
    ~path:"example_out/alu8x2.v";
  Fbb_netlist.Bench_io.save netlist ~path:"example_out/alu8x2.bench";
  print_endline "wrote example_out/alu8x2.v and .bench";

  let tab =
    Fbb_util.Texttab.create
      ~headers:
        [ "margin %"; "budget ps"; "leak uW"; "recovered %"; "rbb levels" ]
  in
  List.iter
    (fun margin ->
      let p = Fbb_core.Recovery.build ~margin placement in
      let r = Fbb_core.Recovery.optimize ~max_clusters:2 p in
      Fbb_util.Texttab.add_row tab
        [
          Printf.sprintf "%.0f" (margin *. 100.0);
          Printf.sprintf "%.0f" p.Fbb_core.Problem.dcrit;
          Printf.sprintf "%.3f"
            (r.Fbb_core.Recovery.recovered_leakage_nw /. 1000.0);
          Printf.sprintf "%.1f" r.Fbb_core.Recovery.savings_pct;
          String.concat "/"
            (List.map
               (fun l -> Printf.sprintf "%.2fV" p.Fbb_core.Problem.design.levels.(l))
               (Fbb_core.Solution.clusters_used r.Fbb_core.Recovery.levels));
        ])
    [ 0.0; 0.03; 0.06; 0.10; 0.15 ];
  Fbb_util.Texttab.print tab;
  print_endline
    "\nreading: slack is a resource - the deeper the margin, the closer\n\
     the design gets to the BTBT-limited leakage floor, one reverse rail\n\
     pair doing all the work."
