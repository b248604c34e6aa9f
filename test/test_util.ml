(* Tests for Fbb_util: RNG, statistics, tables, CSV. *)

module Rng = Fbb_util.Rng
module Stats = Fbb_util.Stats

let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" false (xs = ys)

let test_rng_copy () =
  let a = Rng.create ~seed:7 in
  ignore (Rng.int a 10);
  let b = Rng.copy a in
  Alcotest.(check int) "copy continues identically" (Rng.int a 100)
    (Rng.int b 100)

let test_rng_split () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "split decorrelates" false (xs = ys)

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:3 in
  let xs = Array.init 20_000 (fun _ -> Rng.gaussian rng ~mu:5.0 ~sigma:2.0) in
  Alcotest.(check bool) "mean near 5" true (Float.abs (Stats.mean xs -. 5.0) < 0.1);
  Alcotest.(check bool) "stdev near 2" true (Float.abs (Stats.stdev xs -. 2.0) < 0.1)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:9 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_stats_basic () =
  check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "sum" 10.0 (Stats.sum [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "mean empty" 0.0 (Stats.mean [||]);
  check_float "stdev singleton" 0.0 (Stats.stdev [| 5.0 |]);
  check_float "stdev" (sqrt 1.25) (Stats.stdev [| 1.0; 2.0; 3.0; 4.0 |])

let test_stats_min_max () =
  let lo, hi = Stats.min_max [| 3.0; -1.0; 7.0 |] in
  check_float "min" (-1.0) lo;
  check_float "max" 7.0 hi;
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Stats.min_max: empty") (fun () ->
      ignore (Stats.min_max [||]))

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  check_float "p0" 10.0 (Stats.percentile xs 0.0);
  check_float "p100" 50.0 (Stats.percentile xs 100.0);
  check_float "p50" 30.0 (Stats.percentile xs 50.0);
  check_float "p25" 20.0 (Stats.percentile xs 25.0)

let test_ratio_pct () =
  check_float "half saved" 50.0 (Stats.ratio_pct 10.0 5.0);
  check_float "negative saving" (-50.0) (Stats.ratio_pct 10.0 15.0);
  (* Meaningless baselines yield nan, never inf, and the table layer
     renders them as "-". *)
  Alcotest.(check bool) "zero base is nan" true
    (Float.is_nan (Stats.ratio_pct 0.0 5.0));
  Alcotest.(check bool) "nan base is nan" true
    (Float.is_nan (Stats.ratio_pct Float.nan 5.0));
  Alcotest.(check bool) "inf value is nan" true
    (Float.is_nan (Stats.ratio_pct 10.0 Float.infinity));
  Alcotest.(check bool) "opt none on zero base" true
    (Stats.ratio_pct_opt 0.0 5.0 = None);
  Alcotest.(check (option (float 1e-9))) "opt some on sane input"
    (Some 50.0)
    (Stats.ratio_pct_opt 10.0 5.0);
  Alcotest.(check string) "cell_pct renders nan as -" "-"
    (Fbb_util.Texttab.cell_pct (Stats.ratio_pct 0.0 5.0));
  Alcotest.(check string) "cell_f renders inf as -" "-"
    (Fbb_util.Texttab.cell_f Float.infinity)

let test_texttab_render () =
  let t = Fbb_util.Texttab.create ~headers:[ "name"; "v" ] in
  Fbb_util.Texttab.add_row t [ "a"; "1" ];
  Fbb_util.Texttab.add_row t [ "bb" ];
  let s = Fbb_util.Texttab.render t in
  Alcotest.(check bool) "has header" true
    (Tsupport.contains s "name");
  Alcotest.(check bool) "pads short rows" true (Tsupport.contains s "bb");
  let lines = String.split_on_char '\n' s in
  let widths =
    List.filter (fun l -> String.length l > 0) lines |> List.map String.length
  in
  Alcotest.(check bool) "all lines same width" true
    (match widths with [] -> false | w :: rest -> List.for_all (( = ) w) rest)

let test_texttab_too_many_cells () =
  let t = Fbb_util.Texttab.create ~headers:[ "a" ] in
  Alcotest.check_raises "too many"
    (Invalid_argument "Texttab.add_row: too many cells") (fun () ->
      Fbb_util.Texttab.add_row t [ "1"; "2" ])

let test_csv_quoting () =
  let c = Fbb_util.Csv.create ~headers:[ "x"; "y" ] in
  Fbb_util.Csv.add_row c [ "a,b"; "say \"hi\"" ];
  let s = Fbb_util.Csv.render c in
  Alcotest.(check string) "quoted" "x,y\n\"a,b\",\"say \"\"hi\"\"\"\n" s

let test_csv_save () =
  let c = Fbb_util.Csv.create ~headers:[ "a" ] in
  Fbb_util.Csv.add_row c [ "1" ];
  let path = Filename.temp_file "fbb" ".csv" in
  Fbb_util.Csv.save c ~path;
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header line" "a" first

let test_texttab_align () =
  let t = Fbb_util.Texttab.create ~headers:[ "x"; "y" ] in
  Fbb_util.Texttab.set_align t 1 Fbb_util.Texttab.Left;
  Fbb_util.Texttab.add_row t [ "1"; "q" ];
  Fbb_util.Texttab.add_rule t;
  Fbb_util.Texttab.add_row t [ "2"; "r" ];
  let s = Fbb_util.Texttab.render t in
  Alcotest.(check bool) "rule rendered" true
    (List.length (String.split_on_char '\n' s) >= 7)

let test_cells () =
  Alcotest.(check string) "cell_f" "1.50" (Fbb_util.Texttab.cell_f 1.5);
  Alcotest.(check string) "cell_f digits" "1.5"
    (Fbb_util.Texttab.cell_f ~digits:1 1.5);
  Alcotest.(check string) "cell_i" "42" (Fbb_util.Texttab.cell_i 42);
  Alcotest.(check string) "cell_pct" "12.35"
    (Fbb_util.Texttab.cell_pct 12.345)

let test_csv_parse_tricky () =
  let c = Fbb_util.Csv.create ~headers:[ "x"; "y" ] in
  Fbb_util.Csv.add_row c [ "a,b"; "line1\nline2" ];
  Fbb_util.Csv.add_row c [ "say \"hi\""; "" ];
  Alcotest.(check (list (list string)))
    "parse inverts render"
    [ [ "x"; "y" ]; [ "a,b"; "line1\nline2" ]; [ "say \"hi\""; "" ] ]
    (Fbb_util.Csv.parse (Fbb_util.Csv.render c));
  Alcotest.(check (list (list string))) "crlf records"
    [ [ "a"; "b" ]; [ "c" ] ]
    (Fbb_util.Csv.parse "a,b\r\nc\r\n");
  Alcotest.(check (list (list string))) "no trailing newline"
    [ [ "a" ]; [ "b" ] ]
    (Fbb_util.Csv.parse "a\nb");
  Alcotest.check_raises "unterminated quote"
    (Fbb_util.Csv.Parse_error (1, "unterminated quoted field")) (fun () ->
      ignore (Fbb_util.Csv.parse "\"abc"));
  Alcotest.check_raises "stray data after quote"
    (Fbb_util.Csv.Parse_error (1, "data after closing quote")) (fun () ->
      ignore (Fbb_util.Csv.parse "\"a\"b,c"))

(* ----- Budget ----------------------------------------------------------- *)

module Budget = Fbb_util.Budget

let test_budget_unlimited () =
  Alcotest.(check bool) "is_unlimited" true
    (Budget.is_unlimited Budget.unlimited);
  for _ = 1 to 100 do
    Alcotest.(check bool) "tick ok" true (Budget.tick Budget.unlimited)
  done;
  Alcotest.(check bool) "never exhausted" false
    (Budget.exhausted Budget.unlimited);
  Alcotest.(check bool) "no reason" true (Budget.reason Budget.unlimited = None);
  (* The shared token never accumulates work: ticks are no-ops. *)
  Alcotest.(check int) "work untouched" 0 (Budget.work_used Budget.unlimited);
  Alcotest.(check bool) "sub of unlimited is unlimited" true
    (Budget.is_unlimited (Budget.sub Budget.unlimited));
  (* A fresh limitless token does accumulate (for reporting). *)
  let fresh = Budget.create () in
  Alcotest.(check bool) "fresh token is not the shared one" false
    (Budget.is_unlimited fresh);
  ignore (Budget.tick ~cost:7 fresh);
  Alcotest.(check int) "fresh token counts work" 7 (Budget.work_used fresh)

let test_budget_work_limit () =
  let b = Budget.create ~work:10 () in
  for i = 1 to 10 do
    Alcotest.(check bool) (Printf.sprintf "tick %d ok" i) true (Budget.tick b)
  done;
  Alcotest.(check int) "work_used" 10 (Budget.work_used b);
  Alcotest.(check (option int)) "remaining 0" (Some 0) (Budget.remaining_work b);
  Alcotest.(check bool) "at the limit is not over it" false (Budget.exhausted b);
  Alcotest.(check bool) "crossing tick fails" false (Budget.tick b);
  (* Sticky: every later tick and query reports the same exhaustion. *)
  Alcotest.(check bool) "sticky tick" false (Budget.tick b);
  Alcotest.(check bool) "sticky ok" false (Budget.ok b);
  Alcotest.(check bool) "exhausted" true (Budget.exhausted b);
  Alcotest.(check bool) "reason is work" true (Budget.reason b = Some Budget.Work)

let test_budget_zero_work () =
  let b = Budget.create ~work:0 () in
  Alcotest.(check bool) "zero-cost probe passes" true (Budget.ok b);
  Alcotest.(check bool) "first real tick trips" false (Budget.tick b);
  Alcotest.(check bool) "exhausted" true (Budget.exhausted b)

let test_budget_deadline () =
  let b = Budget.create ~deadline_s:0.0 () in
  while Budget.elapsed_s b < 0.002 do
    ()
  done;
  Alcotest.(check bool) "past-deadline tick fails" false (Budget.tick b);
  Alcotest.(check bool) "reason is deadline" true
    (Budget.reason b = Some Budget.Deadline);
  (* A work-only budget never trips on time. *)
  let w = Budget.create ~work:1_000_000 () in
  Alcotest.(check bool) "work-only budget ignores the clock" true
    (Budget.tick w)

let test_budget_sub_and_consume () =
  let parent = Budget.create ~work:100 () in
  ignore (Budget.tick ~cost:60 parent);
  let child = Budget.sub ~work_frac:0.5 parent in
  Alcotest.(check (option int)) "child carved from remaining" (Some 20)
    (Budget.remaining_work child);
  (* Child ticks are an allowance, not an account: the parent is only
     charged when the stage ends and consume() settles up. *)
  ignore (Budget.tick ~cost:20 child);
  Alcotest.(check int) "parent unchanged by child ticks" 60
    (Budget.work_used parent);
  Budget.consume parent (Budget.work_used child);
  Alcotest.(check int) "consume settles the child's work" 80
    (Budget.work_used parent);
  ignore (Budget.tick ~cost:1000 parent);
  Alcotest.(check bool) "parent over-consumed" true (Budget.exhausted parent);
  let dead = Budget.sub parent in
  Alcotest.(check bool) "exhausted parent yields exhausted child" false
    (Budget.tick dead)

(* ----- Atomic_io -------------------------------------------------------- *)

module Aio = Fbb_util.Atomic_io

exception Kill
exception Flaky

let read_file path = In_channel.with_open_text path In_channel.input_all

let with_hooks hook pred f =
  Aio.set_fault_hook hook;
  Aio.set_transient_pred pred;
  Fun.protect
    ~finally:(fun () ->
      Aio.set_fault_hook None;
      Aio.set_transient_pred (fun _ -> false))
    f

let test_atomic_write_kill_points () =
  (* Simulate a crash at each phase of the protocol: the destination
     must keep its previous content bit-for-bit and no temp file may
     survive. *)
  let dir = Filename.temp_file "fbb_aio" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "target.json" in
  Aio.write_atomic ~path "previous";
  List.iter
    (fun phase ->
      with_hooks
        (Some (fun p _dest -> if p = phase then raise Kill))
        (fun _ -> false)
        (fun () ->
          (match Aio.write_atomic ~path "next" with
          | () ->
            Alcotest.failf "write survived a %s kill" (Aio.phase_name phase)
          | exception Kill -> ());
          Alcotest.(check string)
            (Printf.sprintf "intact after %s kill" (Aio.phase_name phase))
            "previous" (read_file path);
          Alcotest.(check (list string))
            (Printf.sprintf "no temp litter after %s kill"
               (Aio.phase_name phase))
            [ "target.json" ]
            (Array.to_list (Sys.readdir dir))))
    [ Aio.Write; Aio.Fsync; Aio.Rename ];
  Aio.write_atomic ~path "next";
  Alcotest.(check string) "clean write goes through" "next" (read_file path);
  Sys.remove path;
  Sys.rmdir dir

let test_atomic_write_transient_retry () =
  let path = Filename.temp_file "fbb_aio" ".json" in
  let fired = ref 0 in
  with_hooks
    (Some
       (fun p _ ->
         if p = Aio.Write && !fired < 2 then begin
           incr fired;
           raise Flaky
         end))
    (function Flaky -> true | _ -> false)
    (fun () ->
      let before = Aio.retries () in
      Aio.write_atomic ~path "retried";
      Alcotest.(check string) "content lands after retries" "retried"
        (read_file path);
      Alcotest.(check int) "both retries recorded" (before + 2)
        (Aio.retries ()));
  (* A transient that never stops exhausts max_attempts, re-raises, and
     still leaves the previous content intact. *)
  with_hooks
    (Some (fun p _ -> if p = Aio.Write then raise Flaky))
    (function Flaky -> true | _ -> false)
    (fun () ->
      match Aio.write_atomic ~path "never" with
      | () -> Alcotest.fail "expected exhausted retries to raise"
      | exception Flaky ->
        Alcotest.(check string) "previous content intact" "retried"
          (read_file path));
  Sys.remove path

let qcheck_tests =
  let open QCheck in
  (* Fields drawn from a charset biased towards the CSV metacharacters the
     quoting layer has to get right. *)
  let csv_field =
    let gen =
      Gen.(
        string_size ~gen:(oneofl [ 'a'; 'z'; '0'; ','; '"'; '\n'; ' '; '\r' ])
          (int_range 0 8))
    in
    QCheck.make ~print:String.escaped gen
  in
  let csv_table =
    let gen =
      let open Gen in
      int_range 1 4 >>= fun width ->
      let row = list_size (return width) (QCheck.gen csv_field) in
      pair row (list_size (int_range 0 6) row)
    in
    let print (headers, rows) =
      String.concat " | "
        (List.map
           (fun r -> String.concat "," (List.map String.escaped r))
           (headers :: rows))
    in
    QCheck.make ~print gen
  in
  (* Budget operations: a tick, a consume, or a child carved with [sub]
     that ticks its own costs and is settled back with [consume]. *)
  let budget_ops =
    let open Gen in
    let op =
      frequency
        [
          (4, map (fun c -> `Tick c) (int_range 0 12));
          (2, map (fun n -> `Consume n) (int_range 0 30));
          ( 2,
            map2
              (fun f cs -> `Sub (f, cs))
              (float_range 0.0 1.0)
              (list_size (int_range 0 6) (int_range 0 12)) );
        ]
    in
    let print (work, ops) =
      Printf.sprintf "work %d: %s" work
        (String.concat "; "
           (List.map
              (function
                | `Tick c -> Printf.sprintf "tick %d" c
                | `Consume n -> Printf.sprintf "consume %d" n
                | `Sub (f, cs) ->
                  Printf.sprintf "sub %.2f [%s]" f
                    (String.concat "," (List.map string_of_int cs)))
              ops))
    in
    QCheck.make ~print (pair (int_range 0 60) (list_size (int_range 0 25) op))
  in
  [
    Test.make ~name:"budget work_used never exceeds work" ~count:500 budget_ops
      (fun (work, ops) ->
        let b = Budget.create ~work () in
        (* A tick either charges its whole cost or, refused, nothing. *)
        let tick b c =
          let before = Budget.work_used b in
          let ok = Budget.tick ~cost:c b in
          Budget.work_used b = (if ok then before + c else before)
        in
        List.for_all
          (fun op ->
            let exact =
              match op with
              | `Tick c -> tick b c
              | `Consume n ->
                Budget.consume b n;
                true
              | `Sub (f, cs) ->
                let child = Budget.sub ~work_frac:f b in
                let child_work =
                  Option.value ~default:0 (Budget.remaining_work child)
                in
                let ok = List.for_all (tick child) cs in
                let child_ok = Budget.work_used child <= child_work in
                Budget.consume b (Budget.work_used child);
                ok && child_ok
            in
            exact && Budget.work_used b <= work)
          ops);
    Test.make ~name:"csv render/parse round-trip" ~count:300 csv_table
      (fun (headers, rows) ->
        let c = Fbb_util.Csv.create ~headers in
        List.iter (Fbb_util.Csv.add_row c) rows;
        Fbb_util.Csv.parse (Fbb_util.Csv.render c) = headers :: rows);
    Test.make ~name:"rng int within bounds" ~count:500
      (pair small_int (int_range 1 10_000))
      (fun (seed, n) ->
        let rng = Rng.create ~seed in
        let v = Rng.int rng n in
        v >= 0 && v < n);
    Test.make ~name:"rng uniform in [0,1)" ~count:500 small_int (fun seed ->
        let rng = Rng.create ~seed in
        let v = Rng.uniform rng in
        v >= 0.0 && v < 1.0);
    Test.make ~name:"rng int_in inclusive" ~count:500
      (triple small_int (int_range (-100) 100) (int_range 0 200))
      (fun (seed, lo, span) ->
        let rng = Rng.create ~seed in
        let v = Rng.int_in rng lo (lo + span) in
        v >= lo && v <= lo + span);
    Test.make ~name:"percentile between min and max" ~count:300
      (pair (list_of_size Gen.(int_range 1 40) (float_range (-1e3) 1e3))
         (float_range 0.0 100.0))
      (fun (xs, p) ->
        let a = Array.of_list xs in
        let lo, hi = Stats.min_max a in
        let v = Stats.percentile a p in
        v >= lo -. 1e-9 && v <= hi +. 1e-9);
    Test.make ~name:"mean between min and max" ~count:300
      (list_of_size Gen.(int_range 1 40) (float_range (-1e3) 1e3))
      (fun xs ->
        let a = Array.of_list xs in
        let lo, hi = Stats.min_max a in
        let m = Stats.mean a in
        m >= lo -. 1e-9 && m <= hi +. 1e-9);
  ]

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng copy", `Quick, test_rng_copy);
    ("rng split", `Quick, test_rng_split);
    ("rng gaussian moments", `Quick, test_rng_gaussian_moments);
    ("rng shuffle is a permutation", `Quick, test_rng_shuffle_permutation);
    ("stats basic", `Quick, test_stats_basic);
    ("stats min_max", `Quick, test_stats_min_max);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats ratio_pct", `Quick, test_ratio_pct);
    ("texttab render", `Quick, test_texttab_render);
    ("texttab too many cells", `Quick, test_texttab_too_many_cells);
    ("csv quoting", `Quick, test_csv_quoting);
    ("csv parse tricky fields", `Quick, test_csv_parse_tricky);
    ("csv save", `Quick, test_csv_save);
    ("texttab align and rules", `Quick, test_texttab_align);
    ("texttab cells", `Quick, test_cells);
    ("budget unlimited", `Quick, test_budget_unlimited);
    ("budget work limit", `Quick, test_budget_work_limit);
    ("budget zero work", `Quick, test_budget_zero_work);
    ("budget deadline", `Quick, test_budget_deadline);
    ("budget sub and consume", `Quick, test_budget_sub_and_consume);
    ("atomic write kill points", `Quick, test_atomic_write_kill_points);
    ("atomic write transient retry", `Quick, test_atomic_write_transient_retry);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests
