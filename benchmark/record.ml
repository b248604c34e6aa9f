(* One workload run's result: what it printed, what it wrote to
   bench_out/, and the one-line JSON verdict the last stdout line
   carries. *)

module J = Fbb_util.Json

type value = { value : float; n : int  (** samples behind the value *) }

type t = {
  workload : string;
  seed : int;
  seconds : int;
  traced : bool;
  attempted : int;
  failed : int;
  errors : string list;  (** correctness and guard failures *)
  end_to_end : (string * value) list;  (** from the untraced pass *)
  per_layer : (string * value) list;  (** from the traced pass, if any *)
  detail : (string * J.t) list;  (** per-step and per-unit breakdowns *)
  spans : J.t;  (** the traced pass's spans, [Null] when untraced *)
}

let correct t = t.errors = []

let unit_of name =
  match
    List.find_opt
      (fun (m : Spec.metric) -> m.name = name)
      (Spec.end_to_end @ Spec.per_layer)
  with
  | Some m -> m.unit_
  | None -> invalid_arg ("Record.unit_of: undeclared metric " ^ name)

let print t =
  let row (name, v) =
    Printf.printf "%-13s %-32s %-22s %-6s %d\n" t.workload name
      (Printf.sprintf "%.6g" v.value) (unit_of name) v.n
  in
  List.iter row t.end_to_end;
  List.iter row t.per_layer;
  List.iter (fun e -> Printf.printf "%-13s FAILED %s\n" t.workload e) t.errors

let metrics_json ms =
  J.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           J.Obj [ ("value", J.Num v.value); ("unit", J.Str (unit_of name)) ]
         ))
       ms)

(* The last stdout line: the end-to-end metrics of an untraced run, the
   per-layer metrics of a traced one. *)
let verdict_line t =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (correct t));
         ("attempted", J.Num (float_of_int t.attempted));
         ("failed", J.Num (float_of_int t.failed));
         ( "metrics",
           metrics_json (if t.traced then t.per_layer else t.end_to_end) );
       ])

let to_json t =
  let vals ms =
    J.Obj
      (List.map
         (fun (name, v) ->
           ( name,
             J.Obj
               [
                 ("value", J.Num v.value);
                 ("unit", J.Str (unit_of name));
                 ("n", J.Num (float_of_int v.n));
               ] ))
         ms)
  in
  J.Obj
    [
      ("name", J.Str t.workload);
      ("seed", J.Num (float_of_int t.seed));
      ("seconds", J.Num (float_of_int t.seconds));
      ("traced", J.Bool t.traced);
      ("correct", J.Bool (correct t));
      ("attempted", J.Num (float_of_int t.attempted));
      ("failed", J.Num (float_of_int t.failed));
      ("errors", J.Arr (List.map (fun e -> J.Str e) t.errors));
      ("end_to_end", vals t.end_to_end);
      ("per_layer", vals t.per_layer);
      ("detail", J.Obj t.detail);
    ]

let schema = "fbb-benchmark-1"

let file_json records =
  J.Obj [ ("schema", J.Str schema); ("workloads", J.Arr records) ]
