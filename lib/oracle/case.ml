module Problem = Fbb_core.Problem

type t = {
  seed : int;
  gates : int;
  rows : int;
  beta : float;
  max_clusters : int;
  level_stride : int;
  max_paths : int option;
}

let make ?(beta = 0.06) ?(max_clusters = 2) ?(level_stride = 1) ?max_paths
    ~seed ~gates ~rows () =
  if gates < 8 then invalid_arg "Case.make: gates < 8";
  if rows < 2 then invalid_arg "Case.make: rows < 2";
  if level_stride < 1 then invalid_arg "Case.make: stride < 1";
  if beta <= 0.0 || beta > 1.0 then invalid_arg "Case.make: beta not in (0,1]";
  if max_clusters < 1 then invalid_arg "Case.make: C < 1";
  (match max_paths with
  | Some n when n < 1 -> invalid_arg "Case.make: max_paths < 1"
  | Some _ | None -> ());
  { seed; gates; rows; beta; max_clusters; level_stride; max_paths }

(* Keep the [n] constraints with the largest required reduction. Any
   solver disagreement on the reduced problem is still a genuine
   disagreement — the solvers only ever see the problem they are
   handed. *)
let truncate_paths p n =
  let m = Problem.num_paths p in
  if n >= m then p
  else begin
    let order = Array.init m (fun k -> k) in
    Array.sort
      (fun a b ->
        match compare p.Problem.required.(b) p.Problem.required.(a) with
        | 0 -> compare a b
        | c -> c)
      order;
    let kept = Array.sub order 0 n in
    Array.sort compare kept;
    Problem.select p kept
  end

let build c =
  let nl = Fbb_netlist.Generators.random_module ~seed:c.seed ~gates:c.gates () in
  let pl = Fbb_place.Placement.place ~target_rows:c.rows nl in
  let levels =
    if c.level_stride = 1 then None
    else begin
      let full = Fbb_tech.Bias.levels () in
      let kept = ref [] in
      Array.iteri
        (fun j v -> if j mod c.level_stride = 0 then kept := v :: !kept)
        full;
      Some (Array.of_list (List.rev !kept))
    end
  in
  let p = Problem.build ?levels ~beta:c.beta pl in
  match c.max_paths with None -> p | Some n -> truncate_paths p n

let name c =
  Printf.sprintf "s%d-g%d-r%d-b%.2f-c%d-st%d-p%s" c.seed c.gates c.rows
    (c.beta *. 100.0) c.max_clusters c.level_stride
    (match c.max_paths with None -> "all" | Some n -> string_of_int n)

let to_string c =
  String.concat "\n"
    ([
       "fbbcase 1";
       Printf.sprintf "seed %d" c.seed;
       Printf.sprintf "gates %d" c.gates;
       Printf.sprintf "rows %d" c.rows;
       Printf.sprintf "beta %.17g" c.beta;
       Printf.sprintf "clusters %d" c.max_clusters;
       Printf.sprintf "stride %d" c.level_stride;
     ]
    @ (match c.max_paths with
      | None -> []
      | Some n -> [ Printf.sprintf "max_paths %d" n ])
    @ [ "" ])

let of_string s =
  let ( let* ) r f = Result.bind r f in
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | "fbbcase 1" :: fields ->
    let* kv =
      List.fold_left
        (fun acc line ->
          let* acc = acc in
          match String.index_opt line ' ' with
          | None -> Error (Printf.sprintf "malformed line %S" line)
          | Some i ->
            let key = String.sub line 0 i in
            let value =
              String.trim (String.sub line (i + 1) (String.length line - i - 1))
            in
            Ok ((key, value) :: acc))
        (Ok []) fields
    in
    let int_field key default =
      match List.assoc_opt key kv with
      | None -> Ok default
      | Some v -> (
        match int_of_string_opt v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "field %s: not an int: %S" key v))
    in
    let* seed = int_field "seed" 1 in
    let* gates = int_field "gates" 100 in
    let* rows = int_field "rows" 4 in
    let* clusters = int_field "clusters" 2 in
    let* stride = int_field "stride" 1 in
    let* beta =
      match List.assoc_opt "beta" kv with
      | None -> Ok 0.06
      | Some v -> (
        match float_of_string_opt v with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "field beta: not a float: %S" v))
    in
    let* max_paths =
      match List.assoc_opt "max_paths" kv with
      | None -> Ok None
      | Some v -> (
        match int_of_string_opt v with
        | Some n -> Ok (Some n)
        | None -> Error (Printf.sprintf "field max_paths: not an int: %S" v))
    in
    (match
       make ~beta ~max_clusters:clusters ~level_stride:stride ?max_paths ~seed
         ~gates ~rows ()
     with
    | c -> Ok c
    | exception Invalid_argument m -> Error m)
  | first :: _ -> Error (Printf.sprintf "bad header %S (want \"fbbcase 1\")" first)
  | [] -> Error "empty case file"

let save ~dir c =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (name c ^ ".case") in
  (* Atomic: a crash (or injected I/O fault) mid-save must never leave
     a half-written repro in the corpus. *)
  Fbb_util.Atomic_io.write_atomic ~path (to_string c);
  path

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error m -> Error m

let load_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".case")
    |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           match load path with
           | Ok c -> (path, c)
           | Error m -> failwith (Printf.sprintf "%s: %s" path m))
