(* The real fbbd daemon as a child process: start it on an ephemeral
   port, read its peak RSS, scrape its telemetry, stop it with SIGTERM
   and check that it drained and exited cleanly. *)

type t = {
  pid : int;
  port : int;
  metrics_port : int option;
  out : Unix.file_descr;  (** the daemon's stdout *)
  mutable reaped : bool;
}

(* bin/fbbd.exe next to this executable in the dune build tree. *)
let exe () =
  let build_root = Filename.dirname (Filename.dirname Sys.executable_name) in
  Filename.concat (Filename.concat build_root "bin") "fbbd.exe"

(* One line of the daemon's stdout, read byte by byte so nothing beyond
   it is consumed; [None] on EOF or after [timeout_s]. *)
let read_line ?(timeout_s = 30.0) fd =
  let buf = Buffer.create 80 in
  let byte = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
        match Unix.read fd byte 0 1 with
        | 0 -> None
        | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents buf)
        | _ ->
          Buffer.add_char buf (Bytes.get byte 0);
          go ())
  in
  go ()

(* Wait for the child to exit, killing it after [timeout_s]; [None] when
   it had to be killed. *)
let reap ?(timeout_s = 30.0) t =
  t.reaped <- true;
  (try Unix.close t.out with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.02;
      poll ()
    | 0, _ ->
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] t.pid);
      None
    | _, status -> Some status
  in
  poll ()

let kill t =
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (reap t)
  end

let start ~metrics =
  let exe = exe () in
  if not (Sys.file_exists exe) then
    Error (Printf.sprintf "%s not found: build bin/fbbd.exe first" exe)
  else begin
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    let args =
      [ exe; "serve"; "--port"; "0"; "--jobs"; string_of_int Spec.daemon_jobs ]
      @ if metrics then [ "--metrics-port"; "0" ] else []
    in
    let pid =
      Unix.create_process exe (Array.of_list args) null out_w Unix.stderr
    in
    Unix.close out_w;
    Unix.close null;
    let t =
      { pid; port = 0; metrics_port = None; out = out_r; reaped = false }
    in
    let scan fmt line =
      try Some (Scanf.sscanf line fmt Fun.id) with _ -> None
    in
    let port =
      Option.bind (read_line out_r)
        (scan "fbbd listening on 127.0.0.1:%d")
    in
    let metrics_port =
      if not metrics then Some None
      else
        Option.map Option.some
          (Option.bind (read_line out_r)
             (scan "metrics on http://127.0.0.1:%d/metrics"))
    in
    match (port, metrics_port) with
    | Some port, Some metrics_port -> Ok { t with port; metrics_port }
    | _ ->
      kill t;
      Error "fbbd did not report its listening port"
  end

(* Peak resident set size (VmHWM) in MB of a live process, or of this
   one for pid 0. *)
let vm_hwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun l ->
           try Some (Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb))
           with _ -> None)
    |> Option.map (fun kb -> kb /. 1024.0)
    |> Option.value ~default:nan

let snapshot t =
  match t.metrics_port with
  | None -> Error "daemon started without telemetry"
  | Some mp -> (
    match
      Fbb_obs.Telemetry.http_get ~timeout_s:10.0
        (Printf.sprintf "http://127.0.0.1:%d/snapshot.json" mp)
    with
    | Error e -> Error e
    | Ok body -> (
      match Fbb_util.Json.parse_opt body with
      | Some j -> Ok j
      | None -> Error "unparsable /snapshot.json"))

(* SIGTERM, then wait: the daemon drains and must exit with status 0. *)
let stop t =
  if t.reaped then Error "daemon already stopped"
  else begin
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    while read_line t.out <> None do () done;
    match reap t with
    | Some (Unix.WEXITED 0) -> Ok ()
    | Some (Unix.WEXITED n) ->
      Error (Printf.sprintf "fbbd exited with status %d" n)
    | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      Error (Printf.sprintf "fbbd died on signal %d" s)
    | None -> Error "fbbd did not exit after SIGTERM"
  end
