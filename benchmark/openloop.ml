(* Open-loop request generator over one connection and two threads.

   The calling thread sends each frame when it is due, whether or not
   earlier requests have been answered; a second thread reads replies
   and stamps their arrival. A request's latency runs from when it was
   due, not from when it was actually sent, so a stall in the server or
   in the generator itself is charged to every request queued behind
   it instead of silently thinning the load (coordinated omission).
   How late the generator ran is reported separately, as [sent - due]. *)

module Protocol = Fbb_serve.Protocol
module Clock = Fbb_obs.Clock

type outcome = {
  due : float array;  (** clock time each request was due *)
  sent : float array;  (** clock time each request was written *)
  replies : (string * float) list;  (** raw reply frames with arrival time *)
  error : string option;  (** transport failure, if any *)
}

(* First send this long after the call, so thread start-up is not
   charged to request 0. *)
let lead_s = 0.005

let latency_ms ~due ~received = (received -. due) *. 1000.0

let lateness_ms o = Array.mapi (fun i d -> (o.sent.(i) -. d) *. 1000.0) o.due

let run fd reader ~frames ~offsets_s =
  let n = Array.length frames in
  let replies = ref [] in
  let rx_error = ref None in
  let receiver =
    Thread.create
      (fun () ->
        let rec loop got =
          if got < n then
            match Protocol.read_frame reader with
            | Ok line ->
              replies := (line, Clock.now_s ()) :: !replies;
              loop (got + 1)
            | Error e -> rx_error := Some (Protocol.read_error_to_string e)
        in
        loop 0)
      ()
  in
  let start = Clock.now_s () +. lead_s in
  let due = Array.map (fun o -> start +. o) offsets_s in
  let sent = Array.make n nan in
  let rec send i =
    if i >= n then None
    else begin
      let rec wait () =
        let d = due.(i) -. Clock.now_s () in
        if d > 0.0 then begin
          Unix.sleepf d;
          wait ()
        end
      in
      wait ();
      sent.(i) <- Clock.now_s ();
      match Protocol.write_frame fd frames.(i) with
      | Ok () -> send (i + 1)
      | Error e -> Some e
    end
  in
  let tx_error = send 0 in
  (* A broken connection also ends the reader (EOF or the socket's
     receive deadline), so the join below cannot hang. *)
  Thread.join receiver;
  let error = match tx_error with Some _ -> tx_error | None -> !rx_error in
  { due; sent; replies = List.rev !replies; error }
