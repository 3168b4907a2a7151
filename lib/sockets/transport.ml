type view = { buf : Bytes.t; len : int; from : Unix.sockaddr }

type t = {
  send : peer:Unix.sockaddr -> on_outcome:(Udp.send_outcome -> unit) -> bytes -> unit;
  flush : unit -> unit;
  recv : timeout_ns:int option -> [ `Timeout | `Datagram of view ];
  poll : unit -> [ `Empty | `Datagram of view ];
  sleep_ns : int -> unit;
  wake : (unit -> unit) option;
}

(* Widest [recvmmsg] drain: the engine's drain budget. The ring
   only reaches it under a backlog that deep (see {!Batch.create_rx}). *)
let rx_ring_capacity = 64

let udp ?batch ?poller ~socket () =
  let batch = match batch with Some b -> b | None -> Batch.env_enabled () in
  (* A blast sender can land dozens of datagrams between two wake-ups;
     headroom in the kernel buffer is what keeps that from becoming loss.
     Best effort: the kernel may clamp it. *)
  (try Unix.setsockopt_int socket Unix.SO_RCVBUF (4 * 1024 * 1024)
   with Unix.Unix_error _ -> ());
  Unix.set_nonblock socket;
  let tx = if batch then Some (Batch.create ~socket ()) else None in
  let rx =
    if batch then Some (Batch.create_rx ~capacity:rx_ring_capacity ~socket ()) else None
  in
  (* Only the unbatched [poll_socket] reads into this buffer; a batching
     transport receives into its ring. *)
  let buffer = match rx with None -> Udp.rx_buffer () | Some _ -> Bytes.empty in
  let send ~peer ~on_outcome data =
    match tx with
    | Some b -> Batch.push b ~peer ~on_outcome data
    | None -> on_outcome (Udp.send_bytes socket peer data)
  in
  let flush () =
    match tx with None -> () | Some b -> ignore (Batch.flush b : Batch.report)
  in
  (* Ring state for the recvmmsg drain: [poll] serves leftovers of the last
     kernel crossing before asking for another. *)
  let rx_count = ref 0 in
  let rx_next = ref 0 in
  let rec poll_socket () =
    match Unix.recvfrom socket buffer 0 (Bytes.length buffer) [] with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        `Empty
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
        (* Linux surfaces a pending ICMP port-unreachable (a peer that
           already closed) on the next receive; it consumes no datagram. *)
        poll_socket ()
    | len, from -> `Datagram { buf = buffer; len; from }
  in
  let poll () =
    match rx with
    | None -> poll_socket ()
    | Some ring ->
        if !rx_next >= !rx_count then begin
          rx_count := Batch.recv ring ~limit:(Batch.rx_capacity ring);
          rx_next := 0
        end;
        if !rx_next >= !rx_count then `Empty
        else begin
          let buf, len, from = Batch.get ring !rx_next in
          incr rx_next;
          `Datagram { buf; len; from }
        end
  in
  (* The blocking wait. With a poller the socket is registered for
     edge-triggered readiness — safe because this wait only runs after
     [poll] drained the socket to EAGAIN, so every future datagram is a
     fresh edge — and an explicit [Poller.wake] surfaces as [`Timeout]
     (the caller re-checks its own state, e.g. a stop flag). Without a
     poller the wait is the classic one-socket select and [wake] is
     absent. *)
  Option.iter (fun p -> Poller.add p socket) poller;
  let wait_ready =
    match poller with
    | Some p ->
        fun deadline ->
          let timeout_ns =
            Option.map (fun d -> max 0 (d - Udp.now_ns ())) deadline
          in
          (match Poller.wait p ~timeout_ns with
          | `Timeout | `Woken -> `Expired
          | `Ready -> `Check)
    | None -> (
        fun deadline ->
          let timeout =
            match deadline with
            | None -> -1.0
            | Some d -> Float.max 0.0 (float_of_int (d - Udp.now_ns ()) /. 1e9)
          in
          match Unix.select [ socket ] [] [] timeout with
          | [], _, _ -> `Expired
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Check
          | _ :: _, _, _ -> `Check)
  in
  let recv ~timeout_ns =
    (* Leftovers from the last drain come first, or a datagram queued behind
       them would be served out of order. *)
    match poll () with
    | `Datagram d -> `Datagram d
    | `Empty ->
        let deadline = Option.map (fun ns -> Udp.now_ns () + ns) timeout_ns in
        let rec wait () =
          match wait_ready deadline with
          | `Expired -> `Timeout
          | `Check -> ( match poll () with `Datagram d -> `Datagram d | `Empty -> again ())
        and again () =
          (* Spurious wake (signal, consumed ICMP error, checksum-dropped
             datagram): wait out the rest of the window. *)
          match deadline with
          | Some d when d - Udp.now_ns () <= 0 -> `Timeout
          | _ -> wait ()
        in
        wait ()
  in
  {
    send;
    flush;
    recv;
    poll;
    sleep_ns = (fun ns -> Unix.sleepf (float_of_int ns /. 1e9));
    wake = Option.map (fun p () -> Poller.wake p) poller;
  }
