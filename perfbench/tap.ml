(* A timing and counting wrapper around a [Sockets.Transport.t]: the
   benchmark's view of the sockets layer, taken from outside the program.
   One tap belongs to one loop (the sender thread or the engine domain), so
   its fields are never written from two domains. *)

type t = {
  mutable sends : int;
  mutable send_failures : int;
  mutable flushes : int;  (** flushes that had at least one datagram queued *)
  mutable pending : int;
  mutable flush_ns : int;
  mutable poll_ns : int;
  mutable recv_ns : int;
  mutable rx_datagrams : int;
  mutable samples : bytes list;  (** copies of the first [sample_cap] sent datagrams *)
  mutable sampled : int;
}

let sample_cap = 512

let create () =
  {
    sends = 0;
    send_failures = 0;
    flushes = 0;
    pending = 0;
    flush_ns = 0;
    poll_ns = 0;
    recv_ns = 0;
    rx_datagrams = 0;
    samples = [];
    sampled = 0;
  }

let now = Sockets.Udp.now_ns

let wrap tap (tr : Sockets.Transport.t) : Sockets.Transport.t =
  let send ~peer ~on_outcome data =
    tap.sends <- tap.sends + 1;
    tap.pending <- tap.pending + 1;
    if tap.sampled < sample_cap then begin
      tap.samples <- Bytes.copy data :: tap.samples;
      tap.sampled <- tap.sampled + 1
    end;
    let on_outcome o =
      (match o with
      | Sockets.Udp.Send_failed _ -> tap.send_failures <- tap.send_failures + 1
      | Sockets.Udp.Sent -> ());
      on_outcome o
    in
    tr.send ~peer ~on_outcome data
  in
  let flush () =
    let t0 = now () in
    tr.flush ();
    tap.flush_ns <- tap.flush_ns + (now () - t0);
    if tap.pending > 0 then begin
      tap.flushes <- tap.flushes + 1;
      tap.pending <- 0
    end
  in
  let received = function
    | `Datagram _ -> tap.rx_datagrams <- tap.rx_datagrams + 1
    | `Timeout | `Empty -> ()
  in
  let recv ~timeout_ns =
    let t0 = now () in
    let r = tr.recv ~timeout_ns in
    tap.recv_ns <- tap.recv_ns + (now () - t0);
    received (r :> [ `Datagram of Sockets.Transport.view | `Timeout | `Empty ]);
    r
  in
  let poll () =
    let t0 = now () in
    let r = tr.poll () in
    tap.poll_ns <- tap.poll_ns + (now () - t0);
    received (r :> [ `Datagram of Sockets.Transport.view | `Timeout | `Empty ]);
    r
  in
  { tr with send; flush; recv; poll }
