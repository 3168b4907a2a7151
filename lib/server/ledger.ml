type t = {
  lock : Mutex.t;
  sent_ok : (int * int * int32, int) Hashtbl.t;  (** (port, id, crc) -> count *)
  served_ok : (int * int * int32, int) Hashtbl.t;
  mutable breaches : string list;  (** newest first *)
}

let create () =
  {
    lock = Mutex.create ();
    sent_ok = Hashtbl.create 64;
    served_ok = Hashtbl.create 64;
    breaches = [];
  }

let port_of = function Unix.ADDR_INET (_, port) -> port | Unix.ADDR_UNIX _ -> 0

let bump table key =
  Hashtbl.replace table key (1 + Option.value (Hashtbl.find_opt table key) ~default:0)

let record t f =
  Mutex.protect t.lock (fun () ->
      let breach = f () in
      Option.iter (fun b -> t.breaches <- b :: t.breaches) breach;
      breach)

let sent t ~peer ~transfer_id ~crc ~max_attempts ~packets (r : Sockets.Peer.send_result) =
  let port = port_of peer in
  record t (fun () ->
      if r.Sockets.Peer.outcome = Protocol.Action.Success then
        bump t.sent_ok (port, transfer_id, crc);
      let rounds = r.Sockets.Peer.counters.Protocol.Counters.rounds in
      let bound = max_attempts * packets in
      if rounds > bound then
        Some
          (Printf.sprintf
             "sender exceeded the attempt bound: port=%d id=%d (%d rounds > %d)" port
             transfer_id rounds bound)
      else None)

let served t ~peer (c : Sockets.Flow.completion) =
  let port = port_of peer and id = c.Sockets.Flow.transfer_id in
  record t (fun () ->
      match (c.Sockets.Flow.outcome, c.Sockets.Flow.integrity) with
      | Protocol.Action.Success, Sockets.Flow.Verified ->
          bump t.served_ok (port, id, Packet.Checksum.crc32_string c.Sockets.Flow.data);
          None
      | Protocol.Action.Success, (Sockets.Flow.Mismatch | Sockets.Flow.Not_carried) ->
          Some
            (Printf.sprintf
               "server settled transfer %d from port %d without CRC verification" id port)
      | _ -> None)

let unmatched t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun ((port, id, crc) as key) sent acc ->
          let served = Option.value (Hashtbl.find_opt t.served_ok key) ~default:0 in
          if served < sent then
            Printf.sprintf
              "sender success without verified server delivery: port=%d id=%d crc=%08lx (%d vs %d)"
              port id crc sent served
            :: acc
          else acc)
        t.sent_ok []
      |> List.rev)

let violations t =
  let recorded = Mutex.protect t.lock (fun () -> List.rev t.breaches) in
  recorded @ unmatched t
