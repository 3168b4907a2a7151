(* The same protocol machines over real UDP sockets on the loopback
   interface, with loss injected at the endpoints. The receiver runs on a
   second thread; in a real deployment the two halves run on different
   machines (see bin/lanrepro.ml for a CLI that does exactly that).

   Run with: dune exec examples/udp_transfer.exe *)

let () =
  let rng = Stats.Rng.create ~seed:2024 in
  let data = String.init (512 * 1024) (fun _ -> Char.chr (Stats.Rng.int rng 256)) in
  let suite = Protocol.Suite.Multi_blast { strategy = Protocol.Blast.Go_back_n; chunk_packets = 64 } in
  (* Each endpoint drops 2% of its own outgoing datagrams, iid. *)
  let lossy = Faults.Scenario.make ~name:"lossy" [ Faults.Scenario.Drop_iid 0.02 ] in
  let tuning = Protocol.Tuning.fixed ~retransmit_ns:25_000_000 () in

  let receiver_socket, receiver_address = Sockets.Udp.create_socket () in
  let sender_socket, _ = Sockets.Udp.create_socket () in

  let received = ref None in
  let receiver_thread =
    Thread.create
      (fun () ->
        received :=
          Server.Engine.receive_one ~ctx:(Sockets.Io_ctx.make ~tuning ()) ~scenario:lossy
            ~seed:5 ~fallback_suite:suite ~socket:receiver_socket ())
      ()
  in

  Printf.printf "sending %d KiB over UDP loopback with 2%% injected loss each way...\n%!"
    (String.length data / 1024);
  let result =
    Sockets.Peer.send
      ~ctx:(Sockets.Io_ctx.make ~faults:(Faults.Netem.create ~seed:6 lossy) ~tuning ())
      ~socket:sender_socket ~peer:receiver_address ~suite ~data ()
  in
  Thread.join receiver_thread;
  Sockets.Udp.close receiver_socket;
  Sockets.Udp.close sender_socket;

  let intact =
    match !received with
    | Some r -> String.equal r.Sockets.Flow.data data
    | None -> false
  in
  Printf.printf "outcome: %s in %.1f ms\n"
    (match result.Sockets.Peer.outcome with
    | Protocol.Action.Success -> "success"
    | Protocol.Action.Too_many_attempts -> "gave up"
    | Protocol.Action.Peer_unreachable -> "peer unreachable"
    | Protocol.Action.Rejected -> "rejected (server busy)")
    (float_of_int result.Sockets.Peer.elapsed_ns /. 1e6);
  Printf.printf "data packets sent: %d (%d were retransmissions)\n"
    result.Sockets.Peer.counters.Protocol.Counters.data_sent
    result.Sockets.Peer.counters.Protocol.Counters.retransmitted_data;
  Printf.printf "payload intact at the far end: %b\n" intact
