(* End-to-end transfers over real UDP loopback sockets, with injected loss.
   The receiver runs on a separate thread; both ends use the same protocol
   machines as the simulator. *)

let random_data rng n = String.init n (fun _ -> Char.chr (Stats.Rng.int rng 256))

(* Endpoint loss: iid drops on one endpoint's outgoing datagrams — a
   sender's one pipeline, or a receiver's per-flow scenario. *)
let drop_scenario p = Faults.Scenario.make ~name:"lossy" [ Faults.Scenario.Drop_iid p ]

let drop_iid ~seed p = Faults.Netem.create ~seed (drop_scenario p)

let dropped netem = (Faults.Netem.stats netem).Faults.Netem.dropped

let transfer ?sender_faults ?receiver_scenario ?receiver_seed ?(packet_bytes = 1024)
    ?(retransmit_ns = 20_000_000) ?tuning ?receiver_tuning ~suite ~data () =
  let receiver_socket, receiver_address = Sockets.Udp.create_socket () in
  let sender_socket, _ = Sockets.Udp.create_socket () in
  let sender_tuning =
    match tuning with
    | Some t -> t
    | None -> Protocol.Tuning.fixed ~retransmit_ns ()
  in
  let receiver_tuning =
    match receiver_tuning with Some t -> t | None -> sender_tuning
  in
  let ctx = Sockets.Io_ctx.make ?faults:sender_faults ~tuning:sender_tuning () in
  let received = ref None in
  let receiver_error = ref None in
  let thread =
    Thread.create
      (fun () ->
        try
          received :=
            Server.Engine.receive_one
              ~ctx:(Sockets.Io_ctx.make ~tuning:receiver_tuning ())
              ?scenario:receiver_scenario ?seed:receiver_seed ~fallback_suite:suite
              ~socket:receiver_socket ()
        with exn -> receiver_error := Some exn)
      ()
  in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Thread.join thread;
        Sockets.Udp.close receiver_socket;
        Sockets.Udp.close sender_socket)
      (fun () ->
        Sockets.Peer.send ~ctx ~packet_bytes
          ~socket:sender_socket ~peer:receiver_address ~suite ~data ())
  in
  (match !receiver_error with Some exn -> raise exn | None -> ());
  (result, Option.get !received)

let check_roundtrip ?sender_faults ?receiver_scenario ?receiver_seed ?packet_bytes ~suite
    ~data () =
  let send_result, receive_result =
    transfer ?sender_faults ?receiver_scenario ?receiver_seed ?packet_bytes ~suite ~data ()
  in
  Alcotest.(check bool)
    (Protocol.Suite.name suite ^ " completes")
    true
    (send_result.Sockets.Peer.outcome = Protocol.Action.Success);
  Alcotest.(check int)
    (Protocol.Suite.name suite ^ " length")
    (String.length data)
    (String.length receive_result.Sockets.Flow.data);
  Alcotest.(check bool)
    (Protocol.Suite.name suite ^ " bytes intact")
    true
    (String.equal data receive_result.Sockets.Flow.data)

let all_suites =
  [
    Protocol.Suite.Stop_and_wait;
    Protocol.Suite.Sliding_window { window = max_int };
    Protocol.Suite.Blast Protocol.Blast.Full_retransmit;
    Protocol.Suite.Blast Protocol.Blast.Full_retransmit_nack;
    Protocol.Suite.Blast Protocol.Blast.Go_back_n;
    Protocol.Suite.Blast Protocol.Blast.Selective;
    Protocol.Suite.Multi_blast { strategy = Protocol.Blast.Go_back_n; chunk_packets = 8 };
  ]

let test_clean_roundtrips () =
  let rng = Stats.Rng.create ~seed:1 in
  List.iter
    (fun suite ->
      let data = random_data rng 10_000 in
      check_roundtrip ~suite ~data ())
    all_suites

let test_single_packet () =
  check_roundtrip ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~data:"hello, 1985" ()

let test_non_multiple_size () =
  (* The last packet is a partial one. *)
  let rng = Stats.Rng.create ~seed:2 in
  check_roundtrip
    ~suite:(Protocol.Suite.Blast Protocol.Blast.Selective)
    ~data:(random_data rng 2_500) ()

let test_exact_multiple_size () =
  let rng = Stats.Rng.create ~seed:3 in
  check_roundtrip ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n)
    ~data:(random_data rng 4_096) ()

let test_large_transfer () =
  let rng = Stats.Rng.create ~seed:4 in
  check_roundtrip
    ~suite:(Protocol.Suite.Multi_blast { strategy = Protocol.Blast.Selective; chunk_packets = 32 })
    ~data:(random_data rng 262_144) ()

let test_lossy_sender_side () =
  let rng = Stats.Rng.create ~seed:5 in
  List.iter
    (fun suite ->
      let data = random_data rng 20_000 in
      (* The sender's 5% receive loss is now the receiver's transmit loss. *)
      check_roundtrip ~sender_faults:(drop_iid ~seed:42 0.1)
        ~receiver_scenario:(drop_scenario 0.05) ~receiver_seed:43 ~suite ~data ())
    [
      Protocol.Suite.Blast Protocol.Blast.Go_back_n;
      Protocol.Suite.Blast Protocol.Blast.Selective;
      Protocol.Suite.Stop_and_wait;
    ]

let test_lossy_both_sides_retransmits () =
  let rng = Stats.Rng.create ~seed:6 in
  let data = random_data rng 30_000 in
  let sender_faults = drop_iid ~seed:7 0.15 in
  let send_result, receive_result =
    transfer ~sender_faults ~receiver_scenario:(drop_scenario 0.15) ~receiver_seed:8
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~data ()
  in
  Alcotest.(check bool) "completes" true
    (send_result.Sockets.Peer.outcome = Protocol.Action.Success);
  Alcotest.(check bool) "data intact" true (String.equal data receive_result.Sockets.Flow.data);
  Alcotest.(check bool) "losses actually injected" true
    (dropped sender_faults > 0
    || receive_result.Sockets.Flow.counters.Protocol.Counters.faults_injected > 0);
  Alcotest.(check bool) "retransmissions happened" true
    (send_result.Sockets.Peer.counters.Protocol.Counters.retransmitted_data > 0)

let test_small_packets () =
  let rng = Stats.Rng.create ~seed:9 in
  check_roundtrip ~packet_bytes:64
    ~suite:(Protocol.Suite.Blast Protocol.Blast.Selective)
    ~data:(random_data rng 3_000) ()

let test_empty_data_rejected () =
  let socket, address = Sockets.Udp.create_socket () in
  Fun.protect
    ~finally:(fun () -> Sockets.Udp.close socket)
    (fun () ->
      Alcotest.check_raises "empty" (Invalid_argument "Peer.send: empty data") (fun () ->
          ignore
            (Sockets.Peer.send ~socket ~peer:address
               ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~data:"" ())))

(* A packet size no UDP datagram can carry fails at the call, before the
   transport sees a single datagram. *)
let test_bad_packet_bytes_rejected () =
  let untouched what = Alcotest.failf "the transport was asked to %s" what in
  let transport =
    {
      Sockets.Transport.send = (fun ~peer:_ ~on_outcome:_ _ -> untouched "send");
      flush = (fun () -> untouched "flush");
      recv = (fun ~timeout_ns:_ -> untouched "receive");
      poll = (fun () -> untouched "poll");
      sleep_ns = (fun _ -> untouched "sleep");
      wake = None;
    }
  in
  List.iter
    (fun packet_bytes ->
      match
        Sockets.Peer.send_via ~packet_bytes ~transport
          ~peer:(Unix.ADDR_INET (Unix.inet_addr_loopback, 9))
          ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n)
          ~data:(String.make 200_000 'x') ()
      with
      | _ -> Alcotest.failf "packet_bytes %d accepted" packet_bytes
      | exception Invalid_argument _ -> ())
    [ 0; -5; 65_484; 70_000 ]

(* The largest legal packet: 65479 payload bytes plus the 28-byte v2 header
   fill one 65507-byte UDP datagram. The receiver's accept timeout keeps a
   refused send from hanging the test. *)
let test_largest_packet_adaptive () =
  let data = random_data (Stats.Rng.create ~seed:12) 200_000 in
  let ctx =
    Sockets.Io_ctx.make ~tuning:(Protocol.Tuning.adaptive ~retransmit_ns:20_000_000 ()) ()
  in
  let receiver_socket, receiver_address = Sockets.Udp.create_socket () in
  let sender_socket, _ = Sockets.Udp.create_socket () in
  let received = ref None in
  let thread =
    Thread.create
      (fun () ->
        received :=
          Server.Engine.receive_one ~ctx ~accept_timeout_ns:2_000_000_000
            ~socket:receiver_socket ())
      ()
  in
  let sent =
    match
      Sockets.Peer.send ~ctx ~packet_bytes:65_479 ~socket:sender_socket ~peer:receiver_address
        ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~data ()
    with
    | r -> Some r
    | exception Invalid_argument _ -> None
  in
  Thread.join thread;
  Sockets.Udp.close receiver_socket;
  Sockets.Udp.close sender_socket;
  match (sent, !received) with
  | Some sent, Some received ->
      Alcotest.(check bool) "completes" true
        (sent.Sockets.Peer.outcome = Protocol.Action.Success);
      Alcotest.(check bool) "adaptive" true sent.Sockets.Peer.adaptive;
      Alcotest.(check bool) "bytes intact" true (String.equal data received.Sockets.Flow.data)
  | None, _ -> Alcotest.fail "65479-byte packets refused"
  | Some _, None -> Alcotest.fail "nothing received"

let test_geometry_roundtrip () =
  let m = Packet.Message.req_with_geometry ~transfer_id:9 ~packet_bytes:512 ~total_bytes:5_000 in
  Alcotest.(check int) "derived total" 10 m.Packet.Message.total;
  (match Packet.Message.geometry m with
  | Some (pb, tb) ->
      Alcotest.(check int) "packet bytes" 512 pb;
      Alcotest.(check int) "total bytes" 5_000 tb
  | None -> Alcotest.fail "no geometry");
  Alcotest.(check bool) "plain req has none" true
    (Packet.Message.geometry (Packet.Message.req ~transfer_id:9 ~total:3) = None)

let main_suites =
    [
      ( "clean",
        [
          Alcotest.test_case "roundtrip all suites" `Quick test_clean_roundtrips;
          Alcotest.test_case "single packet" `Quick test_single_packet;
          Alcotest.test_case "non-multiple size" `Quick test_non_multiple_size;
          Alcotest.test_case "exact multiple size" `Quick test_exact_multiple_size;
          Alcotest.test_case "large transfer" `Quick test_large_transfer;
          Alcotest.test_case "small packets" `Quick test_small_packets;
          Alcotest.test_case "empty data rejected" `Quick test_empty_data_rejected;
          Alcotest.test_case "bad packet sizes rejected" `Quick test_bad_packet_bytes_rejected;
          Alcotest.test_case "largest packet, adaptive" `Quick test_largest_packet_adaptive;
          Alcotest.test_case "geometry roundtrip" `Quick test_geometry_roundtrip;
        ] );
      ( "lossy",
        [
          Alcotest.test_case "sender-side loss" `Quick test_lossy_sender_side;
          Alcotest.test_case "both sides lossy" `Quick test_lossy_both_sides_retransmits;
        ] );
    ]

(* Appended: the REQ carries the protocol suite, so a receiver started with a
   different (or no) default still runs the sender's protocol. *)
let test_suite_carried_in_req () =
  let rng = Stats.Rng.create ~seed:33 in
  let data = random_data rng 50_000 in
  let receiver_socket, receiver_address = Sockets.Udp.create_socket () in
  let sender_socket, _ = Sockets.Udp.create_socket () in
  let received = ref None in
  let thread =
    Thread.create
      (fun () ->
        (* Deliberately no ~fallback_suite: the receiver must learn it from
           the REQ. *)
        received := Server.Engine.receive_one ~socket:receiver_socket ())
      ()
  in
  let suite = Protocol.Suite.Multi_blast { strategy = Protocol.Blast.Selective; chunk_packets = 16 } in
  let result = Sockets.Peer.send ~socket:sender_socket ~peer:receiver_address ~suite ~data () in
  Thread.join thread;
  Sockets.Udp.close receiver_socket;
  Sockets.Udp.close sender_socket;
  Alcotest.(check bool) "success" true (result.Sockets.Peer.outcome = Protocol.Action.Success);
  match !received with
  | Some r -> Alcotest.(check bool) "intact" true (String.equal r.Sockets.Flow.data data)
  | None -> Alcotest.fail "nothing received"

let test_suite_codec_roundtrip () =
  List.iter
    (fun suite ->
      match
        Sockets.Suite_codec.decode
          (Sockets.Suite_codec.encode ~data_crc:0xDEADBEEFl ~packet_bytes:512
             ~total_bytes:9999 suite)
      with
      | Some
          {
            Sockets.Suite_codec.packet_bytes = 512;
            total_bytes = 9999;
            suite = Some decoded;
            data_crc = Some 0xDEADBEEFl;
            stripe = None;
          } ->
          Alcotest.(check string) "same suite" (Protocol.Suite.name suite)
            (Protocol.Suite.name decoded)
      | _ -> Alcotest.failf "roundtrip failed for %s" (Protocol.Suite.name suite))
    (Protocol.Suite.Sliding_window { window = max_int }
     :: Protocol.Suite.Sliding_window { window = 7 }
     :: Protocol.Suite.Stop_and_wait
     :: Protocol.Suite.Multi_blast { strategy = Protocol.Blast.Go_back_n; chunk_packets = 64 }
     :: Protocol.Suite.all_blast_strategies);
  (* The 14-byte form (no CRC) also roundtrips. *)
  (match
     Sockets.Suite_codec.decode
       (Sockets.Suite_codec.encode ~packet_bytes:256 ~total_bytes:1000
          Protocol.Suite.Stop_and_wait)
   with
  | Some { Sockets.Suite_codec.packet_bytes = 256; total_bytes = 1000; data_crc = None; _ } ->
      ()
  | _ -> Alcotest.fail "14-byte form failed");
  (* Bare 8-byte geometry decodes with no suite. *)
  let bare = Bytes.create 8 in
  Bytes.set_int32_be bare 0 1024l;
  Bytes.set_int32_be bare 4 4096l;
  (match Sockets.Suite_codec.decode (Bytes.to_string bare) with
  | Some { Sockets.Suite_codec.packet_bytes = 1024; total_bytes = 4096; suite = None; data_crc = None; stripe = None } -> ()
  | _ -> Alcotest.fail "bare geometry rejected");
  Alcotest.(check bool) "garbage rejected" true (Sockets.Suite_codec.decode "xyz" = None)

let test_survives_garbage_datagrams () =
  (* A hostile or confused peer sprays random bytes at the receiver during a
     real transfer: the codec rejects them and the transfer is unaffected. *)
  let rng = Stats.Rng.create ~seed:55 in
  let data = random_data rng 40_000 in
  let receiver_socket, receiver_address = Sockets.Udp.create_socket () in
  let sender_socket, _ = Sockets.Udp.create_socket () in
  let noise_socket, _ = Sockets.Udp.create_socket () in
  let received = ref None in
  let receiver_thread =
    Thread.create
      (fun () -> received := Server.Engine.receive_one ~socket:receiver_socket ())
      ()
  in
  let stop_noise = ref false in
  let noise_thread =
    Thread.create
      (fun () ->
        let noise_rng = Stats.Rng.create ~seed:56 in
        while not !stop_noise do
          let len = 1 + Stats.Rng.int noise_rng 600 in
          let junk = Bytes.init len (fun _ -> Char.chr (Stats.Rng.int noise_rng 256)) in
          (try
             ignore (Unix.sendto noise_socket junk 0 len [] receiver_address)
           with Unix.Unix_error _ -> ());
          Thread.yield ()
        done)
      ()
  in
  let result =
    Sockets.Peer.send ~socket:sender_socket ~peer:receiver_address
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~data ()
  in
  stop_noise := true;
  Thread.join noise_thread;
  Thread.join receiver_thread;
  Sockets.Udp.close receiver_socket;
  Sockets.Udp.close sender_socket;
  Sockets.Udp.close noise_socket;
  Alcotest.(check bool) "completes despite noise" true
    (result.Sockets.Peer.outcome = Protocol.Action.Success);
  match !received with
  | Some r ->
      Alcotest.(check bool) "data intact" true (String.equal r.Sockets.Flow.data data);
      Alcotest.(check bool) "integrity verified" true
        (r.Sockets.Flow.integrity = Sockets.Flow.Verified)
  | None -> Alcotest.fail "nothing received"

let test_paced_send_roundtrip () =
  let rng = Stats.Rng.create ~seed:57 in
  let data = random_data rng 60_000 in
  let receiver_socket, receiver_address = Sockets.Udp.create_socket () in
  let sender_socket, _ = Sockets.Udp.create_socket () in
  let received = ref None in
  let thread =
    Thread.create
      (fun () -> received := Server.Engine.receive_one ~socket:receiver_socket ())
      ()
  in
  let result =
    Sockets.Peer.send
      ~ctx:
        (Sockets.Io_ctx.make
           ~tuning:
             (Protocol.Tuning.fixed ~pacing:(Protocol.Tuning.Fixed_gap 20_000) ())
           ())
      ~socket:sender_socket ~peer:receiver_address
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~data ()
  in
  Thread.join thread;
  Sockets.Udp.close receiver_socket;
  Sockets.Udp.close sender_socket;
  Alcotest.(check bool) "success" true (result.Sockets.Peer.outcome = Protocol.Action.Success);
  (match !received with
  | Some r -> Alcotest.(check bool) "intact" true (String.equal r.Sockets.Flow.data data)
  | None -> Alcotest.fail "nothing received");
  (* Pacing slows the blast to at least packets x gap. *)
  Alcotest.(check bool) "pacing actually slows the train" true
    (result.Sockets.Peer.elapsed_ns >= 59 * 20_000)

(* ------------------------------------------------------- adaptive trains *)

let test_adaptive_roundtrip () =
  let rng = Stats.Rng.create ~seed:71 in
  let data = random_data rng 120_000 in
  let tuning = Protocol.Tuning.adaptive ~retransmit_ns:20_000_000 () in
  let send_result, receive_result =
    transfer ~tuning ~suite:(Protocol.Suite.Blast Protocol.Blast.Selective) ~data ()
  in
  Alcotest.(check bool) "success" true
    (send_result.Sockets.Peer.outcome = Protocol.Action.Success);
  Alcotest.(check bool) "handshake settled on adaptive" true
    send_result.Sockets.Peer.adaptive;
  Alcotest.(check bool) "data intact" true
    (String.equal data receive_result.Sockets.Flow.data)

let test_adaptive_lossy_roundtrip () =
  let rng = Stats.Rng.create ~seed:72 in
  let data = random_data rng 80_000 in
  let tuning =
    Protocol.Tuning.adaptive ~retransmit_ns:20_000_000
      ~pacing:Protocol.Tuning.Rtt_spread ()
  in
  let sender_faults = drop_iid ~seed:73 0.08 in
  let send_result, receive_result =
    transfer ~tuning ~sender_faults
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Selective) ~data ()
  in
  Alcotest.(check bool) "success under loss" true
    (send_result.Sockets.Peer.outcome = Protocol.Action.Success);
  Alcotest.(check bool) "adaptive" true send_result.Sockets.Peer.adaptive;
  Alcotest.(check bool) "data intact" true
    (String.equal data receive_result.Sockets.Flow.data);
  Alcotest.(check bool) "losses actually injected" true
    (dropped sender_faults > 0)

let test_adaptive_honored_by_fixed_receiver () =
  (* A receiver pinned to fixed tuning still obliges a budget-stamped REQ:
     the wire wins, and the flow runs adaptive with budget-stamped ACKs. *)
  let rng = Stats.Rng.create ~seed:74 in
  let data = random_data rng 60_000 in
  let send_result, receive_result =
    transfer
      ~tuning:(Protocol.Tuning.adaptive ~retransmit_ns:20_000_000 ())
      ~receiver_tuning:(Protocol.Tuning.fixed ~retransmit_ns:20_000_000 ())
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Selective) ~data ()
  in
  Alcotest.(check bool) "success" true
    (send_result.Sockets.Peer.outcome = Protocol.Action.Success);
  Alcotest.(check bool) "receiver obliges the adaptive REQ" true
    send_result.Sockets.Peer.adaptive;
  Alcotest.(check bool) "data intact" true
    (String.equal data receive_result.Sockets.Flow.data)

(* A v1-only peer, emulated faithfully: every wire-v2 (budget-stamped)
   datagram is dropped on the floor — an old decoder cannot parse the frame
   — and the rest drive a fixed-tuned flow by hand. The adaptive sender's
   handshake must fall back to a v1 REQ, read the bare ACK, and negotiate
   the transfer down to fixed trains. *)
let old_v1_receiver socket =
  let clock = (Sockets.Io_ctx.default ()).Sockets.Io_ctx.clock in
  Unix.setsockopt_float socket Unix.SO_RCVTIMEO 0.05;
  let buf = Bytes.create 65_536 in
  let flow = ref None in
  let deadline = clock () + 10_000_000_000 in
  let result = ref None in
  while !result = None && clock () < deadline do
    let incoming =
      try
        let len, from = Unix.recvfrom socket buf 0 (Bytes.length buf) [] in
        Some (Bytes.sub buf 0 len, from)
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> None
    in
    let actions, from =
      match incoming with
      | None -> (
          match !flow with
          | Some (f, from) -> (Sockets.Flow.on_tick f ~now:(clock ()), Some from)
          | None -> ([], None))
      | Some (datagram, from) -> (
          match Packet.Codec.decode datagram with
          | Error _ -> ([], None)
          | Ok m when Packet.Message.budget m <> None ->
              ([], None) (* v2 frame: undecodable for a v1-only binary *)
          | Ok m -> (
              match !flow with
              | Some (f, _) -> (Sockets.Flow.on_message f ~now:(clock ()) m, Some from)
              | None -> (
                  let counters = Protocol.Counters.create () in
                  match
                    Sockets.Flow.create
                      ~tuning:(Protocol.Tuning.fixed ~retransmit_ns:20_000_000 ())
                      ~probe:(Obs.Probe.create ~lane:"v1-peer" ~counters ())
                      ~counters ~now:(clock ()) m
                  with
                  | Ok (f, actions) ->
                      flow := Some (f, from);
                      (actions, Some from)
                  | Error _ -> ([], None))))
    in
    (match from with
    | Some from ->
        List.iter
          (fun (Sockets.Flow.Transmit m) ->
            let encoded = Packet.Codec.encode m in
            ignore (Unix.sendto socket encoded 0 (Bytes.length encoded) [] from))
          actions
    | None -> ());
    match !flow with
    | Some (f, _) -> (
        match Sockets.Flow.status f with
        | `Done completion -> result := Some completion
        | `Running | `Lingering -> ())
    | None -> ()
  done;
  !result

let test_adaptive_negotiates_down_with_v1_peer () =
  let rng = Stats.Rng.create ~seed:76 in
  let data = random_data rng 40_000 in
  let receiver_socket, receiver_address = Sockets.Udp.create_socket () in
  let sender_socket, _ = Sockets.Udp.create_socket () in
  let received = ref None in
  let thread = Thread.create (fun () -> received := old_v1_receiver receiver_socket) () in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Thread.join thread;
        Sockets.Udp.close receiver_socket;
        Sockets.Udp.close sender_socket)
      (fun () ->
        Sockets.Peer.send
          ~ctx:
            (Sockets.Io_ctx.make
               ~tuning:(Protocol.Tuning.adaptive ~retransmit_ns:20_000_000 ())
               ())
          ~socket:sender_socket ~peer:receiver_address
          ~suite:(Protocol.Suite.Blast Protocol.Blast.Selective) ~data ())
  in
  Alcotest.(check bool) "success against a v1-only peer" true
    (result.Sockets.Peer.outcome = Protocol.Action.Success);
  Alcotest.(check bool) "negotiated down to fixed trains" false
    result.Sockets.Peer.adaptive;
  match !received with
  | Some completion ->
      Alcotest.(check bool) "data intact at the v1 peer" true
        (String.equal data completion.Sockets.Flow.data)
  | None -> Alcotest.fail "the v1 peer never completed"

let test_fixed_sender_against_adaptive_receiver () =
  (* The other direction: a fixed-tuned (old-style) sender never stamps a
     budget on its REQ, and the adaptive-capable receiver serves it plain
     fixed blast. *)
  let rng = Stats.Rng.create ~seed:75 in
  let data = random_data rng 60_000 in
  let send_result, receive_result =
    transfer
      ~tuning:(Protocol.Tuning.fixed ~retransmit_ns:20_000_000 ())
      ~receiver_tuning:(Protocol.Tuning.adaptive ~retransmit_ns:20_000_000 ())
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Selective) ~data ()
  in
  Alcotest.(check bool) "success" true
    (send_result.Sockets.Peer.outcome = Protocol.Action.Success);
  Alcotest.(check bool) "stays fixed" false send_result.Sockets.Peer.adaptive;
  Alcotest.(check bool) "data intact" true
    (String.equal data receive_result.Sockets.Flow.data)

(* An eight-datagram train of 600-byte datagrams, sent through a fast-path
   batch: one GSO message where the kernel has them. *)
let gso_train = List.init 8 (fun i -> String.make 600 (Char.chr (Char.code 'A' + i)))

let send_gso_train tx address =
  let batch = Sockets.Batch.create ~force_fallback:false ~socket:tx () in
  List.iter
    (fun d -> Sockets.Batch.push batch ~peer:address (Bytes.of_string d))
    gso_train;
  ignore (Sockets.Batch.flush batch : Sockets.Batch.report)

(* The train's views from [transport]: (offset, bytes) each. *)
let collect_views (transport : Sockets.Transport.t) =
  List.map
    (fun _ ->
      match transport.Sockets.Transport.recv ~timeout_ns:(Some 2_000_000_000) with
      | `Datagram { Sockets.Transport.buf; pos; len; _ } ->
          (pos, Bytes.sub_string buf pos len)
      | `Timeout -> Alcotest.fail "train did not arrive")
    gso_train

let coalescing () =
  Sockets.Batch.kernel_support () && not (Sockets.Batch.env_force_fallback ())

let check_coalesced label views =
  if coalescing () then
    Alcotest.(check (list int))
      label
      (List.init (List.length gso_train) (fun i -> 600 * i))
      (List.map fst views)
  else Printf.printf "SKIP %s: the recvmmsg path is off\n%!" label

(* A GSO train into a batched transport arrives as views into one coalesced
   slot, each with its own offset; the same socket behind an unbatched
   transport afterwards gets whole datagrams again, because building that
   transport turned UDP_GRO off (recvfrom has no way to cut a train). *)
let test_transport_gro_views () =
  let socket, address = Sockets.Udp.create_socket () in
  let tx, _ = Sockets.Udp.create_socket () in
  Fun.protect
    ~finally:(fun () ->
      Sockets.Udp.close socket;
      Sockets.Udp.close tx)
    (fun () ->
      let batched = Sockets.Transport.udp ~batch:true ~socket () in
      send_gso_train tx address;
      let views = collect_views batched in
      Alcotest.(check (list string)) "batched: each view is a sent datagram" gso_train
        (List.map snd views);
      check_coalesced "batched: views cut one coalesced slot" views;
      let unbatched = Sockets.Transport.udp ~batch:false ~socket () in
      send_gso_train tx address;
      let views = collect_views unbatched in
      Alcotest.(check (list string))
        "unbatched: whole datagrams" gso_train (List.map snd views);
      Alcotest.(check bool) "unbatched: every view at offset 0" true
        (List.for_all (fun (pos, _) -> pos = 0) views))

(* Batched transports built one after another on one socket (a closed-loop
   sender builds one per transfer) share one receive ring instead of
   allocating a 64 KiB slot each. A socket that reuses a closed socket's
   descriptor takes that ring over too, and still gets coalesced trains:
   the ring re-arms UDP_GRO on it. *)
let test_transport_ring_reuse () =
  let tx, _ = Sockets.Udp.create_socket () in
  let first, _ = Sockets.Udp.create_socket () in
  let allocated f =
    let before = Gc.allocated_bytes () in
    ignore (f () : Sockets.Transport.t);
    Gc.allocated_bytes () -. before
  in
  let build socket () = Sockets.Transport.udp ~batch:true ~socket () in
  ignore (build first () : Sockets.Transport.t);
  let again = allocated (build first) in
  if again >= 16_384. then Alcotest.failf "a second transport allocated %.0f B" again;
  Sockets.Udp.close first;
  let second, address = Sockets.Udp.create_socket () in
  Fun.protect
    ~finally:(fun () ->
      Sockets.Udp.close second;
      Sockets.Udp.close tx)
    (fun () ->
      if second <> first then print_endline "SKIP recycled-descriptor check: not recycled"
      else begin
        let transport = build second () in
        send_gso_train tx address;
        let views = collect_views transport in
        Alcotest.(check (list string)) "recycled: each view is a sent datagram" gso_train
          (List.map snd views);
        check_coalesced "recycled: views cut one coalesced slot" views
      end;
      let other, _ = Sockets.Udp.create_socket () in
      let fresh = allocated (build other) in
      Sockets.Udp.close other;
      if fresh < 65_536. then
        Alcotest.failf "a transport on a new socket allocated %.0f B" fresh)

let () =
  Alcotest.run "sockets"
    (main_suites
    @ [
        ( "suite-in-req",
          [
            Alcotest.test_case "receiver learns suite from REQ" `Quick test_suite_carried_in_req;
            Alcotest.test_case "suite codec roundtrip" `Quick test_suite_codec_roundtrip;
          ] );
        ( "transport",
          [
            Alcotest.test_case "GRO views, then whole datagrams unbatched" `Quick
              test_transport_gro_views;
            Alcotest.test_case "one receive ring per socket" `Quick
              test_transport_ring_reuse;
          ] );
        ( "pacing",
          [ Alcotest.test_case "paced send roundtrip" `Quick test_paced_send_roundtrip ] );
        ( "adaptive",
          [
            Alcotest.test_case "adaptive roundtrip" `Quick test_adaptive_roundtrip;
            Alcotest.test_case "adaptive under loss with rtt pacing" `Quick
              test_adaptive_lossy_roundtrip;
            Alcotest.test_case "fixed-tuned receiver obliges adaptive REQ" `Quick
              test_adaptive_honored_by_fixed_receiver;
            Alcotest.test_case "negotiates down with a v1-only peer" `Quick
              test_adaptive_negotiates_down_with_v1_peer;
            Alcotest.test_case "fixed sender, adaptive receiver" `Quick
              test_fixed_sender_against_adaptive_receiver;
          ] );
        ( "robustness",
          [
            Alcotest.test_case "survives garbage datagrams" `Quick
              test_survives_garbage_datagrams;
          ] );
      ])
