(* The fault-injection layer: scenario registry, Netem injector mechanics,
   determinism, the simulator integration, and the UDP chaos soak — the
   campaign asserting, through the swarm's delivery oracle, that every
   suite x scenario combination either delivers CRC-verified data or fails
   cleanly within its attempt bound. *)

module F = Faults

let sample_datagram seq =
  Packet.Codec.encode
    (Packet.Message.data ~transfer_id:3 ~seq ~total:64 ~payload:(String.make 200 'p'))

(* ------------------------------------------------------------- Scenario *)

let test_registry () =
  Alcotest.(check int) "five named scenarios" 5 (List.length F.Scenario.all);
  Alcotest.(check bool) "clean is clean" true (F.Scenario.is_clean F.Scenario.clean);
  Alcotest.(check bool) "chaos is not" false (F.Scenario.is_clean F.Scenario.chaos);
  (match F.Scenario.find "bursty" with
  | Some s -> Alcotest.(check string) "find bursty" "bursty" (F.Scenario.name s)
  | None -> Alcotest.fail "bursty not found");
  Alcotest.(check bool) "unknown name" true (F.Scenario.find "nope" = None);
  (* Every registry scenario that corrupts flips at most one bit — the
     codec detects any single-bit flip, so the soak's no-corrupt-delivery
     invariant holds by construction rather than by seed luck. *)
  List.iter
    (fun s ->
      List.iter
        (function
          | F.Scenario.Corrupt { max_bits; _ } ->
              Alcotest.(check int)
                (F.Scenario.name s ^ " flips single bits")
                1 max_bits
          | _ -> ())
        (F.Scenario.injectors s))
    F.Scenario.all

let test_scenario_validation () =
  Alcotest.(check bool)
    "bad probability rejected" true
    (try
       ignore (F.Scenario.make ~name:"bad" [ F.Scenario.Drop_iid 1.5 ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool)
    "unbounded delay rejected" true
    (try
       ignore
         (F.Scenario.make ~name:"bad"
            [ F.Scenario.Delay { p = 0.5; min_ns = 0; max_ns = 10_000_000_000 } ]);
       false
     with Invalid_argument _ -> true)

(* ----------------------------------------------------- Netem mechanics *)

let emissions_of netem datagrams =
  List.concat_map (fun d -> F.Netem.tx_bytes netem d) datagrams

let test_determinism () =
  let scenario = F.Scenario.chaos in
  let run () =
    let netem = F.Netem.create ~seed:42 scenario in
    let out =
      List.init 200 (fun i -> sample_datagram (i mod 64))
      |> List.concat_map (fun d ->
             List.map
               (fun { F.Netem.delay_ns; data } -> (delay_ns, Bytes.to_string data))
               (F.Netem.tx_bytes netem d))
    in
    (out, F.Netem.total (F.Netem.stats netem))
  in
  let a, a_total = run () in
  let b, b_total = run () in
  Alcotest.(check bool) "same seed, same emissions" true (a = b);
  Alcotest.(check int) "same seed, same fault count" a_total b_total;
  Alcotest.(check bool) "faults actually injected" true (a_total > 0)

let test_drop_all () =
  let netem =
    F.Netem.create ~seed:7 (F.Scenario.make ~name:"sink" [ F.Scenario.Drop_iid 1.0 ])
  in
  let out = emissions_of netem (List.init 50 sample_datagram) in
  Alcotest.(check int) "nothing emitted" 0 (List.length out);
  Alcotest.(check int) "all counted" 50 (F.Netem.stats netem).F.Netem.dropped

let test_drop_half () =
  let netem =
    F.Netem.create ~seed:1 (F.Scenario.make ~name:"lossy" [ F.Scenario.Drop_iid 0.5 ])
  in
  let datagrams = List.init 1000 (fun i -> sample_datagram (i mod 64)) in
  let passed = List.length (emissions_of netem datagrams) in
  Alcotest.(check bool) "about half pass" true (passed > 400 && passed < 600);
  Alcotest.(check int) "drop count" (1000 - passed) (F.Netem.stats netem).F.Netem.dropped

let test_duplicate_all () =
  let netem =
    F.Netem.create ~seed:7 (F.Scenario.make ~name:"dup" [ F.Scenario.Duplicate 1.0 ])
  in
  let out = F.Netem.tx_bytes netem (sample_datagram 0) in
  Alcotest.(check int) "two emissions" 2 (List.length out);
  Alcotest.(check int) "counted once" 1 (F.Netem.stats netem).F.Netem.duplicated

let test_corrupt_single_bit_always_detected () =
  let netem =
    F.Netem.create ~seed:11
      (F.Scenario.make ~name:"flip" [ F.Scenario.Corrupt { p = 1.0; max_bits = 1 } ])
  in
  let rejected = ref 0 in
  for seq = 0 to 63 do
    List.iter
      (fun { F.Netem.data; _ } ->
        match Packet.Codec.decode data with
        | Ok _ -> Alcotest.failf "single-bit flip on packet %d went undetected" seq
        | Error _ -> incr rejected)
      (F.Netem.tx_bytes netem (sample_datagram seq))
  done;
  Alcotest.(check int) "all flips counted" 64 (F.Netem.stats netem).F.Netem.corrupted;
  Alcotest.(check int) "all flips rejected" 64 !rejected

let test_truncate_all () =
  let netem =
    F.Netem.create ~seed:5 (F.Scenario.make ~name:"cut" [ F.Scenario.Truncate 1.0 ])
  in
  let original = sample_datagram 0 in
  List.iter
    (fun { F.Netem.data; _ } ->
      Alcotest.(check bool)
        "strictly shorter" true
        (Bytes.length data < Bytes.length original))
    (F.Netem.tx_bytes netem original);
  Alcotest.(check int) "counted" 1 (F.Netem.stats netem).F.Netem.truncated

let test_delay_bounds () =
  let netem =
    F.Netem.create ~seed:5
      (F.Scenario.make ~name:"slow"
         [ F.Scenario.Delay { p = 1.0; min_ns = 5_000; max_ns = 9_000 } ])
  in
  List.iter
    (fun d ->
      List.iter
        (fun { F.Netem.delay_ns; _ } ->
          Alcotest.(check bool)
            "delay within window" true
            (delay_ns >= 5_000 && delay_ns <= 9_000))
        (F.Netem.tx_bytes netem d))
    (List.init 20 sample_datagram);
  Alcotest.(check int) "all delayed" 20 (F.Netem.stats netem).F.Netem.delayed

let test_reorder_holdback_and_flush () =
  let scenario =
    F.Scenario.make ~name:"swap" [ F.Scenario.Reorder { p = 1.0; gap = 1 } ]
  in
  let netem = F.Netem.create ~seed:3 scenario in
  let first = F.Netem.tx_bytes netem (sample_datagram 0) in
  Alcotest.(check int) "first held back" 0 (List.length first);
  (* With p = 1 the second datagram is held in turn, and the send releases
     the first one behind it — the datagrams swap places on the wire. *)
  (match F.Netem.tx_bytes netem (sample_datagram 1) with
  | [ { F.Netem.data; _ } ] ->
      Alcotest.(check bool) "the released datagram is the first one" true
        (Bytes.equal data (sample_datagram 0))
  | out -> Alcotest.failf "expected exactly the released datagram, got %d" (List.length out));
  (* A held datagram with no subsequent sends comes out in the flush. *)
  let netem = F.Netem.create ~seed:3 scenario in
  ignore (F.Netem.tx_bytes netem (sample_datagram 0));
  Alcotest.(check int) "flush releases the tail" 1 (List.length (F.Netem.flush netem));
  Alcotest.(check int) "flush leaves nothing" 0 (List.length (F.Netem.flush netem))

let test_counters_attached () =
  let counters = Protocol.Counters.create () in
  let netem =
    F.Netem.create ~counters ~seed:9
      (F.Scenario.make ~name:"sink" [ F.Scenario.Drop_iid 1.0 ])
  in
  ignore (emissions_of netem (List.init 10 sample_datagram));
  Alcotest.(check int) "injections surfaced in counters" 10
    counters.Protocol.Counters.faults_injected

let test_tx_message_undecodable_callback () =
  let netem =
    F.Netem.create ~seed:13
      (F.Scenario.make ~name:"flip" [ F.Scenario.Corrupt { p = 1.0; max_bits = 1 } ])
  in
  let detected = ref 0 in
  let out =
    F.Netem.tx_message
      ~on_undecodable:(fun _ -> incr detected)
      netem
      (Packet.Message.ack ~transfer_id:1 ~seq:4 ~total:8)
  in
  Alcotest.(check int) "nothing decodable emitted" 0 (List.length out);
  Alcotest.(check int) "detection reported" 1 !detected

(* ------------------------------------------------ simulator integration *)

let sim_suites =
  [
    Protocol.Suite.Stop_and_wait;
    Protocol.Suite.Blast Protocol.Blast.Go_back_n;
    Protocol.Suite.Blast Protocol.Blast.Selective;
  ]

let test_simulator_scenarios () =
  (* Every suite x scenario over the simulated wire: the transfer must end
     (the driver would raise on a drained queue or spin past max_attempts),
     and a successful outcome must have delivered every payload intact. *)
  List.iter
    (fun suite ->
      List.iter
        (fun scenario ->
          let payload seq = Printf.sprintf "payload-%03d" seq in
          let config =
            Protocol.Config.make ~total_packets:12
              ~tuning:(Protocol.Tuning.fixed ~max_attempts:100 ())
              ()
          in
          let result =
            Simnet.Driver.run
              ~sender_faults:(F.Netem.create ~seed:21 scenario)
              ~receiver_faults:(F.Netem.create ~seed:22 scenario)
              ~suite ~config ~payload ()
          in
          let label =
            Protocol.Suite.name suite ^ "/" ^ F.Scenario.name scenario
          in
          match result.Simnet.Driver.outcome with
          | Protocol.Action.Success ->
              Alcotest.(check int)
                (label ^ " delivered all")
                12
                (List.length result.Simnet.Driver.received);
              List.iter
                (fun (seq, p) ->
                  Alcotest.(check string) (label ^ " payload intact") (payload seq) p)
                result.Simnet.Driver.received;
              (* Only the heavyweight scenario is guaranteed to have injected
                 something over a 12-packet transfer; a 2% dropper can
                 legitimately stay silent. *)
              if F.Scenario.name scenario = "chaos" then
                Alcotest.(check bool)
                  (label ^ " injections recorded")
                  true
                  (result.Simnet.Driver.sender.Protocol.Counters.faults_injected
                   + result.Simnet.Driver.receiver.Protocol.Counters.faults_injected
                   > 0)
          | Protocol.Action.Too_many_attempts | Protocol.Action.Peer_unreachable
          | Protocol.Action.Rejected ->
              (* Clean, bounded failure: acceptable under faults. *)
              ())
        F.Scenario.all)
    sim_suites

let test_simulator_clean_unaffected () =
  (* The clean scenario through the fault plumbing must behave exactly like
     no fault plumbing at all. *)
  let config = Protocol.Config.make ~total_packets:16 () in
  let suite = Protocol.Suite.Blast Protocol.Blast.Go_back_n in
  let plain = Simnet.Driver.run ~suite ~config () in
  let routed =
    Simnet.Driver.run
      ~sender_faults:(F.Netem.create ~seed:1 F.Scenario.clean)
      ~receiver_faults:(F.Netem.create ~seed:2 F.Scenario.clean)
      ~suite ~config ()
  in
  Alcotest.(check bool)
    "same outcome" true
    (plain.Simnet.Driver.outcome = routed.Simnet.Driver.outcome);
  Alcotest.(check bool)
    "same elapsed" true
    (Simnet.Driver.elapsed_ms plain = Simnet.Driver.elapsed_ms routed);
  Alcotest.(check int) "no injections" 0
    (routed.Simnet.Driver.sender.Protocol.Counters.faults_injected
    + routed.Simnet.Driver.receiver.Protocol.Counters.faults_injected)

(* --------------------------------------------------------- UDP no-hang *)

let test_sender_unreachable () =
  (* Nobody listening: the handshake must exhaust its attempts and return a
     clean [Peer_unreachable], quickly, instead of raising or blocking. *)
  let dead_socket, dead_address = Sockets.Udp.create_socket () in
  let sender_socket, _ = Sockets.Udp.create_socket () in
  Fun.protect
    ~finally:(fun () ->
      Sockets.Udp.close dead_socket;
      Sockets.Udp.close sender_socket)
    (fun () ->
      let result =
        Sockets.Peer.send
          ~ctx:
            (Sockets.Io_ctx.make
               ~tuning:
                 (Protocol.Tuning.fixed ~retransmit_ns:2_000_000 ~max_attempts:3 ())
               ())
          ~socket:sender_socket ~peer:dead_address ~suite:Protocol.Suite.Stop_and_wait
          ~data:"hello" ()
      in
      Alcotest.(check bool)
        "peer unreachable" true
        (result.Sockets.Peer.outcome = Protocol.Action.Peer_unreachable))

let test_receiver_watchdog () =
  (* A sender that completes the handshake and then dies: the receiver's
     idle watchdog must fire and [serve_one] must return a clean abort —
     this is the regression test for the receiver-hang bug. *)
  let receiver_socket, receiver_address = Sockets.Udp.create_socket () in
  let sender_socket, _ = Sockets.Udp.create_socket () in
  let result = ref None in
  let thread =
    Thread.create
      (fun () ->
        result :=
          Some
            (Sockets.Peer.serve_one
               ~ctx:
                 (Sockets.Io_ctx.make
                    ~tuning:
                      (Protocol.Tuning.fixed ~retransmit_ns:5_000_000 ~max_attempts:4 ())
                    ())
               ~idle_timeout_ns:30_000_000 ~accept_timeout_ns:2_000_000_000
               ~socket:receiver_socket ()))
      ()
  in
  let req =
    {
      (Packet.Message.req ~transfer_id:9 ~total:4) with
      Packet.Message.payload =
        Sockets.Suite_codec.encode ~packet_bytes:256 ~total_bytes:1024
          Protocol.Suite.Stop_and_wait;
    }
  in
  (* Hand-roll the handshake, then go silent. *)
  ignore (Sockets.Udp.send_message sender_socket receiver_address req : Sockets.Udp.send_outcome);
  Thread.join thread;
  Sockets.Udp.close receiver_socket;
  Sockets.Udp.close sender_socket;
  match !result with
  | None -> Alcotest.fail "serve_one did not return"
  | Some r ->
      Alcotest.(check bool)
        "clean abort" true
        (r.Sockets.Peer.receive_outcome = Protocol.Action.Peer_unreachable);
      Alcotest.(check string) "no data" "" r.Sockets.Peer.data

(* ------------------------------------------------------ UDP chaos soak *)

let soak_iters () =
  match Sys.getenv_opt "CHAOS_ITERS" with
  | Some v -> ( match int_of_string_opt v with Some n when n > 0 -> n | _ -> 1)
  | None -> 1

let soak_suites =
  [
    Protocol.Suite.Stop_and_wait;
    Protocol.Suite.Sliding_window { window = max_int };
    Protocol.Suite.Blast Protocol.Blast.Full_retransmit;
    Protocol.Suite.Blast Protocol.Blast.Full_retransmit_nack;
    Protocol.Suite.Blast Protocol.Blast.Go_back_n;
    Protocol.Suite.Blast Protocol.Blast.Selective;
    Protocol.Suite.Multi_blast { strategy = Protocol.Blast.Go_back_n; chunk_packets = 4 };
  ]

let test_chaos_soak () =
  (* The campaign: every protocol suite x every named scenario over real UDP
     loopback, one swarm per cell against the engine, the scenario on both
     sides. The swarm records every sender outcome and server completion in
     the delivery oracle DST checks (verified delivery or clean bounded
     failure — never a hang, never corrupt data); any breach is a bug. *)
  let flows = 2 * soak_iters () in
  let tuning = Protocol.Tuning.fixed ~retransmit_ns:8_000_000 ~max_attempts:30 () in
  List.iteri
    (fun i (suite, scenario) ->
      let seed = 2026 + i in
      let r =
        Server.Swarm.run ~flows ~bytes:6_000 ~packet_bytes:512 ~tuning ~suite ~scenario
          ~server_scenario:scenario ~seed ()
      in
      let label =
        Printf.sprintf "%s/%s (seed %d)" (Protocol.Suite.name suite)
          (F.Scenario.name scenario) seed
      in
      Alcotest.(check (list string))
        (label ^ ": oracle holds")
        [] r.Server.Swarm.violations;
      Alcotest.(check (list string))
        (label ^ ": engine invariants hold")
        [] r.Server.Swarm.invariants;
      (* The clean scenario must always complete outright. *)
      if F.Scenario.is_clean scenario then
        Alcotest.(check int) (label ^ ": clean completes") flows r.Server.Swarm.completed)
    (List.concat_map
       (fun suite -> List.map (fun scenario -> (suite, scenario)) F.Scenario.all)
       soak_suites)

let () =
  Alcotest.run "faults"
    [
      ( "scenario",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "validation" `Quick test_scenario_validation;
        ] );
      ( "netem",
        [
          Alcotest.test_case "deterministic replay" `Quick test_determinism;
          Alcotest.test_case "drop everything" `Quick test_drop_all;
          Alcotest.test_case "drop half, iid" `Quick test_drop_half;
          Alcotest.test_case "duplicate everything" `Quick test_duplicate_all;
          Alcotest.test_case "single-bit flips detected" `Quick
            test_corrupt_single_bit_always_detected;
          Alcotest.test_case "truncation" `Quick test_truncate_all;
          Alcotest.test_case "delay bounds" `Quick test_delay_bounds;
          Alcotest.test_case "reorder holdback and flush" `Quick
            test_reorder_holdback_and_flush;
          Alcotest.test_case "counters attached" `Quick test_counters_attached;
          Alcotest.test_case "undecodable callback" `Quick
            test_tx_message_undecodable_callback;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "all suites x scenarios" `Quick test_simulator_scenarios;
          Alcotest.test_case "clean scenario is a no-op" `Quick
            test_simulator_clean_unaffected;
        ] );
      ( "udp",
        [
          Alcotest.test_case "sender unreachable" `Quick test_sender_unreachable;
          Alcotest.test_case "receiver watchdog" `Quick test_receiver_watchdog;
          Alcotest.test_case "chaos soak" `Slow test_chaos_soak;
        ] );
    ]
