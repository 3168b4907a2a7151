(* Deterministic whole-system simulation: the memnet wire, and the full
   engine + swarm harness under virtual time.

   The memnet tests pin the wire semantics the DST harness depends on:
   latency-delayed delivery, close waking a parked reader, and in-flight
   datagrams landing on a rebound port (the address-reuse collision fuel).
   The harness tests run the entire system — a real [Server.Engine] and real
   [Sockets.Peer] senders — and assert the replay contract: same seed, same
   journal, bit for bit, at any parallelism. *)

module Sim = Eventsim.Sim
module Proc = Eventsim.Proc
module Time = Eventsim.Time
module Net = Memnet.Net

let default_latency_ns = 50_000

let in_sim ?(until = 1_000_000_000) f =
  let sim = Sim.create () in
  Proc.spawn (Proc.env sim) (fun () -> f sim);
  Sim.run ~until:(Time.of_ns until) sim;
  sim

(* ----------------------------------------------------------------- memnet *)

let test_memnet_delivery () =
  let got = ref None in
  ignore
    (in_sim (fun sim ->
         let net = Net.create ~sim ~seed:1 () in
         let a = Net.bind net and b = Net.bind net in
         (Net.transport a).Sockets.Transport.send ~peer:(Net.address b)
           ~on_outcome:ignore (Bytes.of_string "ping");
         match (Net.transport b).Sockets.Transport.recv ~timeout_ns:(Some 1_000_000) with
         | `Datagram { Sockets.Transport.buf; pos; len; from } ->
             got := Some (Bytes.sub_string buf pos len, from, Time.to_ns (Sim.now sim))
         | `Timeout -> ()));
  match !got with
  | None -> Alcotest.fail "datagram never delivered"
  | Some (payload, from, arrived_ns) ->
      Alcotest.(check string) "payload" "ping" payload;
      Alcotest.(check bool) "from sender's address" true (from = Unix.ADDR_INET (Unix.inet_addr_loopback, 40_000));
      Alcotest.(check int) "arrives after one propagation delay" default_latency_ns arrived_ns

let test_memnet_recv_timeout () =
  let result = ref None in
  ignore
    (in_sim (fun sim ->
         let net = Net.create ~sim ~seed:1 () in
         let a = Net.bind net in
         (match (Net.transport a).Sockets.Transport.recv ~timeout_ns:(Some 3_000_000) with
         | `Timeout -> result := Some (Time.to_ns (Sim.now sim))
         | `Datagram _ -> ())));
  match !result with
  | None -> Alcotest.fail "recv neither timed out nor returned"
  | Some ns -> Alcotest.(check int) "times out at the deadline" 3_000_000 ns

let test_memnet_close_wakes_reader () =
  let outcome = ref "pending" in
  ignore
    (in_sim (fun sim ->
         let net = Net.create ~sim ~seed:1 () in
         let victim = Net.bind net in
         ignore
           (Sim.schedule_at sim (Time.of_ns 2_000_000) (fun () -> Net.close victim)
             : Sim.handle);
         try
           match (Net.transport victim).Sockets.Transport.recv ~timeout_ns:None with
           | `Timeout -> outcome := "timeout"
           | `Datagram _ -> outcome := "datagram"
         with Net.Closed port -> outcome := Printf.sprintf "closed:%d" (port land 0xFFFF)));
  Alcotest.(check string) "parked reader raises Closed" "closed:40000" !outcome

let test_memnet_port_reuse_receives_in_flight () =
  (* A datagram launched at the old binding lands on whoever holds the port
     when it arrives — the ambiguity the churn reuse scenario feeds on. *)
  let got = ref None in
  ignore
    (in_sim (fun sim ->
         let net = Net.create ~sim ~seed:1 () in
         let a = Net.bind net in
         let victim = Net.bind net in
         let port = Net.port victim in
         (Net.transport a).Sockets.Transport.send ~peer:(Net.address victim)
           ~on_outcome:ignore (Bytes.of_string "stale");
         Net.close victim;
         let replacement = Net.bind ~port net in
         match
           (Net.transport replacement).Sockets.Transport.recv
             ~timeout_ns:(Some 1_000_000)
         with
         | `Datagram { Sockets.Transport.buf; pos; len; _ } ->
             got := Some (Bytes.sub_string buf pos len)
         | `Timeout -> ()));
  Alcotest.(check (option string)) "rebound port receives it" (Some "stale") !got

(* ---------------------------------------------------- engine over memnet *)

let req_message ~transfer_id ~packet_bytes ~total_bytes ~data_crc =
  let total_packets = (total_bytes + packet_bytes - 1) / packet_bytes in
  {
    (Packet.Message.req ~transfer_id ~total:total_packets) with
    Packet.Message.payload =
      Sockets.Suite_codec.encode ~data_crc ~packet_bytes ~total_bytes
        (Protocol.Suite.Blast Protocol.Blast.Go_back_n);
  }

(* Address reuse at the engine: a second REQ on the same (address, id) with
   different geometry supersedes the stale flow; an identical duplicate REQ
   only re-acks. *)
let test_engine_supersede_on_address_reuse () =
  let sim = Sim.create () in
  let net = Net.create ~sim ~seed:3 () in
  let server_ep = Net.bind ~port:7_000 net in
  let clock () = Time.to_ns (Sim.now sim) in
  let engine =
    Server.Engine.create ~max_flows:4
      ~ctx:
        (Sockets.Io_ctx.make ~clock
           ~tuning:
             (Protocol.Tuning.fixed ~retransmit_ns:5_000_000 ~max_attempts:3 ())
           ())
      ~transport:(Net.transport server_ep) ()
  in
  let env = Proc.env sim in
  Proc.spawn env (fun () -> Server.Engine.run engine);
  Proc.spawn env (fun () ->
      let ep = Net.bind ~port:6_000 net in
      let send m =
        (Net.transport ep).Sockets.Transport.send ~peer:(Net.address server_ep)
          ~on_outcome:ignore
          (Packet.Codec.encode m)
      in
      let original = req_message ~transfer_id:1 ~packet_bytes:512 ~total_bytes:2_048 ~data_crc:11l in
      send original;
      Proc.sleep (Time.span_ns 1_000_000);
      (* The same REQ again: a retransmitted handshake, not a new sender. *)
      send original;
      Proc.sleep (Time.span_ns 1_000_000);
      (* Same address, same id, different payload: a new process on the
         reused port. *)
      send (req_message ~transfer_id:1 ~packet_bytes:512 ~total_bytes:4_096 ~data_crc:99l);
      Proc.sleep (Time.span_ns 5_000_000);
      Alcotest.(check (list string))
        "engine invariants hold mid-churn" []
        (Server.Engine.invariant_violations engine);
      Server.Engine.stop engine);
  Sim.run ~until:(Time.of_ns 1_000_000_000) sim;
  let t = Server.Engine.totals engine in
  Alcotest.(check int) "duplicate REQ does not supersede; new geometry does" 1
    t.Server.Engine.superseded;
  Alcotest.(check int) "both incarnations admitted" 2 t.Server.Engine.accepted;
  Alcotest.(check int) "both settled as aborts" 2 t.Server.Engine.aborted;
  Alcotest.(check (list string))
    "engine invariants hold after shutdown" []
    (Server.Engine.invariant_violations engine)

(* The hand-over: [on_complete] fires once per admitted flow — for a
   verified success at verification, carrying the bytes, while the flow
   itself lingers holding none — and a lingering flow settled by supersede
   or shutdown does not fire again. Totals move at linger end, and the
   manifest counts a lingering stripe from the REQ's declared size and CRC.
   Real senders over memnet, so every instant is exact virtual time. *)
let test_engine_hands_over_at_verification () =
  let sim = Sim.create () in
  let net = Net.create ~sim ~seed:5 () in
  let server_ep = Net.bind ~port:7_000 net in
  let clock () = Time.to_ns (Sim.now sim) in
  let retransmit_ns = 5_000_000 in
  let linger_ns = 3 * retransmit_ns in
  let tuning = Protocol.Tuning.fixed ~retransmit_ns ~max_attempts:3 () in
  let events = ref [] in
  let engine =
    Server.Engine.create ~max_flows:4
      ~ctx:(Sockets.Io_ctx.make ~clock ~tuning ())
      ~on_complete:(fun e -> events := e :: !events)
      ~transport:(Net.transport server_ep) ()
  in
  let fired ~port ~id =
    List.filter
      (fun (e : Server.Engine.completion_event) ->
        e.Server.Engine.peer = Unix.ADDR_INET (Unix.inet_addr_loopback, port)
        && e.Server.Engine.completion.Sockets.Flow.transfer_id = id)
      (List.rev !events)
  in
  let payload seed = String.init 4_096 (fun i -> Char.chr ((i * seed) land 0xFF)) in
  let send ?stripe ~port ~id data =
    let ep = Net.bind ~port net in
    let result =
      Sockets.Peer.send_via
        ~ctx:(Sockets.Io_ctx.make ~clock ~tuning ())
        ~transfer_id:id ~packet_bytes:512 ?stripe ~transport:(Net.transport ep)
        ~peer:(Net.address server_ep)
        ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n) ~data ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "transfer %d succeeds" id)
      true
      (result.Sockets.Peer.outcome = Protocol.Action.Success);
    ep
  in
  let verified_once label ~port ~id data =
    match fired ~port ~id with
    | [ e ] ->
        let c = e.Server.Engine.completion in
        Alcotest.(check bool) (label ^ ": verified success") true
          (c.Sockets.Flow.outcome = Protocol.Action.Success
          && c.Sockets.Flow.integrity = Sockets.Flow.Verified);
        Alcotest.(check bool) (label ^ ": carries the bytes") true
          (String.equal data c.Sockets.Flow.data);
        e
    | l -> Alcotest.failf "%s: on_complete fired %d times" label (List.length l)
  in
  let check_verified_once label ~port ~id data =
    ignore (verified_once label ~port ~id data : Server.Engine.completion_event)
  in
  let totals () = Server.Engine.totals engine in
  let env = Proc.env sim in
  Proc.spawn env (fun () -> Server.Engine.run engine);
  Proc.spawn env (fun () ->
      (* A: a striped success, followed through its linger. *)
      let data_a = payload 7 in
      let stripe = { Packet.Stripe.object_id = 1; index = 0; count = 2 } in
      ignore (send ~stripe ~port:6_001 ~id:1 data_a : Net.endpoint);
      let a = verified_once "lingering A" ~port:6_001 ~id:1 data_a in
      Alcotest.(check bool) "A fired no later than the sender finished" true
        (a.Server.Engine.finished_ns <= clock ());
      Alcotest.(check int) "A still lingers" 1 (Server.Engine.active_flows engine);
      Alcotest.(check int) "A not yet counted completed" 0
        (totals ()).Server.Engine.completed;
      let expected_entry =
        { Packet.Stripe.stripe; bytes = 4_096; crc = Packet.Checksum.crc32_string data_a }
      in
      let same_entries l =
        List.length l = 1
        && List.for_all2
             (fun (x : Packet.Stripe.entry) (y : Packet.Stripe.entry) ->
               Packet.Stripe.equal x.Packet.Stripe.stripe y.Packet.Stripe.stripe
               && x.Packet.Stripe.bytes = y.Packet.Stripe.bytes
               && x.Packet.Stripe.crc = y.Packet.Stripe.crc)
             l [ expected_entry ]
      in
      Alcotest.(check bool) "manifest counts the lingering stripe" true
        (same_entries (Server.Engine.manifest engine ~object_id:1));
      Proc.sleep (Time.span_ns (linger_ns + 1_000_000));
      Alcotest.(check int) "A counted at linger end" 1 (totals ()).Server.Engine.completed;
      Alcotest.(check int) "A left the table" 0 (Server.Engine.active_flows engine);
      Alcotest.(check bool) "linger ended after the hand-over" true
        (clock () - a.Server.Engine.finished_ns >= linger_ns);
      check_verified_once "settled A" ~port:6_001 ~id:1 data_a;
      Alcotest.(check bool) "manifest keeps the settled stripe" true
        (same_entries (Server.Engine.manifest engine ~object_id:1));
      (* B: superseded mid-linger by a REQ with new geometry. *)
      let data_b = payload 11 in
      let ep_b = send ~port:6_002 ~id:2 data_b in
      check_verified_once "lingering B" ~port:6_002 ~id:2 data_b;
      (Net.transport ep_b).Sockets.Transport.send ~peer:(Net.address server_ep)
        ~on_outcome:ignore
        (Packet.Codec.encode
           (req_message ~transfer_id:2 ~packet_bytes:512 ~total_bytes:8_192 ~data_crc:3l));
      Proc.sleep (Time.span_ns 1_000_000);
      Alcotest.(check int) "B superseded" 1 (totals ()).Server.Engine.superseded;
      Alcotest.(check int) "superseding B fires nothing new" 1
        (List.length (fired ~port:6_002 ~id:2));
      (* C: force-settled at shutdown while lingering. *)
      let data_c = payload 13 in
      ignore (send ~port:6_003 ~id:3 data_c : Net.endpoint);
      check_verified_once "lingering C" ~port:6_003 ~id:3 data_c;
      Server.Engine.stop engine);
  Sim.run ~until:(Time.of_ns 1_000_000_000) sim;
  let t = totals () in
  Alcotest.(check int) "four flows admitted" 4 t.Server.Engine.accepted;
  Alcotest.(check int) "on_complete once per admitted flow" t.Server.Engine.accepted
    (List.length !events);
  Alcotest.(check int) "A, B and C completed" 3 t.Server.Engine.completed;
  Alcotest.(check int) "B's successor force-settled" 1 t.Server.Engine.aborted;
  check_verified_once "shut-down C" ~port:6_003 ~id:3 (payload 13);
  (match fired ~port:6_002 ~id:2 with
  | [ first; second ] ->
      Alcotest.(check bool) "B's successor fired once, without data" true
        (second.Server.Engine.completion.Sockets.Flow.outcome <> Protocol.Action.Success
        && second.Server.Engine.completion.Sockets.Flow.data = ""
        && first.Server.Engine.completion.Sockets.Flow.outcome = Protocol.Action.Success)
  | l -> Alcotest.failf "address (6002, 2) fired %d times, expected 2" (List.length l));
  Alcotest.(check (list string))
    "engine invariants hold after shutdown" []
    (Server.Engine.invariant_violations engine)

(* An engine's flows share its flight recorder, so a flow that aborts must
   not dump it: the ring is exported whole at exit, and the engine dumps on
   its own only at an invariant violation. One REQ, then silence: the
   flow's idle watchdog aborts it, and the configured dump path stays
   unwritten. *)
let test_engine_abort_writes_no_dump () =
  let path = Filename.temp_file "dst_engine_flight" ".jsonl" in
  Sys.remove path;
  let sim = Sim.create () in
  let net = Net.create ~sim ~seed:7 () in
  let server_ep = Net.bind ~port:7_000 net in
  let clock () = Time.to_ns (Sim.now sim) in
  let recorder = Obs.Recorder.create ~postmortem:path () in
  let engine =
    Server.Engine.create ~max_flows:4
      ~ctx:
        (Sockets.Io_ctx.make ~clock ~recorder
           ~tuning:(Protocol.Tuning.fixed ~retransmit_ns:5_000_000 ~max_attempts:3 ())
           ())
      ~transport:(Net.transport server_ep) ()
  in
  let env = Proc.env sim in
  Proc.spawn env (fun () -> Server.Engine.run engine);
  Proc.spawn env (fun () ->
      let ep = Net.bind ~port:6_000 net in
      (Net.transport ep).Sockets.Transport.send ~peer:(Net.address server_ep)
        ~on_outcome:ignore
        (Packet.Codec.encode
           (req_message ~transfer_id:1 ~packet_bytes:512 ~total_bytes:2_048 ~data_crc:11l));
      Proc.sleep (Time.span_ns 100_000_000);
      Server.Engine.stop engine);
  Sim.run ~until:(Time.of_ns 1_000_000_000) sim;
  let t = Server.Engine.totals engine in
  Alcotest.(check int) "the silent sender's flow aborted" 1 t.Server.Engine.aborted;
  Alcotest.(check bool) "the ring recorded the flow" true (Obs.Recorder.total recorder > 0);
  let dumped = Sys.file_exists path in
  if dumped then Sys.remove path;
  Alcotest.(check bool) "no flight dump written" false dumped

(* ------------------------------------------------------------ whole system *)

let config ~seed ~churn ~faults ~senders ~transfers =
  {
    (Dst.Harness.default_config ~seed) with
    Dst.Harness.churn;
    faults;
    senders;
    transfers;
  }

let test_dst_clean_steady () =
  let cfg = config ~seed:41 ~churn:Dst.Harness.Steady ~faults:None ~senders:4 ~transfers:2 in
  let t = Dst.Harness.run cfg in
  Alcotest.(check (list string)) "no violations" [] t.Dst.Harness.violations;
  Alcotest.(check int) "every transfer attempted" 8 t.Dst.Harness.attempted;
  Alcotest.(check int) "every transfer completed" 8 t.Dst.Harness.completed;
  Alcotest.(check int) "server agrees" 8 t.Dst.Harness.server_completed

let test_dst_all_churns_uphold_invariants () =
  List.iter
    (fun churn ->
      let cfg =
        config ~seed:17 ~churn ~faults:(Some Faults.Scenario.chaos) ~senders:8 ~transfers:2
      in
      let t = Dst.Harness.run cfg in
      Alcotest.(check (list string))
        (Printf.sprintf "no violations under %s churn" (Dst.Harness.churn_name churn))
        [] t.Dst.Harness.violations)
    Dst.Harness.all_churns

let test_dst_full_scale_chaos () =
  let cfg =
    config ~seed:7 ~churn:Dst.Harness.Mixed ~faults:(Some Faults.Scenario.chaos) ~senders:16
      ~transfers:3
  in
  let t = Dst.Harness.run cfg in
  Alcotest.(check (list string)) "no violations" [] t.Dst.Harness.violations;
  Alcotest.(check bool) "most transfers complete" true
    (t.Dst.Harness.completed * 2 > t.Dst.Harness.attempted)

let test_dst_replay_bit_for_bit () =
  let cfg =
    config ~seed:23 ~churn:Dst.Harness.Mixed ~faults:(Some Faults.Scenario.chaos) ~senders:8
      ~transfers:2
  in
  let a = Dst.Harness.run cfg and b = Dst.Harness.run cfg in
  Alcotest.(check string) "identical journals" a.Dst.Harness.journal b.Dst.Harness.journal;
  Alcotest.(check string) "identical digests" a.Dst.Harness.digest b.Dst.Harness.digest

let test_dst_jobs_invariant () =
  let cfg =
    config ~seed:1 ~churn:Dst.Harness.Mixed ~faults:(Some Faults.Scenario.chaos) ~senders:6
      ~transfers:2
  in
  let seeds = [ 1; 2; 3; 4 ] in
  let digests jobs =
    List.map
      (fun (t : Dst.Harness.trial) -> t.Dst.Harness.digest)
      (Dst.Harness.run_seeds ~jobs cfg ~seeds)
  in
  Alcotest.(check (list string)) "same digests at jobs=1 and jobs=4" (digests 1) (digests 4)

let test_dst_adaptive_jobs_invariant () =
  (* The AIMD controller is pure arithmetic over the event stream, so the
     whole-system journal must stay bit-for-bit reproducible at any
     parallelism with adaptive tuning too — budgets, train ramps, lossy
     faults and all. *)
  let cfg =
    {
      (config ~seed:11 ~churn:Dst.Harness.Mixed ~faults:(Some Faults.Scenario.lossy2)
         ~senders:6 ~transfers:2)
      with
      Dst.Harness.tuning =
        Protocol.Tuning.adaptive ~retransmit_ns:20_000_000 ~max_attempts:20 ();
    }
  in
  let seeds = [ 11; 12; 13 ] in
  let digests jobs =
    List.map
      (fun (t : Dst.Harness.trial) -> t.Dst.Harness.digest)
      (Dst.Harness.run_seeds ~jobs cfg ~seeds)
  in
  Alcotest.(check (list string)) "same digests at jobs=1 and jobs=4" (digests 1) (digests 4);
  let a = Dst.Harness.run cfg and b = Dst.Harness.run cfg in
  Alcotest.(check string) "adaptive replay is bit-for-bit" a.Dst.Harness.journal
    b.Dst.Harness.journal

let test_dst_reuse_exercises_supersede () =
  (* Across a handful of seeds the reuse schedule must hit the engine's
     supersede path at least once — otherwise the scenario is dead weight. *)
  let total =
    List.fold_left
      (fun acc seed ->
        let cfg =
          config ~seed ~churn:Dst.Harness.Reuse ~faults:(Some Faults.Scenario.chaos)
            ~senders:8 ~transfers:2
        in
        let t = Dst.Harness.run cfg in
        Alcotest.(check (list string)) "no violations" [] t.Dst.Harness.violations;
        acc + t.Dst.Harness.superseded)
      0
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Alcotest.(check bool) "supersede path exercised" true (total > 0)

(* The suite axis found false successes on reused (address, id) pairs: a
   stop-and-wait replacement took its victim's delayed final ACK as its own
   and reported success with elapsed 0, while the engine never verified its
   bytes. Seed 3 under reuse churn is that trial. *)
let test_dst_reuse_stale_ack_is_not_success () =
  let cfg =
    {
      (Dst.Harness.default_config ~seed:3) with
      Dst.Harness.churn = Dst.Harness.Reuse;
      suites = [ Protocol.Suite.Stop_and_wait ];
    }
  in
  let t = Dst.Harness.run cfg in
  Alcotest.(check (list string)) "no violations" [] t.Dst.Harness.violations;
  Alcotest.(check bool) "the header names the suite axis" true
    (Str_exists.contains_substring t.Dst.Harness.journal " suites=stop-and-wait\n")

let seven_suites =
  [
    Protocol.Suite.Stop_and_wait;
    Protocol.Suite.Sliding_window { window = max_int };
    Protocol.Suite.Blast Protocol.Blast.Full_retransmit;
    Protocol.Suite.Blast Protocol.Blast.Full_retransmit_nack;
    Protocol.Suite.Blast Protocol.Blast.Go_back_n;
    Protocol.Suite.Blast Protocol.Blast.Selective;
    Protocol.Suite.Multi_blast { strategy = Protocol.Blast.Go_back_n; chunk_packets = 4 };
  ]

let test_dst_rejects_empty_suites () =
  let cfg = { (Dst.Harness.default_config ~seed:1) with Dst.Harness.suites = [] } in
  Alcotest.check_raises "empty suite axis"
    (Invalid_argument "Dst: suites must not be empty")
    (fun () -> ignore (Dst.Harness.run cfg : Dst.Harness.trial))

(* Every configuration no trial can run is refused up front by
   [Harness.validate], one message per check; the CLI turns each into a
   usage error. The ring's churn and shard refusals live with the ring
   tests. *)
let refusals =
  let d = Dst.Harness.default_config ~seed:1 in
  let ring r = { (Dst.Harness.ring_config ~seed:1) with Dst.Harness.workload = Ring r } in
  let r = Dst.Harness.default_ring in
  [
    ("zero horizon", { d with Dst.Harness.horizon_ns = 0 }, "horizon must be positive");
    ("zero shards", { d with Dst.Harness.shards = 0 }, "shards must be positive");
    ("negative max_flows", { d with Dst.Harness.max_flows = -1 }, "max_flows must not be negative");
    ("zero senders", { d with Dst.Harness.senders = 0 }, "senders must be positive");
    ("zero transfers", { d with Dst.Harness.transfers = 0 }, "transfers must be positive");
    ("empty size range", { d with Dst.Harness.bytes_max = 1024 }, "bad transfer size range");
    ("one ring member", ring { r with Dst.Harness.servers = 1 }, "ring needs at least 2 servers");
    ("no stripes", ring { r with Dst.Harness.stripes = 0 }, "ring stripes must be positive");
    ( "more replicas than members",
      ring { r with Dst.Harness.replicas = 6 },
      "ring needs 0 < replicas <= servers" );
    ("zero quorum", ring { r with Dst.Harness.quorum = 0 }, "ring needs 0 < quorum <= replicas");
    ( "quorum the kill breaks",
      ring { r with Dst.Harness.quorum = 3 },
      "ring quorum must survive one death (quorum <= replicas - 1)" );
    ( "fewer bytes than stripes",
      ring { r with Dst.Harness.object_bytes = 7 },
      "ring object has fewer bytes than stripes" );
  ]

let refusal_case (label, cfg, message) =
  Alcotest.test_case (label ^ " is refused") `Quick (fun () ->
      Alcotest.check_raises label (Invalid_argument ("Dst: " ^ message)) (fun () ->
          ignore (Dst.Harness.run cfg : Dst.Harness.trial)))

(* Golden digests: the journal and flowtrace MD5s of fixed trials, pinned
   so a refactor of the engine or its hosts has to replay them byte for
   byte, not just against itself. The flowtrace digest catches a changed
   trace lane even where the journal stays equal. *)
let golden_trials =
  let default = Dst.Harness.default_config ~seed:1 in
  [
    ( "default",
      default,
      [
        (1, "56572f9319c6129b1398ac51f51e4809", "a813ddc5d42a5b6d58f8cc56cd90026a");
        (2, "27f2fdb67cca7dbc342218c5c5e404ce", "05d92c5a2977e64235cc0c5d72c36df3");
        (3, "a4375829a5d55410e242a4e3f5b2e358", "fb1ebb2b839dfda87d7ce2a3ec4d2e36");
        (4, "1810cdac4e9dabab418c005365b94117", "53227e974f762d58ed62ff10a6821e7a");
        (5, "abc7ffe837b175f8b68443711112a979", "5ce955cf422c8756c48de323bed661b0");
      ] );
    ( "shards4",
      { default with Dst.Harness.shards = 4 },
      [
        (500, "9b7f14250eeec03cb22e0dc47faf88f9", "fb011d853fdd7f56ccb2452b185eb733");
        (501, "cab94b970fba3563a3717abaa7fd1ada", "09271fd5340f6b4ad4c98596389d6fb7");
        (502, "2443833f0fb629c1c10904464dc9761a", "a47190deedba1f4a5c7a2364ea7fc9c2");
      ] );
    ( "adaptive",
      {
        default with
        Dst.Harness.faults = Some Faults.Scenario.lossy2;
        tuning = Protocol.Tuning.adaptive ~retransmit_ns:20_000_000 ~max_attempts:20 ();
      },
      [
        (2000, "67361e004bd52c3523651323df2a2503", "705edae4bb2ef83530cb06a0cd7b59b8");
        (2001, "8e17ce4c67e6dc99acec804d53e6982b", "a6c145f9887dd092a1e8778d28829c4e");
        (2002, "282811be0993b4ceb6188e9a52f3ac3c", "bb12da1d99a1e0121001bd8a68fdfe34");
      ] );
    ( "seven-suites",
      { default with Dst.Harness.suites = seven_suites },
      [
        (3000, "238f3bffab1a351cc9e3eaca78717b8f", "9e20895740956ea3485e5a4ccfefe565");
        (3001, "8c2d30370ba35c920922f847b6855b52", "565901001a933205b47db58f78893d1a");
        (3002, "928f088a71fedfb2d6a58163dd93f257", "cb7fd106aa2d8077f3845aca23c85b6a");
      ] );
  ]

let test_dst_golden_digests () =
  List.iter
    (fun (name, cfg, pins) ->
      let trials = Dst.Harness.run_seeds ~jobs:1 cfg ~seeds:(List.map (fun (s, _, _) -> s) pins) in
      List.iter2
        (fun (seed, journal, flowtrace) (t : Dst.Harness.trial) ->
          Alcotest.(check string) (Printf.sprintf "%s seed %d journal" name seed) journal
            t.Dst.Harness.digest;
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d flowtrace" name seed)
            flowtrace
            (Digest.to_hex (Digest.string t.Dst.Harness.flowtrace)))
        pins trials)
    golden_trials

(* ------------------------------------------------------------ client loop *)

let go_back_n = Protocol.Suite.Blast Protocol.Blast.Go_back_n

let transfer ?(suite = go_back_n) ~peer ~id bytes =
  {
    Sockets.Peer.peer;
    transfer_id = id;
    stripe = None;
    suite;
    data = String.init bytes (fun i -> Char.chr ((i * id) land 0xFF));
  }

(* Three flows on one client loop: two to engine A — one of them a long
   stop-and-wait exchange, a datagram from A every round trip for ~100 ms —
   and one to engine B, which dies just before the client's first DATA to
   it. B's flow has its ACK and nothing after it, so its idle watchdog must
   trip on time, however busy A keeps the shared endpoint. *)
let test_client_loop_dead_peer_trips_watchdog () =
  let sim = Sim.create () in
  let net = Net.create ~sim ~seed:3 () in
  let clock () = Time.to_ns (Sim.now sim) in
  let tuning = Protocol.Tuning.fixed ~retransmit_ns:50_000_000 () in
  let ctx = Sockets.Io_ctx.make ~clock ~tuning () in
  let env = Proc.env sim in
  let engine port =
    let ep = Net.bind ~port net in
    let e = Server.Engine.create ~ctx ~transport:(Net.transport ep) () in
    Proc.spawn env (fun () ->
        Server.Engine.run e;
        Net.close ep);
    (e, Net.address ep)
  in
  let a, a_addr = engine 7_401 and b, b_addr = engine 7_402 in
  let idle_timeout_ns = 20_000_000 in
  let results = ref [] in
  Proc.spawn env (fun () ->
      let ep = Net.bind net in
      let transport = Net.transport ep in
      let to_b = ref 0 in
      let send ~peer ~on_outcome bytes =
        if peer = b_addr then begin
          incr to_b;
          if !to_b = 2 then Server.Engine.stop b
        end;
        transport.Sockets.Transport.send ~peer ~on_outcome bytes
      in
      results :=
        Sockets.Peer.send_all_via ~ctx ~packet_bytes:64 ~idle_timeout_ns
          ~transport:{ transport with Sockets.Transport.send }
          [
            transfer ~suite:Protocol.Suite.Stop_and_wait ~peer:a_addr ~id:1 64_000;
            transfer ~peer:a_addr ~id:2 4_096;
            transfer ~peer:b_addr ~id:3 64_000;
          ];
      Server.Engine.stop a);
  Sim.run ~until:(Time.of_ns 5_000_000_000) sim;
  match !results with
  | [ long; short; dead ] ->
      let ok label (r : Sockets.Peer.send_result) =
        Alcotest.(check bool) label true (r.Sockets.Peer.outcome = Protocol.Action.Success)
      in
      ok "A's stop-and-wait flow succeeds" long;
      ok "A's blast succeeds" short;
      Alcotest.(check bool) "B's flow is unreachable" true
        (dead.Sockets.Peer.outcome = Protocol.Action.Peer_unreachable);
      Alcotest.(check int) "B's watchdog trips one idle timeout after its ACK"
        idle_timeout_ns dead.Sockets.Peer.elapsed_ns;
      Alcotest.(check bool) "A stayed busy past B's watchdog" true
        (long.Sockets.Peer.elapsed_ns > 2 * idle_timeout_ns)
  | l -> Alcotest.failf "expected 3 results, got %d" (List.length l)

(* Peer P answers its first REQ with a datagram under an id no flow owns;
   peer Q never answers. The stray reaches both of P's flows, each losing a
   handshake attempt to it, and none of Q's. *)
let test_client_loop_unowned_id_stays_with_its_source () =
  let sim = Sim.create () in
  let net = Net.create ~sim ~seed:4 () in
  let clock () = Time.to_ns (Sim.now sim) in
  let retransmit_ns = 5_000_000 and max_attempts = 4 in
  let tuning = Protocol.Tuning.fixed ~retransmit_ns ~max_attempts () in
  let ctx = Sockets.Io_ctx.make ~clock ~tuning () in
  let env = Proc.env sim in
  let p = Net.bind ~port:7_411 net and q = Net.bind ~port:7_412 net in
  let reqs = Hashtbl.create 2 in
  let listen ep ~answer =
    Proc.spawn env (fun () ->
        let transport = Net.transport ep in
        let rec serve () =
          match transport.Sockets.Transport.recv ~timeout_ns:None with
          | `Timeout -> serve ()
          | `Datagram { Sockets.Transport.from; _ } ->
              let port = Net.port ep in
              let seen = 1 + Option.value ~default:0 (Hashtbl.find_opt reqs port) in
              Hashtbl.replace reqs port seen;
              if answer && seen = 1 then
                transport.Sockets.Transport.send ~peer:from ~on_outcome:ignore
                  (Packet.Codec.encode
                     (Packet.Message.ack ~transfer_id:99 ~seq:0 ~total:1));
              serve ()
        in
        try serve () with Net.Closed _ -> ())
  in
  listen p ~answer:true;
  listen q ~answer:false;
  let results = ref [] in
  Proc.spawn env (fun () ->
      let ep = Net.bind net in
      results :=
        Sockets.Peer.send_all_via ~ctx ~transport:(Net.transport ep)
          [
            transfer ~peer:(Net.address p) ~id:1 2_048;
            transfer ~peer:(Net.address q) ~id:2 2_048;
            transfer ~peer:(Net.address p) ~id:3 2_048;
          ];
      Net.close p;
      Net.close q);
  Sim.run ~until:(Time.of_ns 1_000_000_000) sim;
  let full = max_attempts * retransmit_ns in
  match !results with
  | [ p1; q2; p3 ] ->
      List.iter
        (fun (label, (r : Sockets.Peer.send_result)) ->
          Alcotest.(check bool) (label ^ " is unreachable") true
            (r.Sockets.Peer.outcome = Protocol.Action.Peer_unreachable))
        [ ("P's first flow", p1); ("Q's flow", q2); ("P's second flow", p3) ];
      Alcotest.(check int) "Q's flow spends every attempt on its own timer" full
        q2.Sockets.Peer.elapsed_ns;
      Alcotest.(check bool) "P's first flow lost an attempt to the stray" true
        (p1.Sockets.Peer.elapsed_ns < full - (retransmit_ns / 2));
      Alcotest.(check bool) "P's second flow lost an attempt to the stray" true
        (p3.Sockets.Peer.elapsed_ns < full - (retransmit_ns / 2));
      Alcotest.(check int) "Q saw one REQ per attempt" max_attempts
        (Hashtbl.find reqs (Net.port q))
  | l -> Alcotest.failf "expected 3 results, got %d" (List.length l)

let () =
  Alcotest.run "dst"
    [
      ( "memnet",
        [
          Alcotest.test_case "latency-delayed delivery" `Quick test_memnet_delivery;
          Alcotest.test_case "recv timeout" `Quick test_memnet_recv_timeout;
          Alcotest.test_case "close wakes parked reader" `Quick test_memnet_close_wakes_reader;
          Alcotest.test_case "rebound port receives in-flight" `Quick
            test_memnet_port_reuse_receives_in_flight;
        ] );
      ( "engine",
        [
          Alcotest.test_case "supersede on address reuse" `Quick
            test_engine_supersede_on_address_reuse;
          Alcotest.test_case "hands the payload over at verification" `Quick
            test_engine_hands_over_at_verification;
          Alcotest.test_case "an aborted flow writes no flight dump" `Quick
            test_engine_abort_writes_no_dump;
        ] );
      ( "whole-system",
        [
          Alcotest.test_case "clean steady run" `Quick test_dst_clean_steady;
          Alcotest.test_case "every churn scenario" `Quick test_dst_all_churns_uphold_invariants;
          Alcotest.test_case "16 senders under mixed chaos" `Quick test_dst_full_scale_chaos;
          Alcotest.test_case "replay is bit-for-bit" `Quick test_dst_replay_bit_for_bit;
          Alcotest.test_case "digests invariant under jobs" `Quick test_dst_jobs_invariant;
          Alcotest.test_case "adaptive tuning stays deterministic" `Quick
            test_dst_adaptive_jobs_invariant;
          Alcotest.test_case "reuse churn hits supersede" `Quick
            test_dst_reuse_exercises_supersede;
          Alcotest.test_case "a stale ACK on a reused address is no success" `Quick
            test_dst_reuse_stale_ack_is_not_success;
          Alcotest.test_case "an empty suite axis is refused" `Quick
            test_dst_rejects_empty_suites;
          Alcotest.test_case "journals match golden digests" `Quick test_dst_golden_digests;
        ] );
      ( "client loop",
        [
          Alcotest.test_case "a dead peer's flow trips its watchdog" `Quick
            test_client_loop_dead_peer_trips_watchdog;
          Alcotest.test_case "an unowned id stays with its source's flows" `Quick
            test_client_loop_unowned_id_stays_with_its_source;
        ] );
      ("validate", List.map refusal_case refusals);
    ]
