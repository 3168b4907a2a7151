(* Tests for the extension features: adaptive retransmission (Rtt),
   end-to-end data integrity, and protocol robustness to reordering. *)

(* ------------------------------------------------------------------ Rtt *)

let test_rtt_initial_timeout () =
  let r = Protocol.Rtt.create ~initial_ns:50_000_000 () in
  Alcotest.(check int) "initial" 50_000_000 (Protocol.Rtt.timeout_ns r);
  Alcotest.(check int) "no samples" 0 (Protocol.Rtt.samples r);
  Alcotest.(check bool) "no srtt" true (Protocol.Rtt.srtt_ns r = None)

let test_rtt_converges_to_constant_rtt () =
  let r = Protocol.Rtt.create ~initial_ns:50_000_000 () in
  for _ = 1 to 50 do
    Protocol.Rtt.observe r ~sample_ns:2_000_000
  done;
  (match Protocol.Rtt.srtt_ns r with
  | Some srtt -> Alcotest.(check bool) "srtt ~ sample" true (abs (srtt - 2_000_000) < 10_000)
  | None -> Alcotest.fail "no srtt");
  (* With zero jitter the deviation decays, so the timeout approaches the
     RTT itself (floored at the 1 ms minimum). *)
  Alcotest.(check bool) "timeout near rtt" true (Protocol.Rtt.timeout_ns r < 3_000_000)

let test_rtt_tracks_variance () =
  let r = Protocol.Rtt.create ~initial_ns:50_000_000 () in
  let rng = Stats.Rng.create ~seed:41 in
  for _ = 1 to 200 do
    Protocol.Rtt.observe r
      ~sample_ns:(2_000_000 + Stats.Rng.int rng 2_000_000)
  done;
  let timeout = Protocol.Rtt.timeout_ns r in
  (* Mean ~3 ms, deviation ~0.5 ms: timeout should sit above the max
     plausible RTT but far below the initial 50 ms. *)
  Alcotest.(check bool)
    (Printf.sprintf "timeout %d ns sensible" timeout)
    true
    (timeout > 3_000_000 && timeout < 12_000_000)

let test_rtt_backoff_and_reset () =
  let r = Protocol.Rtt.create ~initial_ns:10_000_000 () in
  Protocol.Rtt.backoff r;
  Protocol.Rtt.backoff r;
  Alcotest.(check int) "doubled twice" 40_000_000 (Protocol.Rtt.timeout_ns r);
  Protocol.Rtt.observe r ~sample_ns:5_000_000;
  Alcotest.(check bool) "reset by clean sample" true
    (Protocol.Rtt.timeout_ns r < 20_000_000)

let test_rtt_clamps () =
  let r = Protocol.Rtt.create ~initial_ns:2_000_000 () in
  for _ = 1 to 40 do
    Protocol.Rtt.backoff r
  done;
  Alcotest.(check int) "capped at 100x initial" 200_000_000 (Protocol.Rtt.timeout_ns r);
  let tiny = Protocol.Rtt.create ~initial_ns:2_000_000 () in
  for _ = 1 to 60 do
    Protocol.Rtt.observe tiny ~sample_ns:1_000
  done;
  Alcotest.(check int) "floored at 1 ms" 1_000_000 (Protocol.Rtt.timeout_ns tiny)

let test_rtt_no_overflow () =
  (* Regression: repeated backoff used to compute [base * backoff_factor]
     unclamped, wrapping to a negative timeout once the factor grew past
     [max_int / base]. The timeout must stay positive and capped no matter
     how many consecutive timeouts occur. *)
  let r = Protocol.Rtt.create ~initial_ns:50_000_000 () in
  for _ = 1 to 200 do
    Protocol.Rtt.backoff r;
    let t = Protocol.Rtt.timeout_ns r in
    Alcotest.(check bool)
      (Printf.sprintf "positive after backoff (%d)" t)
      true
      (t > 0 && t <= 100 * 50_000_000)
  done;
  (* Same with a huge initial value, where even the 100x cap would wrap. *)
  let huge = Protocol.Rtt.create ~initial_ns:(max_int / 8) () in
  for _ = 1 to 200 do
    Protocol.Rtt.backoff huge
  done;
  Alcotest.(check bool) "huge initial stays positive" true (Protocol.Rtt.timeout_ns huge > 0);
  (* And with samples near the cap feeding the estimator. *)
  let sampled = Protocol.Rtt.create ~initial_ns:(max_int / 8) () in
  Protocol.Rtt.observe sampled ~sample_ns:(max_int / 8);
  for _ = 1 to 200 do
    Protocol.Rtt.backoff sampled
  done;
  Alcotest.(check bool) "sampled stays positive" true (Protocol.Rtt.timeout_ns sampled > 0)

let test_rtt_rejects_bad_input () =
  Alcotest.check_raises "zero initial" (Invalid_argument "Rtt.create: initial_ns must be positive")
    (fun () -> ignore (Protocol.Rtt.create ~initial_ns:0 ()));
  let r = Protocol.Rtt.create ~initial_ns:1_000_000 () in
  Alcotest.check_raises "zero sample" (Invalid_argument "Rtt.observe: sample must be positive")
    (fun () -> Protocol.Rtt.observe r ~sample_ns:0)

(* ------------------------------------------------- adaptive timeout, sim *)

let test_adaptive_timeout_in_simulator () =
  (* A deliberately terrible fixed interval (10x the train time) vs the
     adaptive estimator, both at 1% loss: the estimator must be
     substantially faster on average. *)
  let packets = 64 in
  let t0_ns = 173_000_000 in
  let run ~adaptive seed =
    let rng = Stats.Rng.create ~seed in
    let network_error = Netmodel.Error_model.iid rng ~loss:0.01 in
    let rtt =
      if adaptive then Some (Protocol.Rtt.create ~initial_ns:(10 * t0_ns) ()) else None
    in
    let result =
      Simnet.Driver.run ~params:Netmodel.Params.vkernel ~network_error ?rtt
        ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n)
        ~config:
          (Protocol.Config.make
             ~tuning:(Protocol.Tuning.fixed ~retransmit_ns:(10 * t0_ns) ())
             ~total_packets:packets ())
        ()
    in
    Simnet.Driver.elapsed_ms result
  in
  let mean f =
    let total = ref 0.0 in
    for seed = 1 to 12 do
      total := !total +. f seed
    done;
    !total /. 12.0
  in
  let fixed = mean (run ~adaptive:false) in
  let adaptive = mean (run ~adaptive:true) in
  if not (adaptive < fixed) then
    Alcotest.failf "adaptive %.1f ms should beat fixed %.1f ms" adaptive fixed

let test_adaptive_timeout_error_free_unchanged () =
  (* With no losses the timer never fires, so adaptivity must not change the
     elapsed time at all. *)
  let run rtt =
    Simnet.Driver.run ?rtt
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Go_back_n)
      ~config:(Protocol.Config.make ~total_packets:16 ())
      ()
  in
  let fixed = run None in
  let adaptive = run (Some (Protocol.Rtt.create ~initial_ns:200_000_000 ())) in
  Alcotest.(check int) "same elapsed"
    (Eventsim.Time.span_to_ns fixed.Simnet.Driver.elapsed)
    (Eventsim.Time.span_to_ns adaptive.Simnet.Driver.elapsed)

(* ----------------------------------------------------- integrity, UDP *)

let test_integrity_verified_on_clean_transfer () =
  let rng = Stats.Rng.create ~seed:51 in
  let data = String.init 30_000 (fun _ -> Char.chr (Stats.Rng.int rng 256)) in
  let receiver_socket, receiver_address = Sockets.Udp.create_socket () in
  let sender_socket, _ = Sockets.Udp.create_socket () in
  let received = ref None in
  let thread =
    Thread.create
      (fun () -> received := Server.Engine.receive_one ~socket:receiver_socket ())
      ()
  in
  let _ =
    Sockets.Peer.send ~socket:sender_socket ~peer:receiver_address
      ~suite:(Protocol.Suite.Blast Protocol.Blast.Selective) ~data ()
  in
  Thread.join thread;
  Sockets.Udp.close receiver_socket;
  Sockets.Udp.close sender_socket;
  match !received with
  | Some r ->
      Alcotest.(check bool) "verified" true (r.Sockets.Flow.integrity = Sockets.Flow.Verified)
  | None -> Alcotest.fail "nothing received"

let test_integrity_detects_mismatch () =
  (* A hand-rolled sender that advertises the CRC of different data: the
     receiver must flag the mismatch. *)
  let receiver_socket, receiver_address = Sockets.Udp.create_socket () in
  let sender_socket, _ = Sockets.Udp.create_socket () in
  let received = ref None in
  let thread =
    Thread.create
      (fun () -> received := Server.Engine.receive_one ~socket:receiver_socket ())
      ()
  in
  let transfer_id = 7 in
  let advertised = "what I promised" and actual = "what I delivered" in
  let req =
    {
      (Packet.Message.req ~transfer_id ~total:1) with
      Packet.Message.payload =
        Sockets.Suite_codec.encode
          ~data_crc:(Packet.Checksum.crc32_string advertised)
          ~packet_bytes:(String.length actual)
          ~total_bytes:(String.length actual)
          (Protocol.Suite.Blast Protocol.Blast.Go_back_n);
    }
  in
  (* Handshake, one data packet, wait for the train ack. *)
  ignore (Sockets.Udp.send_message sender_socket receiver_address req : Sockets.Udp.send_outcome);
  (match Sockets.Udp.recv_message ~timeout_ns:2_000_000_000 sender_socket with
  | `Message (m, _) when m.Packet.Message.kind = Packet.Kind.Ack -> ()
  | _ -> Alcotest.fail "no handshake ack");
  ignore
    (Sockets.Udp.send_message sender_socket receiver_address
       (Packet.Message.data ~transfer_id ~seq:0 ~total:1 ~payload:actual)
      : Sockets.Udp.send_outcome);
  (match Sockets.Udp.recv_message ~timeout_ns:2_000_000_000 sender_socket with
  | `Message (m, _) when m.Packet.Message.kind = Packet.Kind.Ack -> ()
  | _ -> Alcotest.fail "no train ack");
  Thread.join thread;
  Sockets.Udp.close receiver_socket;
  Sockets.Udp.close sender_socket;
  match !received with
  | Some r ->
      Alcotest.(check bool) "mismatch flagged" true
        (r.Sockets.Flow.integrity = Sockets.Flow.Mismatch);
      Alcotest.(check string) "data still delivered" actual r.Sockets.Flow.data
  | None -> Alcotest.fail "nothing received"

(* ------------------------------------------------- reordering robustness *)

(* A harness that delivers in-flight messages in random order. Blast
   receivers absorb any order (packets carry their offsets); go-back-n's
   cumulative machinery must still terminate. *)
let run_with_reordering ~seed suite total =
  let rng = Stats.Rng.create ~seed in
  let config =
    Protocol.Config.make ~packet_bytes:16
      ~tuning:(Protocol.Tuning.fixed ~max_attempts:1000 ())
      ~total_packets:total ()
  in
  let payload = Protocol.Machine.constant_payload config in
  let sender = Protocol.Suite.sender suite config ~payload in
  let receiver = Protocol.Suite.receiver suite config in
  let s2r = ref [] and r2s = ref [] in
  let delivered : (int, string) Hashtbl.t = Hashtbl.create 32 in
  let timer = ref false in
  let outcome = ref None in
  let do_actions side actions =
    List.iter
      (fun action ->
        match action with
        | Protocol.Action.Send m -> begin
            match side with
            | `S -> s2r := m :: !s2r
            | `R -> r2s := m :: !r2s
          end
        | Protocol.Action.Arm_timer _ -> if side = `S then timer := true
        | Protocol.Action.Stop_timer -> if side = `S then timer := false
        | Protocol.Action.Deliver { seq; payload } ->
            if Hashtbl.mem delivered seq then Alcotest.failf "double delivery of %d" seq;
            Hashtbl.add delivered seq payload
        | Protocol.Action.Complete o -> outcome := Some o)
      actions
  in
  let take_random queue =
    let array = Array.of_list !queue in
    let index = Stats.Rng.int rng (Array.length array) in
    queue := List.filteri (fun i _ -> i <> index) !queue;
    array.(index)
  in
  do_actions `R (receiver.Protocol.Machine.start ());
  do_actions `S (sender.Protocol.Machine.start ());
  let steps = ref 0 in
  while !outcome = None do
    incr steps;
    if !steps > 500_000 then Alcotest.fail "reordering harness: too many steps";
    if !s2r <> [] then
      do_actions `R (receiver.Protocol.Machine.handle (Protocol.Action.Message (take_random s2r)))
    else if !r2s <> [] then
      do_actions `S (sender.Protocol.Machine.handle (Protocol.Action.Message (take_random r2s)))
    else if !timer then do_actions `S (sender.Protocol.Machine.handle Protocol.Action.Timeout)
    else Alcotest.fail "reordering harness: deadlock"
  done;
  (Option.get !outcome, delivered, payload)

let prop_blast_survives_reordering =
  QCheck.Test.make ~name:"blast machines survive arbitrary reordering" ~count:100
    QCheck.(pair (int_range 1 24) (pair int (oneofl Protocol.Blast.all_strategies)))
    (fun (total, (seed, strategy)) ->
      let outcome, delivered, payload =
        run_with_reordering ~seed:(abs seed) (Protocol.Suite.Blast strategy) total
      in
      outcome = Protocol.Action.Success
      && Hashtbl.length delivered = total
      && List.for_all
           (fun seq -> Hashtbl.find_opt delivered seq = Some (payload seq))
           (List.init total Fun.id))

let prop_sliding_window_survives_reordering =
  QCheck.Test.make ~name:"sliding window survives reordering" ~count:60
    QCheck.(pair (int_range 1 16) int)
    (fun (total, seed) ->
      let outcome, delivered, _ =
        run_with_reordering ~seed:(abs seed)
          (Protocol.Suite.Sliding_window { window = 4 })
          total
      in
      outcome = Protocol.Action.Success && Hashtbl.length delivered = total)

let prop_multi_blast_survives_reordering =
  QCheck.Test.make ~name:"multi-blast survives reordering" ~count:60
    QCheck.(pair (int_range 1 30) int)
    (fun (total, seed) ->
      let outcome, delivered, _ =
        run_with_reordering ~seed:(abs seed)
          (Protocol.Suite.Multi_blast { strategy = Protocol.Blast.Selective; chunk_packets = 7 })
          total
      in
      outcome = Protocol.Action.Success && Hashtbl.length delivered = total)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "extensions"
    [
      ( "rtt",
        [
          Alcotest.test_case "initial timeout" `Quick test_rtt_initial_timeout;
          Alcotest.test_case "converges" `Quick test_rtt_converges_to_constant_rtt;
          Alcotest.test_case "tracks variance" `Quick test_rtt_tracks_variance;
          Alcotest.test_case "backoff and reset" `Quick test_rtt_backoff_and_reset;
          Alcotest.test_case "clamps" `Quick test_rtt_clamps;
          Alcotest.test_case "no backoff overflow" `Quick test_rtt_no_overflow;
          Alcotest.test_case "rejects bad input" `Quick test_rtt_rejects_bad_input;
        ] );
      ( "adaptive-simulator",
        [
          Alcotest.test_case "beats terrible fixed interval" `Quick
            test_adaptive_timeout_in_simulator;
          Alcotest.test_case "error-free unchanged" `Quick
            test_adaptive_timeout_error_free_unchanged;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "verified on clean transfer" `Quick
            test_integrity_verified_on_clean_transfer;
          Alcotest.test_case "detects mismatch" `Quick test_integrity_detects_mismatch;
        ] );
      ( "reordering",
        qcheck
          [
            prop_blast_survives_reordering;
            prop_sliding_window_survives_reordering;
            prop_multi_blast_survives_reordering;
          ] );
    ]
