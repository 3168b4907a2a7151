(* Tests for the protocol state machines, driven by a pure in-memory harness:
   no clock, no network — losses and duplications are scripted, and timeouts
   fire whenever the system is otherwise quiescent. *)

module P = Protocol

type dir = S2r | R2s

(* Runs a sender/receiver pair to completion. [drop ~dir ~count m] decides
   whether the [count]-th transmission (globally numbered from 1) is lost;
   [duplicate] delivers the message twice. Returns the sender's outcome and
   the delivered payloads. Fails the test on double delivery or deadlock. *)
let run ?(max_steps = 100_000) ?(drop = fun ~dir:_ ~count:_ _ -> false)
    ?(duplicate = fun ~dir:_ ~count:_ _ -> false) (sender : P.Machine.t)
    (receiver : P.Machine.t) =
  let s2r = Queue.create () and r2s = Queue.create () in
  let delivered : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let sender_timer = ref false in
  let outcome = ref None in
  let count = ref 0 in
  let do_actions side actions =
    let enqueue m =
      incr count;
      let dir = match side with `Sender -> S2r | `Receiver -> R2s in
      let queue = match side with `Sender -> s2r | `Receiver -> r2s in
      if not (drop ~dir ~count:!count m) then begin
        Queue.push m queue;
        if duplicate ~dir ~count:!count m then Queue.push m queue
      end
    in
    List.iter
      (fun action ->
        match action with
        | P.Action.Send m -> enqueue m
        | P.Action.Arm_timer _ -> ( match side with `Sender -> sender_timer := true | `Receiver -> ())
        | P.Action.Stop_timer -> ( match side with `Sender -> sender_timer := false | `Receiver -> ())
        | P.Action.Deliver { seq; payload } ->
            if Hashtbl.mem delivered seq then Alcotest.failf "packet %d delivered twice" seq;
            Hashtbl.add delivered seq payload
        | P.Action.Complete o -> outcome := Some o)
      actions
  in
  do_actions `Receiver (receiver.P.Machine.start ());
  do_actions `Sender (sender.P.Machine.start ());
  let steps = ref 0 in
  while !outcome = None do
    incr steps;
    if !steps > max_steps then Alcotest.fail "harness: too many steps";
    if not (Queue.is_empty s2r) then
      do_actions `Receiver (receiver.P.Machine.handle (P.Action.Message (Queue.pop s2r)))
    else if not (Queue.is_empty r2s) then
      do_actions `Sender (sender.P.Machine.handle (P.Action.Message (Queue.pop r2s)))
    else if !sender_timer then do_actions `Sender (sender.P.Machine.handle P.Action.Timeout)
    else Alcotest.fail "harness: deadlock (no messages in flight, no timer armed)"
  done;
  (Option.get !outcome, delivered)

let config ?(total = 8) ?(max_attempts = 50) () =
  P.Config.make ~packet_bytes:32
    ~tuning:(P.Tuning.fixed ~max_attempts ())
    ~total_packets:total ()

let payload_of config = P.Machine.constant_payload config

let check_all_delivered config delivered =
  let total = config.P.Config.total_packets in
  Alcotest.(check int) "all packets delivered" total (Hashtbl.length delivered);
  for seq = 0 to total - 1 do
    match Hashtbl.find_opt delivered seq with
    | None -> Alcotest.failf "packet %d missing" seq
    | Some payload ->
        Alcotest.(check string)
          (Printf.sprintf "payload %d intact" seq)
          (payload_of config seq) payload
  done

let machines ?counters_s ?counters_r suite config =
  let sender = P.Suite.sender suite ?counters:counters_s config ~payload:(payload_of config) in
  let receiver = P.Suite.receiver suite ?counters:counters_r config in
  (sender, receiver)

let all_suites =
  [
    P.Suite.Stop_and_wait;
    P.Suite.Sliding_window { window = max_int };
    P.Suite.Sliding_window { window = 4 };
    P.Suite.Blast P.Blast.Full_retransmit;
    P.Suite.Blast P.Blast.Full_retransmit_nack;
    P.Suite.Blast P.Blast.Go_back_n;
    P.Suite.Blast P.Blast.Selective;
    P.Suite.Multi_blast { strategy = P.Blast.Go_back_n; chunk_packets = 3 };
    P.Suite.Multi_blast { strategy = P.Blast.Selective; chunk_packets = 4 };
  ]

(* ------------------------------------------------------- error-free runs *)

let test_error_free suite () =
  let config = config () in
  let sender, receiver = machines suite config in
  let outcome, delivered = run sender receiver in
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered;
  Alcotest.(check bool) "sender complete" true (sender.P.Machine.is_complete ());
  Alcotest.(check bool) "receiver complete" true (receiver.P.Machine.is_complete ())

let test_error_free_counts () =
  let config = config ~total:8 () in
  (* Blast: 8 data packets, one ack, no retransmissions. *)
  let cs = P.Counters.create () and cr = P.Counters.create () in
  let sender, receiver =
    machines ~counters_s:cs ~counters_r:cr (P.Suite.Blast P.Blast.Go_back_n) config
  in
  ignore (run sender receiver);
  Alcotest.(check int) "data sent" 8 cs.P.Counters.data_sent;
  Alcotest.(check int) "no retransmissions" 0 cs.P.Counters.retransmitted_data;
  Alcotest.(check int) "one round" 1 cs.P.Counters.rounds;
  Alcotest.(check int) "single ack" 1 cr.P.Counters.acks_sent;
  Alcotest.(check int) "no nacks" 0 cr.P.Counters.nacks_sent;
  (* Stop-and-wait: an ack per packet. *)
  let cs = P.Counters.create () and cr = P.Counters.create () in
  let sender, receiver = machines ~counters_s:cs ~counters_r:cr P.Suite.Stop_and_wait config in
  ignore (run sender receiver);
  Alcotest.(check int) "saw acks" 8 cr.P.Counters.acks_sent;
  Alcotest.(check int) "saw data" 8 cs.P.Counters.data_sent;
  (* Sliding window: also an ack per packet. *)
  let cs = P.Counters.create () and cr = P.Counters.create () in
  let sender, receiver =
    machines ~counters_s:cs ~counters_r:cr (P.Suite.Sliding_window { window = max_int }) config
  in
  ignore (run sender receiver);
  Alcotest.(check int) "sw acks" 8 cr.P.Counters.acks_sent;
  Alcotest.(check int) "sw data" 8 cs.P.Counters.data_sent

(* ------------------------------------------------- scripted single losses *)

let drop_nth_data n =
  let seen = ref 0 in
  fun ~dir ~count:_ (m : Packet.Message.t) ->
    match dir with
    | S2r when m.Packet.Message.kind = Packet.Kind.Data ->
        incr seen;
        !seen = n
    | _ -> false

let test_blast_full_retransmit_drop_mid () =
  let config = config ~total:8 () in
  let cs = P.Counters.create () in
  let sender, receiver =
    machines ~counters_s:cs (P.Suite.Blast P.Blast.Full_retransmit) config
  in
  let outcome, delivered = run ~drop:(drop_nth_data 3) sender receiver in
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered;
  (* Whole train resent: 8 + 8 transmissions. *)
  Alcotest.(check int) "full retrain" 16 cs.P.Counters.data_sent;
  Alcotest.(check int) "two rounds" 2 cs.P.Counters.rounds;
  Alcotest.(check int) "one timeout" 1 cs.P.Counters.timeouts

let test_blast_nack_drop_mid () =
  let config = config ~total:8 () in
  let cs = P.Counters.create () and cr = P.Counters.create () in
  let sender, receiver =
    machines ~counters_s:cs ~counters_r:cr (P.Suite.Blast P.Blast.Full_retransmit_nack) config
  in
  let outcome, delivered = run ~drop:(drop_nth_data 3) sender receiver in
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered;
  Alcotest.(check int) "nack instead of timeout" 1 cr.P.Counters.nacks_sent;
  Alcotest.(check int) "no timeout" 0 cs.P.Counters.timeouts;
  Alcotest.(check int) "full retrain" 16 cs.P.Counters.data_sent

let test_blast_gbn_drop_mid () =
  let config = config ~total:8 () in
  let cs = P.Counters.create () in
  let sender, receiver = machines ~counters_s:cs (P.Suite.Blast P.Blast.Go_back_n) config in
  (* Drop packet 3 (index 2): retransmission goes from packet 2 to 7 = 6 packets. *)
  let outcome, delivered = run ~drop:(drop_nth_data 3) sender receiver in
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered;
  Alcotest.(check int) "partial retrain" (8 + 6) cs.P.Counters.data_sent

let test_blast_selective_drop_mid () =
  let config = config ~total:8 () in
  let cs = P.Counters.create () in
  let sender, receiver = machines ~counters_s:cs (P.Suite.Blast P.Blast.Selective) config in
  (* Drop packet 3 (index 2): retransmission = packet 2 plus the terminator. *)
  let outcome, delivered = run ~drop:(drop_nth_data 3) sender receiver in
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered;
  Alcotest.(check int) "selective retrain" (8 + 2) cs.P.Counters.data_sent

let test_blast_selective_drop_last () =
  let config = config ~total:8 () in
  let cs = P.Counters.create () in
  let sender, receiver = machines ~counters_s:cs (P.Suite.Blast P.Blast.Selective) config in
  (* Losing the terminator forces a timeout, then just the terminator again. *)
  let outcome, delivered = run ~drop:(drop_nth_data 8) sender receiver in
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered;
  Alcotest.(check int) "terminator only" (8 + 1) cs.P.Counters.data_sent;
  Alcotest.(check int) "one timeout" 1 cs.P.Counters.timeouts

let test_blast_ack_lost () =
  let config = config ~total:8 () in
  let cs = P.Counters.create () in
  let sender, receiver = machines ~counters_s:cs (P.Suite.Blast P.Blast.Go_back_n) config in
  let drop ~dir ~count:_ (m : Packet.Message.t) =
    dir = R2s && m.Packet.Message.kind = Packet.Kind.Ack && cs.P.Counters.timeouts = 0
  in
  let outcome, delivered = run ~drop sender receiver in
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered;
  (* Timeout resends the terminator; the complete receiver re-acks. *)
  Alcotest.(check int) "one extra data packet" 9 cs.P.Counters.data_sent

let test_blast_nack_lost () =
  let config = config ~total:8 () in
  let cs = P.Counters.create () in
  let sender, receiver = machines ~counters_s:cs (P.Suite.Blast P.Blast.Go_back_n) config in
  let dropped_nack = ref false in
  let drop ~dir ~count:_ (m : Packet.Message.t) =
    match dir with
    | S2r -> m.Packet.Message.kind = Packet.Kind.Data && m.Packet.Message.seq = 2 && cs.P.Counters.rounds = 1
    | R2s ->
        if m.Packet.Message.kind = Packet.Kind.Nack && not !dropped_nack then begin
          dropped_nack := true;
          true
        end
        else false
  in
  let outcome, delivered = run ~drop sender receiver in
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered;
  Alcotest.(check bool) "the nack was exercised" true !dropped_nack;
  (* Round 1: 8 packets, packet 2 lost, NACK lost; timeout resends terminator;
     receiver nacks again; resend 2..7. *)
  Alcotest.(check int) "transmissions" (8 + 1 + 6) cs.P.Counters.data_sent

let test_saw_data_loss () =
  let config = config ~total:5 () in
  let cs = P.Counters.create () in
  let sender, receiver = machines ~counters_s:cs P.Suite.Stop_and_wait config in
  let outcome, delivered = run ~drop:(drop_nth_data 3) sender receiver in
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered;
  Alcotest.(check int) "one retransmission" 1 cs.P.Counters.retransmitted_data

let test_saw_ack_loss_no_double_delivery () =
  let config = config ~total:5 () in
  let dropped = ref false in
  let drop ~dir ~count:_ (m : Packet.Message.t) =
    if dir = R2s && m.Packet.Message.kind = Packet.Kind.Ack && m.Packet.Message.seq = 2
       && not !dropped
    then begin
      dropped := true;
      true
    end
    else false
  in
  let sender, receiver = machines P.Suite.Stop_and_wait (config) in
  let outcome, delivered = run ~drop sender receiver in
  (* The harness itself fails on double delivery. *)
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered

let test_sw_small_window_loss () =
  let config = config ~total:10 () in
  let cs = P.Counters.create () in
  let sender, receiver =
    machines ~counters_s:cs (P.Suite.Sliding_window { window = 3 }) config
  in
  let outcome, delivered = run ~drop:(drop_nth_data 4) sender receiver in
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered;
  Alcotest.(check bool) "window retransmitted" true (cs.P.Counters.retransmitted_data > 0)

let test_duplicated_packets_tolerated () =
  List.iter
    (fun suite ->
      let config = config ~total:6 () in
      let sender, receiver = machines suite config in
      let duplicate ~dir:_ ~count:_ _ = true in
      let outcome, delivered = run ~duplicate sender receiver in
      Alcotest.(check bool) (P.Suite.name suite ^ " survives duplication") true
        (outcome = P.Action.Success);
      check_all_delivered config delivered)
    all_suites

let test_give_up () =
  let config = config ~total:4 ~max_attempts:3 () in
  List.iter
    (fun suite ->
      let sender, receiver = machines suite config in
      let drop ~dir ~count:_ _ = dir = S2r in
      let outcome, delivered = run ~drop sender receiver in
      Alcotest.(check bool) (P.Suite.name suite ^ " gives up") true
        (outcome = P.Action.Too_many_attempts);
      Alcotest.(check int) "nothing delivered" 0 (Hashtbl.length delivered))
    [
      P.Suite.Stop_and_wait;
      P.Suite.Sliding_window { window = max_int };
      P.Suite.Blast P.Blast.Full_retransmit;
      P.Suite.Blast P.Blast.Go_back_n;
      P.Suite.Multi_blast { strategy = P.Blast.Go_back_n; chunk_packets = 2 };
    ]

let test_multi_blast_chunk_isolation () =
  (* A loss in the last chunk must not retransmit earlier chunks. *)
  let config = config ~total:12 () in
  let cs = P.Counters.create () in
  let sender, receiver =
    machines ~counters_s:cs
      (P.Suite.Multi_blast { strategy = P.Blast.Full_retransmit_nack; chunk_packets = 4 })
      config
  in
  (* Drop the 10th data transmission = packet index 9, in the third chunk. *)
  let outcome, delivered = run ~drop:(drop_nth_data 10) sender receiver in
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered;
  (* Only the third chunk (4 packets) is retransmitted. *)
  Alcotest.(check int) "transmissions" (12 + 4) cs.P.Counters.data_sent

let test_multi_blast_counts_error_free () =
  let config = config ~total:10 () in
  let cs = P.Counters.create () and cr = P.Counters.create () in
  let sender, receiver =
    machines ~counters_s:cs ~counters_r:cr
      (P.Suite.Multi_blast { strategy = P.Blast.Go_back_n; chunk_packets = 4 })
      config
  in
  let outcome, delivered = run sender receiver in
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered;
  Alcotest.(check int) "one ack per chunk" 3 cr.P.Counters.acks_sent;
  Alcotest.(check int) "data once" 10 cs.P.Counters.data_sent

(* -------------------------------------------------------- foreign geometry *)

(* A datagram left over from an earlier transfer on the same address and id
   carries that transfer's geometry. Acting on it would advance or complete
   against progress this transfer never made, or assemble foreign bytes, so
   every machine ignores a [total] that is not its own. *)
let test_foreign_geometry_ignored suite () =
  let config = config ~total:5 () in
  let transfer_id = config.P.Config.transfer_id in
  let sender, receiver = machines suite config in
  ignore (sender.P.Machine.start () : P.Action.t list);
  ignore (receiver.P.Machine.start () : P.Action.t list);
  for seq = 0 to 8 do
    let ack = Packet.Message.ack ~transfer_id ~seq ~total:8 in
    Alcotest.(check int)
      (Printf.sprintf "sender ignores ACK seq=%d total=8" seq)
      0
      (List.length (sender.P.Machine.handle (P.Action.Message ack)))
  done;
  for seq = 0 to 7 do
    let data = Packet.Message.data ~transfer_id ~seq ~total:8 ~payload:"stale" in
    Alcotest.(check int)
      (Printf.sprintf "receiver ignores DATA seq=%d total=8" seq)
      0
      (List.length (receiver.P.Machine.handle (P.Action.Message data)))
  done;
  Alcotest.(check bool) "sender still running" false (sender.P.Machine.is_complete ());
  Alcotest.(check bool) "receiver still empty" false (receiver.P.Machine.is_complete ())

(* ----------------------------------------------------------- adaptive blast *)

let adaptive_config ?(total = 40) ?(tuning = P.Tuning.adaptive ()) () =
  P.Config.make ~packet_bytes:32 ~tuning ~total_packets:total ()

let test_adaptive_error_free_opens_at_budget () =
  let config = adaptive_config ~total:40 () in
  let cs = P.Counters.create () and cr = P.Counters.create () in
  let sender, receiver =
    machines ~counters_s:cs ~counters_r:cr (P.Suite.Blast P.Blast.Selective) config
  in
  let outcome, delivered = run sender receiver in
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered;
  (* Clean network: the first train is init_train = 8; the receiver's first
     advertisement (max_train = 128 by default) opens the window, so the
     remaining 32 packets travel in one second train. *)
  Alcotest.(check int) "data once" 40 cs.P.Counters.data_sent;
  Alcotest.(check int) "no retransmissions" 0 cs.P.Counters.retransmitted_data;
  Alcotest.(check int) "two solicited rounds" 2 cs.P.Counters.rounds;
  Alcotest.(check int) "one nack" 1 cr.P.Counters.nacks_sent;
  Alcotest.(check int) "final ack" 1 cr.P.Counters.acks_sent

let test_adaptive_capped_ramp () =
  (* With the advertisement pinned to 8, opening cannot skip the ramp:
     40 packets travel in ceil(40/8) = 5 trains of at most 8. *)
  let config = adaptive_config ~total:40 () in
  let cs = P.Counters.create () in
  let sender =
    P.Suite.sender (P.Suite.Blast P.Blast.Selective) ~counters:cs config
      ~payload:(payload_of config)
  in
  let receiver =
    P.Suite.receiver (P.Suite.Blast P.Blast.Selective) ~budget:(fun () -> 8) config
  in
  let outcome, delivered = run sender receiver in
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered;
  Alcotest.(check int) "data once" 40 cs.P.Counters.data_sent;
  Alcotest.(check int) "five solicited rounds" 5 cs.P.Counters.rounds

let test_adaptive_loss_shrinks_train () =
  let config = adaptive_config ~total:40 () in
  let ctrl = P.Adapt.create (Option.get (P.Tuning.aimd config.P.Config.tuning)) in
  let cs = P.Counters.create () in
  let sender = P.Adapt.sender ~counters:cs ~ctrl config ~payload:(payload_of config) in
  let receiver = P.Adapt.receiver config in
  (* Drop a packet in the middle of the second train. *)
  let outcome, delivered = run ~drop:(drop_nth_data 10) sender receiver in
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered;
  Alcotest.(check int) "one loss round observed" 1 (P.Adapt.loss_rounds ctrl);
  (* Selective repair: only the lost packet travels twice. *)
  Alcotest.(check int) "selective retrain" 41 cs.P.Counters.data_sent

let test_adaptive_budget_throttles () =
  let config = adaptive_config ~total:24 () in
  let cs = P.Counters.create () in
  let sender = P.Suite.sender (P.Suite.Blast P.Blast.Selective) ~counters:cs config
      ~payload:(payload_of config)
  in
  let receiver =
    P.Suite.receiver (P.Suite.Blast P.Blast.Selective) ~budget:(fun () -> 2) config
  in
  let outcome, delivered = run sender receiver in
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered;
  (* First train is init_train = 8; every later train is capped at the
     advertised budget of 2: at least (24 - 8) / 2 further rounds. *)
  Alcotest.(check bool) "budget caps the trains"
    true
    (cs.P.Counters.rounds >= 1 + ((24 - 8) / 2));
  Alcotest.(check int) "data once despite throttle" 24 cs.P.Counters.data_sent

let test_adaptive_stale_response_ignored () =
  (* A response whose bitmap predates the current solicit — the echo of a
     duplicated solicit after a spurious timeout, or one delayed past a
     retransmission — must not be scored as the current round's feedback:
     that would count every in-flight packet as lost and re-blast them all.
     Its bitmap still folds in; the real response drives the next train. *)
  let tuning = P.Tuning.adaptive ~init_train:4 ~increase:4 () in
  let config = adaptive_config ~total:8 ~tuning () in
  let ctrl = P.Adapt.create (Option.get (P.Tuning.aimd config.P.Config.tuning)) in
  let cs = P.Counters.create () in
  let sender = P.Adapt.sender ~counters:cs ~ctrl config ~payload:(payload_of config) in
  (match sender.P.Machine.start () with
  | P.Action.Stop_timer :: _ -> ()
  | _ -> Alcotest.fail "a blast must retire the previous round's timer first");
  (* Round 1 is seqs 0-3 with solicit 3. *)
  let nack upto =
    let received = Packet.Bitset.create 8 in
    for i = 0 to upto do
      Packet.Bitset.set received i
    done;
    P.Action.Message
      (Packet.Message.with_budget
         (Packet.Message.nack ~transfer_id:config.P.Config.transfer_id
            ~first_missing:(upto + 1) ~total:8 ~received ())
         8)
  in
  let actions = sender.P.Machine.handle (nack 1) in
  Alcotest.(check bool) "stale response emits nothing" true (actions = []);
  Alcotest.(check int) "stale response starts no round" 1 cs.P.Counters.rounds;
  Alcotest.(check int) "no loss charged for in-flight packets" 0 (P.Adapt.loss_rounds ctrl);
  let actions = sender.P.Machine.handle (nack 3) in
  Alcotest.(check int) "the genuine response blasts round 2" 2 cs.P.Counters.rounds;
  Alcotest.(check bool) "round 2 sends data" true
    (List.exists
       (function
         | P.Action.Send m -> m.Packet.Message.kind = Packet.Kind.Data
         | _ -> false)
       actions);
  Alcotest.(check int) "still no loss charged" 0 (P.Adapt.loss_rounds ctrl)

let test_adaptive_zero_budget_cannot_stall () =
  let config = adaptive_config ~total:12 () in
  let sender =
    P.Suite.sender (P.Suite.Blast P.Blast.Selective) config ~payload:(payload_of config)
  in
  let receiver =
    P.Suite.receiver (P.Suite.Blast P.Blast.Selective) ~budget:(fun () -> 0) config
  in
  let outcome, delivered = run sender receiver in
  (* The min_train floor wins over a zero budget: progress continues. *)
  Alcotest.(check bool) "success" true (outcome = P.Action.Success);
  check_all_delivered config delivered

let gen_aimd =
  let open QCheck.Gen in
  let* min_train = int_range 1 8 in
  let* max_train = int_range min_train (min_train + 120) in
  let* init_train = int_range min_train max_train in
  let* increase = int_range 1 8 in
  let* decrease = float_range 0.1 0.9 in
  return
    (Option.get
       (P.Tuning.aimd
          (P.Tuning.adaptive ~init_train ~min_train ~max_train ~increase ~decrease ())))

let prop_aimd_loss_monotone =
  QCheck.Test.make ~name:"aimd: a loss round never grows the train" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_aimd (int_range 0 40)))
    (fun (params, warmup) ->
      let ctrl = P.Adapt.create params in
      for _ = 1 to warmup do
        P.Adapt.on_round ctrl ~sent:(P.Adapt.train ctrl) ~lost:0
      done;
      let ok = ref true in
      for i = 1 to 20 do
        let before = P.Adapt.train ctrl in
        if i mod 2 = 0 then P.Adapt.on_timeout ctrl
        else P.Adapt.on_round ctrl ~sent:before ~lost:1;
        if P.Adapt.train ctrl > before then ok := false
      done;
      !ok)

let prop_aimd_bounded_by_budget =
  QCheck.Test.make
    ~name:"aimd: train stays within [min_train, min (max_train, budget)]" ~count:300
    (QCheck.make
       QCheck.Gen.(pair gen_aimd (list_size (int_range 1 60) (int_range 0 400))))
    (fun (params, events) ->
      let ctrl = P.Adapt.create params in
      let last_budget = ref None in
      List.for_all
        (fun ev ->
          (match ev mod 4 with
          | 0 -> P.Adapt.on_round ctrl ~sent:(P.Adapt.train ctrl) ~lost:0
          | 1 -> P.Adapt.on_round ctrl ~sent:(P.Adapt.train ctrl) ~lost:(1 + (ev / 4))
          | 2 -> P.Adapt.on_timeout ctrl
          | _ ->
              last_budget := Some (ev / 4);
              P.Adapt.on_budget ctrl ~budget:(ev / 4));
          let cap =
            match !last_budget with
            | Some b when b > 0 -> min params.P.Tuning.max_train b
            | Some _ | None -> params.P.Tuning.max_train
          in
          let train = P.Adapt.train ctrl in
          train >= params.P.Tuning.min_train
          && train <= max params.P.Tuning.min_train cap)
        events)

let prop_aimd_converges_under_constant_loss =
  QCheck.Test.make ~name:"aimd: constant loss converges to min_train" ~count:200
    (QCheck.make gen_aimd)
    (fun params ->
      let ctrl = P.Adapt.create params in
      (* decrease <= 0.9 shrinks any train <= 128 to the floor well inside
         200 rounds; once there it must stay. *)
      for _ = 1 to 200 do
        P.Adapt.on_round ctrl ~sent:(P.Adapt.train ctrl) ~lost:1
      done;
      let at_floor = P.Adapt.train ctrl = params.P.Tuning.min_train in
      P.Adapt.on_round ctrl ~sent:(P.Adapt.train ctrl) ~lost:1;
      at_floor && P.Adapt.train ctrl = params.P.Tuning.min_train)

let prop_adaptive_completes_under_random_loss =
  QCheck.Test.make ~name:"adaptive blast completes under random loss" ~count:60
    QCheck.(pair (int_range 1 40) (pair int (float_range 0.0 0.4)))
    (fun (total, (seed, loss)) ->
      let rng = Stats.Rng.create ~seed:(abs seed) in
      let config =
        P.Config.make ~packet_bytes:16
          ~tuning:(P.Tuning.adaptive ~max_attempts:1000 ())
          ~total_packets:total ()
      in
      let suite = P.Suite.Blast P.Blast.Selective in
      let sender = P.Suite.sender suite config ~payload:(payload_of config) in
      let receiver = P.Suite.receiver suite config in
      let drop ~dir:_ ~count:_ _ = Stats.Rng.bernoulli rng ~p:loss in
      let outcome, delivered = run ~max_steps:2_000_000 ~drop sender receiver in
      outcome = P.Action.Success
      && Hashtbl.length delivered = total
      && List.for_all
           (fun seq -> Hashtbl.find_opt delivered seq = Some (payload_of config seq))
           (List.init total Fun.id))

(* ------------------------------------------------------ random-loss qcheck *)

let prop_completes_under_random_loss suite =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s completes under random loss" (P.Suite.name suite))
    ~count:60
    QCheck.(pair (int_range 1 20) (pair int (float_range 0.0 0.4)))
    (fun (total, (seed, loss)) ->
      let rng = Stats.Rng.create ~seed:(abs seed) in
      let config =
        P.Config.make ~packet_bytes:16
          ~tuning:(P.Tuning.fixed ~max_attempts:1000 ())
          ~total_packets:total ()
      in
      let sender = P.Suite.sender suite config ~payload:(payload_of config) in
      let receiver = P.Suite.receiver suite config in
      let drop ~dir:_ ~count:_ _ = Stats.Rng.bernoulli rng ~p:loss in
      let outcome, delivered = run ~max_steps:2_000_000 ~drop sender receiver in
      outcome = P.Action.Success
      && Hashtbl.length delivered = total
      && List.for_all
           (fun seq -> Hashtbl.find_opt delivered seq = Some (payload_of config seq))
           (List.init total Fun.id))

let prop_counter_invariants suite =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s counter invariants under random loss" (P.Suite.name suite))
    ~count:60
    QCheck.(pair (int_range 1 16) (pair int (float_range 0.0 0.3)))
    (fun (total, (seed, loss)) ->
      let rng = Stats.Rng.create ~seed:(abs seed) in
      let config =
        P.Config.make ~packet_bytes:16
          ~tuning:(P.Tuning.fixed ~max_attempts:1000 ())
          ~total_packets:total ()
      in
      let cs = P.Counters.create () and cr = P.Counters.create () in
      let sender = P.Suite.sender suite ~counters:cs config ~payload:(payload_of config) in
      let receiver = P.Suite.receiver suite ~counters:cr config in
      let drop ~dir:_ ~count:_ _ = Stats.Rng.bernoulli rng ~p:loss in
      let outcome, _ = run ~max_steps:2_000_000 ~drop sender receiver in
      outcome = P.Action.Success
      (* Every distinct packet reached the receiver exactly once. *)
      && cr.P.Counters.delivered = total
      (* First transmissions + retransmissions account for all data sends. *)
      && cs.P.Counters.data_sent = total + cs.P.Counters.retransmitted_data
      (* At least one transmission round happened; rounds grow only with
         repair work. *)
      && cs.P.Counters.rounds >= 1
      && cs.P.Counters.rounds <= 1 + cs.P.Counters.timeouts + cr.P.Counters.nacks_sent
         + cr.P.Counters.acks_sent)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let error_free_cases =
  List.map
    (fun suite ->
      Alcotest.test_case (P.Suite.name suite) `Quick (test_error_free suite))
    all_suites

let () =
  Alcotest.run "protocol"
    [
      ("error-free", error_free_cases);
      ( "counts",
        [
          Alcotest.test_case "error-free counters" `Quick test_error_free_counts;
          Alcotest.test_case "multi-blast error-free counters" `Quick
            test_multi_blast_counts_error_free;
        ] );
      ( "scripted-loss",
        [
          Alcotest.test_case "blast full retransmit, mid loss" `Quick
            test_blast_full_retransmit_drop_mid;
          Alcotest.test_case "blast nack, mid loss" `Quick test_blast_nack_drop_mid;
          Alcotest.test_case "blast go-back-n, mid loss" `Quick test_blast_gbn_drop_mid;
          Alcotest.test_case "blast selective, mid loss" `Quick test_blast_selective_drop_mid;
          Alcotest.test_case "blast selective, terminator loss" `Quick
            test_blast_selective_drop_last;
          Alcotest.test_case "blast ack lost" `Quick test_blast_ack_lost;
          Alcotest.test_case "blast nack lost" `Quick test_blast_nack_lost;
          Alcotest.test_case "saw data loss" `Quick test_saw_data_loss;
          Alcotest.test_case "saw ack loss, exactly-once" `Quick
            test_saw_ack_loss_no_double_delivery;
          Alcotest.test_case "sliding window loss" `Quick test_sw_small_window_loss;
          Alcotest.test_case "duplication tolerated" `Quick test_duplicated_packets_tolerated;
          Alcotest.test_case "give up after max attempts" `Quick test_give_up;
          Alcotest.test_case "multi-blast chunk isolation" `Quick
            test_multi_blast_chunk_isolation;
        ] );
      ( "geometry",
        List.map
          (fun suite ->
            Alcotest.test_case
              (P.Suite.name suite ^ " ignores a foreign total")
              `Quick (test_foreign_geometry_ignored suite))
          all_suites );
      ( "random-loss",
        qcheck
          (List.map prop_completes_under_random_loss
             [
               P.Suite.Stop_and_wait;
               P.Suite.Sliding_window { window = max_int };
               P.Suite.Sliding_window { window = 2 };
               P.Suite.Blast P.Blast.Full_retransmit;
               P.Suite.Blast P.Blast.Full_retransmit_nack;
               P.Suite.Blast P.Blast.Go_back_n;
               P.Suite.Blast P.Blast.Selective;
               P.Suite.Multi_blast { strategy = P.Blast.Selective; chunk_packets = 5 };
             ]) );
      ( "adaptive",
        Alcotest.test_case "error-free opens at budget" `Quick
             test_adaptive_error_free_opens_at_budget
        :: Alcotest.test_case "capped advertisement forces the ramp" `Quick
             test_adaptive_capped_ramp
        :: Alcotest.test_case "loss shrinks the train" `Quick test_adaptive_loss_shrinks_train
        :: Alcotest.test_case "budget throttles the train" `Quick test_adaptive_budget_throttles
        :: Alcotest.test_case "zero budget cannot stall" `Quick
             test_adaptive_zero_budget_cannot_stall
        :: Alcotest.test_case "stale response is not round feedback" `Quick
             test_adaptive_stale_response_ignored
        :: qcheck
             [
               prop_aimd_loss_monotone;
               prop_aimd_bounded_by_budget;
               prop_aimd_converges_under_constant_loss;
               prop_adaptive_completes_under_random_loss;
             ] );
      ( "invariants",
        qcheck
          (List.map prop_counter_invariants
             [
               P.Suite.Stop_and_wait;
               P.Suite.Blast P.Blast.Full_retransmit;
               P.Suite.Blast P.Blast.Go_back_n;
               P.Suite.Blast P.Blast.Selective;
             ]) );
    ]
