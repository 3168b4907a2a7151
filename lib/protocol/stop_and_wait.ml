open Action

let sender ?(counters = Counters.create ()) (config : Config.t) ~payload =
  let base = ref 0 in
  (* acked packets *)
  let attempts = ref 0 in
  (* transmission attempts for the packet at [base] *)
  let outcome = ref None in
  let send_current ~retransmission =
    incr attempts;
    counters.Counters.rounds <- counters.Counters.rounds + 1;
    counters.Counters.data_sent <- counters.Counters.data_sent + 1;
    if retransmission then
      counters.Counters.retransmitted_data <- counters.Counters.retransmitted_data + 1;
    [
      Send
        (Packet.Message.data ~transfer_id:config.Config.transfer_id ~seq:!base
           ~total:config.Config.total_packets ~payload:(payload !base));
      Arm_timer (Config.retransmit_ns config);
    ]
  in
  let start () = send_current ~retransmission:false in
  (* An ACK echoes the geometry we declared. One with another [total] is a
     straggler from an earlier transfer on this address and id, and its
     cumulative [seq] counts that transfer's progress, not ours. *)
  let ours m = m.Packet.Message.total = config.Config.total_packets in
  let handle = function
    | Message m when m.Packet.Message.kind = Packet.Kind.Ack && ours m ->
        if !outcome <> None then []
        else if m.Packet.Message.seq > !base then begin
          base := m.Packet.Message.seq;
          attempts := 0;
          if !base >= config.Config.total_packets then begin
            outcome := Some Success;
            [ Stop_timer; Complete Success ]
          end
          else send_current ~retransmission:false
        end
        else []
    | Message _ -> []
    | Timeout ->
        if !outcome <> None then []
        else begin
          counters.Counters.timeouts <- counters.Counters.timeouts + 1;
          if !attempts >= (Config.max_attempts config) then begin
            outcome := Some Too_many_attempts;
            [ Stop_timer; Complete Too_many_attempts ]
          end
          else send_current ~retransmission:true
        end
  in
  Machine.make ~name:"stop-and-wait sender" ~start ~handle
    ~is_complete:(fun () -> !outcome <> None)
    ~outcome:(fun () -> !outcome)
    ~counters

let receiver ?(counters = Counters.create ()) (config : Config.t) =
  let expected = ref 0 in
  let ack () =
    counters.Counters.acks_sent <- counters.Counters.acks_sent + 1;
    Send
      (Packet.Message.ack ~transfer_id:config.Config.transfer_id ~seq:!expected
         ~total:config.Config.total_packets)
  in
  let handle = function
    | Message m
      when m.Packet.Message.kind = Packet.Kind.Data
           && m.Packet.Message.total = config.Config.total_packets ->
        if m.Packet.Message.seq = !expected then begin
          incr expected;
          counters.Counters.delivered <- counters.Counters.delivered + 1;
          [ Deliver { seq = m.Packet.Message.seq; payload = m.Packet.Message.payload }; ack () ]
        end
        else begin
          (* Duplicate (seq < expected) or — impossible with one packet
             outstanding, but tolerated — a future packet: re-acknowledge the
             current position without delivering. *)
          counters.Counters.duplicates_received <- counters.Counters.duplicates_received + 1;
          [ ack () ]
        end
    | Message _ | Timeout -> []
  in
  Machine.make ~name:"stop-and-wait receiver"
    ~start:(fun () -> [])
    ~handle
    ~is_complete:(fun () -> !expected >= config.Config.total_packets)
    ~outcome:(fun () ->
      if !expected >= config.Config.total_packets then Some Success else None)
    ~counters
