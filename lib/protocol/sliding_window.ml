open Action

let sender ?(counters = Counters.create ()) ~window (config : Config.t) ~payload =
  if window <= 0 then invalid_arg "Sliding_window.sender: window must be positive";
  let total = config.Config.total_packets in
  let base = ref 0 in
  (* cumulative acked *)
  let next = ref 0 in
  (* next never-sent packet *)
  let attempts = ref 0 in
  (* retransmission rounds for the current base *)
  let outcome = ref None in
  let send_one ~retransmission seq =
    counters.Counters.data_sent <- counters.Counters.data_sent + 1;
    if retransmission then
      counters.Counters.retransmitted_data <- counters.Counters.retransmitted_data + 1;
    Send
      (Packet.Message.data ~transfer_id:config.Config.transfer_id ~seq ~total
         ~payload:(payload seq))
  in
  let fill_window () =
    let actions = ref [] in
    while !next < total && !next < !base + window do
      actions := send_one ~retransmission:false !next :: !actions;
      incr next
    done;
    List.rev !actions
  in
  let start () =
    counters.Counters.rounds <- counters.Counters.rounds + 1;
    fill_window () @ [ Arm_timer (Config.retransmit_ns config) ]
  in
  (* As in stop-and-wait: an ACK with another [total] is a straggler from
     an earlier transfer on this address and id. *)
  let ours m = m.Packet.Message.total = total in
  let handle = function
    | Message m when m.Packet.Message.kind = Packet.Kind.Ack && ours m ->
        if !outcome <> None then []
        else if m.Packet.Message.seq > !base then begin
          base := m.Packet.Message.seq;
          attempts := 0;
          if !base >= total then begin
            outcome := Some Success;
            [ Stop_timer; Complete Success ]
          end
          else begin
            let opened = fill_window () in
            opened @ [ Arm_timer (Config.retransmit_ns config) ]
          end
        end
        else []
    | Message _ -> []
    | Timeout ->
        if !outcome <> None then []
        else begin
          counters.Counters.timeouts <- counters.Counters.timeouts + 1;
          incr attempts;
          if !attempts >= (Config.max_attempts config) then begin
            outcome := Some Too_many_attempts;
            [ Stop_timer; Complete Too_many_attempts ]
          end
          else begin
            (* Go-back-n: retransmit the whole outstanding window. *)
            counters.Counters.rounds <- counters.Counters.rounds + 1;
            let resend = ref [] in
            for seq = !next - 1 downto !base do
              resend := send_one ~retransmission:true seq :: !resend
            done;
            !resend @ [ Arm_timer (Config.retransmit_ns config) ]
          end
        end
  in
  Machine.make ~name:"sliding-window sender" ~start ~handle
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
          counters.Counters.duplicates_received <- counters.Counters.duplicates_received + 1;
          [ ack () ]
        end
    | Message _ | Timeout -> []
  in
  Machine.make ~name:"sliding-window receiver"
    ~start:(fun () -> [])
    ~handle
    ~is_complete:(fun () -> !expected >= config.Config.total_packets)
    ~outcome:(fun () ->
      if !expected >= config.Config.total_packets then Some Success else None)
    ~counters
