open Eventsim

type t = {
  events : Protocol.Action.event Mailbox.t;
  machine : Protocol.Machine.t;
}

let frame_bytes (params : Netmodel.Params.t) (m : Packet.Message.t) =
  match m.Packet.Message.kind with
  | Packet.Kind.Data -> params.Netmodel.Params.data_packet_bytes
  | Packet.Kind.Req | Packet.Kind.Ack | Packet.Kind.Rej | Packet.Kind.Mreq ->
      params.Netmodel.Params.ack_packet_bytes
  | Packet.Kind.Nack | Packet.Kind.Mrep ->
      params.Netmodel.Params.ack_packet_bytes + String.length m.Packet.Message.payload

let create ?faults ?on_undecodable ?probe ?rtt ?(pacing = Time.span_zero) ~sim ~params
    ~station ~peer ~machine ~deliver ~on_complete () =
  let probe =
    match probe with
    | Some p -> p
    | None -> Obs.Probe.create ~lane:(Netmodel.Station.name station) ~counters:machine.Protocol.Machine.counters ()
  in
  let events : Protocol.Action.event Mailbox.t = Mailbox.create ~capacity:max_int in
  let timer =
    Timer.create sim ~on_fire:(fun () -> ignore (Mailbox.try_put events Protocol.Action.Timeout))
  in
  (* Adaptive-timeout bookkeeping: the round-trip sample is the gap between
     the last transmission and the next incoming message. A timeout clears
     it after its retransmission has gone out, so the ambiguous reply is
     never sampled (Karn's rule); the next send that a message triggers
     arms sampling again. *)
  let last_send = ref None in
  let put_on_wire m = Netmodel.Station.send station ~dst:peer ~bytes:(frame_bytes params m) m in
  (* With a fault pipeline, one protocol [Send] becomes zero or more wire
     emissions. Station.send blocks (buffer reservation, copy cost), so
     delayed emissions get their own short-lived process rather than a raw
     simulator callback. *)
  let transmit m =
    match faults with
    | None -> put_on_wire m
    | Some netem ->
        Faults.Netem.tx_message ?on_undecodable netem m
        |> List.iter (fun (delay_ns, emission) ->
               if delay_ns = 0 then put_on_wire emission
               else
                 Proc.spawn (Proc.env sim)
                   ~name:(Netmodel.Station.name station ^ "-delayed-emission")
                   (fun () ->
                     Proc.sleep (Time.span_ns delay_ns);
                     put_on_wire emission))
  in
  let execute action =
    match action with
    | Protocol.Action.Send m ->
        Obs.Probe.tx probe m;
        transmit m;
        (* Sender-side pacing: breathe between data packets so a slower
           receiver is never overrun (flow control by rate). *)
        if
          Time.span_to_ns pacing > 0
          && m.Packet.Message.kind = Packet.Kind.Data
        then Proc.sleep pacing;
        last_send := Some (Sim.now sim)
    | Protocol.Action.Arm_timer ns ->
        let ns = match rtt with Some r -> Protocol.Rtt.timeout_ns r | None -> ns in
        Timer.arm timer (Time.span_ns ns)
    | Protocol.Action.Stop_timer -> Timer.stop timer
    | Protocol.Action.Deliver { seq; payload } ->
        Obs.Probe.deliver probe ~seq;
        deliver seq payload
    | Protocol.Action.Complete outcome ->
        Obs.Probe.complete probe outcome;
        on_complete outcome
  in
  let note_event event =
    match (rtt, event) with
    | Some r, Protocol.Action.Timeout -> Protocol.Rtt.backoff r
    | Some r, Protocol.Action.Message _ -> begin
        match !last_send with
        | Some sent ->
            let sample_ns = Time.span_to_ns (Time.diff (Sim.now sim) sent) in
            if sample_ns > 0 then Protocol.Rtt.observe r ~sample_ns
        | None -> ()
      end
    | None, _ -> ()
  in
  let t = { events; machine } in
  (* Receiver machines reach completion without emitting a [Complete] action
     (they deliver the last packet and simply are done); notice that too. *)
  let notified = ref false in
  let check_quiet_completion () =
    if (not !notified) && machine.Protocol.Machine.is_complete () then begin
      notified := true;
      match machine.Protocol.Machine.outcome () with
      | Some outcome ->
          Obs.Probe.complete probe outcome;
          on_complete outcome
      | None -> ()
    end
  in
  let execute action =
    (match action with
    | Protocol.Action.Complete _ -> notified := true
    | Protocol.Action.Send _ | Protocol.Action.Arm_timer _ | Protocol.Action.Stop_timer
    | Protocol.Action.Deliver _ ->
        ());
    execute action
  in
  Proc.spawn (Proc.env sim)
    ~name:(Netmodel.Station.name station ^ "-endpoint")
    (fun () ->
      List.iter execute (machine.Protocol.Machine.start ());
      check_quiet_completion ();
      while true do
        let event = Mailbox.get events in
        note_event event;
        (match event with
        | Protocol.Action.Message m -> Obs.Probe.rx probe m
        | Protocol.Action.Timeout -> Obs.Probe.timeout probe ());
        List.iter execute (machine.Protocol.Machine.handle event);
        (match event with
        | Protocol.Action.Message m -> Obs.Probe.handled probe m
        | Protocol.Action.Timeout -> last_send := None);
        check_quiet_completion ()
      done);
  t

let inject t event = ignore (Mailbox.try_put t.events event)
let machine t = t.machine
