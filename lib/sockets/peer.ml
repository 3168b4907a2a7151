let log = Logs.Src.create "sockets.peer" ~doc:"UDP bulk-transfer peer"

module Log = (val Logs.src_log log : Logs.LOG)

type send_result = {
  outcome : Protocol.Action.outcome;
  elapsed_ns : int;
  counters : Protocol.Counters.t;
  adaptive : bool;
}

type integrity = Flow.integrity = Verified | Mismatch | Not_carried

type receive_result = {
  data : string;
  transfer_id : int;
  receive_counters : Protocol.Counters.t;
  integrity : integrity;
      (** whole-segment CRC check: [Verified]/[Mismatch] when the sender
          carried one in the REQ, [Not_carried] otherwise *)
  receive_outcome : Protocol.Action.outcome;
      (** [Success] for a completed transfer; [Peer_unreachable] when the
          idle watchdog aborted because the sender went silent *)
}

(* One outgoing message through the fault pipeline. The datagram goes out
   through the transport — queued into the current train when the transport
   batches; the caller flushes at the end of each action burst. Delayed
   emissions are realized inline (the train so far is flushed, then the
   datagram, and everything behind it, goes out late) — head-of-line delay
   rather than per-datagram jitter, which is what a slow link does to a
   single UDP flow anyway. Scenario validation caps delays at one second so
   a faulted sender can never stall unboundedly. *)
let transmit ?faults ~probe ~(transport : Transport.t) ~peer message =
  (* The journal entry fires per protocol send, before the fault pipeline —
     the machine's counters account the send either way, and the events
     must agree with them exactly. *)
  Obs.Probe.tx probe message;
  (* A transient send failure is loss: account it as a dropped datagram. *)
  let put = function
    | Udp.Sent -> ()
    | Udp.Send_failed _ -> Obs.Probe.drop probe `Tx
  in
  match faults with
  | None -> transport.Transport.send ~peer ~on_outcome:put (Packet.Codec.encode message)
  | Some netem ->
      List.iter
        (fun { Faults.Netem.delay_ns; data } ->
          if delay_ns > 0 then begin
            (* Everything ahead of the delayed datagram must hit the wire
               before we stall, or the delay would reorder the train. *)
            transport.Transport.flush ();
            transport.Transport.sleep_ns delay_ns
          end;
          transport.Transport.send ~peer ~on_outcome:put data)
        (Faults.Netem.tx_bytes netem (Packet.Codec.encode message))

let count_garbage = Flow.count_garbage

(* Runs a sender machine over the transport until it completes or the idle
   watchdog trips. [idle_timeout_ns] bounds the wait for the next datagram
   independently of the protocol timer: without the watchdog a receiver that
   dies mid-transfer could block this loop on suites whose sender is waiting
   for an ack with no timer armed. (The receiver side no longer runs through
   here — it drives the sans-IO {!Flow} engine instead.)

   [pacing] is sampled per data packet, so an adaptive controller can steer
   the gap round by round. *)
let run_machine ?faults ?rtt ?(pacing = fun () -> 0)
    ?idle_timeout_ns ~clock ~probe ~(transport : Transport.t) ~peer ~transfer_id
    ~(machine : Protocol.Machine.t) () =
  let deadline = ref None in
  let idle_deadline = ref (Option.map (fun ns -> clock () + ns) idle_timeout_ns) in
  let reset_idle () = idle_deadline := Option.map (fun ns -> clock () + ns) idle_timeout_ns in
  let last_send = ref None in
  let timed_out_since_send = ref false in
  let execute action =
    match action with
    | Protocol.Action.Send m ->
        transmit ?faults ~probe ~transport ~peer m;
        (* Pacing: an unthrottled blast overruns the receiver's socket
           buffer exactly as the paper's 3-Com overran at full speed; a
           small inter-packet gap avoids the drops instead of repairing
           them. (Pacing and batching are mutually exclusive — the caller
           builds an unbatched transport when pacing — since a train
           submitted in one syscall has no inter-packet gaps.) *)
        (if m.Packet.Message.kind = Packet.Kind.Data then
           let gap = pacing () in
           if gap > 0 then transport.Transport.sleep_ns gap);
        last_send := Some (clock ());
        timed_out_since_send := false
    | Protocol.Action.Arm_timer ns ->
        let ns = match rtt with Some r -> Protocol.Rtt.timeout_ns r | None -> ns in
        deadline := Some (clock () + ns)
    | Protocol.Action.Stop_timer -> deadline := None
    | Protocol.Action.Deliver { seq; _ } ->
        (* Sender machines do not deliver; keep the event for the journal. *)
        Obs.Probe.deliver probe ~seq
    | Protocol.Action.Complete _ -> ()
  in
  let handle event =
    (match event with
    | Protocol.Action.Timeout -> Obs.Probe.timeout probe ()
    | Protocol.Action.Message m -> Obs.Probe.rx probe m);
    (* Adaptive timeout: sample clean round trips, back off on expiry
       (Karn's rule). *)
    (match (rtt, event) with
    | Some r, Protocol.Action.Timeout ->
        timed_out_since_send := true;
        Protocol.Rtt.backoff r
    | Some r, Protocol.Action.Message _ -> begin
        match !last_send with
        | Some sent when not !timed_out_since_send ->
            let sample_ns = clock () - sent in
            if sample_ns > 0 then Protocol.Rtt.observe r ~sample_ns
        | _ -> ()
      end
    | None, _ -> ());
    List.iter execute (machine.Protocol.Machine.handle event);
    (* The whole action burst — a blast round, typically — goes out as one
       train: this is the sender's sendmmsg hot path. *)
    transport.Transport.flush ();
    match event with
    | Protocol.Action.Message m -> Obs.Probe.handled probe m
    | Protocol.Action.Timeout -> ()
  in
  List.iter execute (machine.Protocol.Machine.start ());
  transport.Transport.flush ();
  let watchdog_fired = ref false in
  while (not (machine.Protocol.Machine.is_complete ())) && not !watchdog_fired do
    let now = clock () in
    match !deadline with
    | Some d when d - now <= 0 ->
        deadline := None;
        handle Protocol.Action.Timeout
    | _ -> begin
        let remaining until = Option.map (fun d -> d - now) until in
        let timeout_ns =
          match (remaining !deadline, remaining !idle_deadline) with
          | None, None -> None
          | (Some _ as t), None | None, (Some _ as t) -> t
          | Some a, Some b -> Some (min a b)
        in
        match Transport.recv_message transport ?timeout_ns () with
        | `Timeout -> begin
            let now = clock () in
            match !deadline with
            | Some d when d - now <= 0 ->
                deadline := None;
                handle Protocol.Action.Timeout
            | _ -> begin
                match !idle_deadline with
                | Some d when d - now <= 0 ->
                    Log.debug (fun f ->
                        f "idle watchdog: no datagram for %.1f ms, aborting"
                          (float_of_int (Option.get idle_timeout_ns) /. 1e6));
                    watchdog_fired := true
                | _ -> () (* spurious early wake; loop *)
              end
          end
        | `Garbage reason ->
            reset_idle ();
            count_garbage ~probe machine.Protocol.Machine.counters reason;
            Log.debug (fun f ->
                f "dropping undecodable datagram (%a)" Packet.Codec.pp_error reason)
        | `Message (m, _) ->
            reset_idle ();
            if m.Packet.Message.transfer_id = transfer_id then
              handle (Protocol.Action.Message m)
      end
  done;
  if !watchdog_fired then begin
    Obs.Probe.timeout probe ~detail:"idle-watchdog" ();
    `Peer_idle
  end
  else `Completed

(* Inter-packet gap for a fixed tuning. [Rtt_spread] without an adaptive
   controller spreads a nominal 32-packet train across the smoothed RTT. *)
let fixed_pacing ~tuning ~rtt () =
  match Protocol.Tuning.pacing tuning with
  | Protocol.Tuning.No_pacing -> 0
  | Protocol.Tuning.Fixed_gap ns -> ns
  | Protocol.Tuning.Rtt_spread -> (
      match Option.bind rtt Protocol.Rtt.srtt_ns with
      | Some srtt when srtt > 0 -> srtt / 32
      | Some _ | None -> 0)

let send_via ?ctx ?transfer_id ?(packet_bytes = 1024) ?rtt
    ?idle_timeout_ns ?stripe ~transport ~peer ~suite ~data () =
  if String.length data = 0 then invalid_arg "Peer.send: empty data";
  let ctx = match ctx with Some c -> c | None -> Io_ctx.default () in
  let { Io_ctx.faults; recorder; metrics; clock; batch = _; tuning } = ctx in
  let transfer_id =
    match transfer_id with Some id -> id | None -> Protocol.Config.fresh_transfer_id ()
  in
  let retransmit_ns = Protocol.Tuning.retransmit_ns tuning in
  let max_attempts = Protocol.Tuning.max_attempts tuning in
  let idle_timeout_ns =
    Option.value idle_timeout_ns ~default:(max_attempts * retransmit_ns)
  in
  (* RTT estimation is load-bearing for adaptive tuning (pacing and timeout
     both derive from it), an opt-in refinement otherwise. *)
  let rtt =
    match rtt with
    | Some _ as r -> r
    | None ->
        if Protocol.Tuning.is_adaptive tuning then
          Some (Protocol.Rtt.create ~initial_ns:retransmit_ns ())
        else None
  in
  let counters = Protocol.Counters.create () in
  (* Journal timestamps come from the context clock on this transport. *)
  Option.iter (fun r -> Obs.Recorder.set_clock r clock) recorder;
  let probe = Obs.Probe.create ?recorder ~lane:"sender" ~counters () in
  (match faults with
  | Some netem ->
      Faults.Netem.attach_counters netem counters;
      Faults.Netem.set_observer netem (Obs.Probe.fault probe)
  | None -> ());
  let total_bytes = String.length data in
  let total_packets = (total_bytes + packet_bytes - 1) / packet_bytes in
  (* Reliable handshake: repeat REQ until ACK seq=0 comes back, then run the
     machine. A peer that never answers is a clean [Peer_unreachable], not an
     exception: chaos campaigns treat it as a bounded, reportable outcome. *)
  let req =
    {
      (Packet.Message.req ~transfer_id ~total:total_packets) with
      Packet.Message.payload =
        Suite_codec.encode ~data_crc:(Packet.Checksum.crc32_string data) ?stripe
          ~packet_bytes ~total_bytes suite;
    }
  in
  (* An adaptive sender announces itself with a budget-stamped (wire v2)
     REQ. An old receiver drops v2 as undecodable, so after two silent
     attempts the sender starts alternating plain v1 REQs: whichever
     version draws the ACK decides the regime — a budget on the handshake
     ACK confirms adaptive trains, a bare ACK negotiates down to fixed. *)
  let adaptive_wanted = Protocol.Tuning.is_adaptive tuning in
  let req_for attempt =
    if adaptive_wanted && (attempt <= 2 || attempt mod 2 = 1) then
      Packet.Message.with_budget req 0
    else req
  in
  let started = clock () in
  let finish ~outcome ~elapsed_ns ~adaptive =
    Obs.Probe.complete probe outcome;
    (match outcome with
    | Protocol.Action.Success -> ()
    | Protocol.Action.Too_many_attempts | Protocol.Action.Peer_unreachable
    | Protocol.Action.Rejected ->
        ignore
          (Obs.Probe.postmortem probe
             ~reason:(Format.asprintf "send: %a" Protocol.Action.pp_outcome outcome)
            : string option));
    (match metrics with
    | None -> ()
    | Some m ->
        let labels = [ ("side", "sender"); ("transport", "udp") ] in
        Obs.Metrics.bridge_counters m ~labels counters;
        Obs.Metrics.set_gauge
          (Obs.Metrics.gauge m ~labels "elapsed_ms")
          (float_of_int elapsed_ns /. 1e6));
    { outcome; elapsed_ns; counters; adaptive }
  in
  (* The handshake is strictly send-one-wait-one, so it gains nothing from a
     train; each REQ is flushed out on its own. *)
  let rec handshake attempt =
    if attempt > max_attempts then `Unreachable
    else begin
      transmit ?faults ~probe ~transport ~peer (req_for attempt);
      transport.Transport.flush ();
      match Transport.recv_message transport ~timeout_ns:retransmit_ns () with
      | `Timeout ->
          Obs.Probe.timeout probe ~detail:"handshake" ();
          handshake (attempt + 1)
      | `Garbage reason ->
          count_garbage ~probe counters reason;
          handshake (attempt + 1)
      | `Message (m, _) ->
          if m.Packet.Message.transfer_id <> transfer_id then
            handshake (attempt + 1)
          else begin
            match m.Packet.Message.kind with
            | Packet.Kind.Ack when m.Packet.Message.seq = 0 ->
                `Acknowledged (Packet.Message.budget m)
            | Packet.Kind.Rej ->
                (* Admission refusal from a saturated server: retrying into
                   it only adds load, so the sender gives up immediately
                   with the clean, typed outcome. *)
                Obs.Probe.rx probe m;
                `Rejected
            | _ -> handshake (attempt + 1)
          end
    end
  in
  match handshake 1 with
  | `Unreachable ->
      Log.info (fun f -> f "handshake exhausted %d attempts; peer unreachable" max_attempts);
      finish ~outcome:Protocol.Action.Peer_unreachable ~elapsed_ns:(clock () - started)
        ~adaptive:false
  | `Rejected ->
      Log.info (fun f -> f "transfer %d rejected: server at capacity" transfer_id);
      finish ~outcome:Protocol.Action.Rejected ~elapsed_ns:(clock () - started)
        ~adaptive:false
  | `Acknowledged handshake_budget ->
      let adaptive = adaptive_wanted && handshake_budget <> None in
      let tuning =
        if adaptive then tuning else Protocol.Tuning.negotiate_down tuning
      in
      let config =
        Protocol.Config.make ~transfer_id ~packet_bytes ~tuning ~total_packets ()
      in
      let ctrl =
        if adaptive then
          let c = Protocol.Adapt.create (Option.get (Protocol.Tuning.aimd tuning)) in
          (match handshake_budget with
          | Some b when b > 0 ->
              Protocol.Adapt.on_budget c ~budget:b;
              (* Open at the receiver's advertisement: flow control already
                 said this train fits, so skip the additive ramp. *)
              Protocol.Adapt.open_train c ~train:b
          | _ -> ());
          Some c
        else None
      in
      let pacing =
        match ctrl with
        | Some c ->
            fun () ->
              Protocol.Adapt.pacing_gap_ns c
                ~srtt_ns:(Option.bind rtt Protocol.Rtt.srtt_ns)
        | None -> fixed_pacing ~tuning ~rtt
      in
      let payload seq =
        let offset = seq * packet_bytes in
        String.sub data offset (min packet_bytes (total_bytes - offset))
      in
      let machine = Protocol.Suite.sender suite ~counters ?ctrl config ~payload in
      let started = clock () in
      let status =
        run_machine ?faults ?rtt ~pacing ~idle_timeout_ns ~clock ~probe ~transport
          ~peer ~transfer_id ~machine ()
      in
      (match faults with
      | Some netem -> ignore (Faults.Netem.flush netem : Faults.Netem.emission list)
      | None -> ());
      transport.Transport.flush ();
      let outcome =
        match status with
        | `Peer_idle -> Protocol.Action.Peer_unreachable
        | `Completed -> (
            match machine.Protocol.Machine.outcome () with
            | Some outcome -> outcome
            | None -> Protocol.Action.Peer_unreachable)
      in
      finish ~outcome ~elapsed_ns:(clock () - started) ~adaptive

let send ?ctx ?transfer_id ?packet_bytes ?rtt ?idle_timeout_ns ?stripe ~socket
    ~peer ~suite ~data () =
  let ctx = match ctx with Some c -> c | None -> Io_ctx.default () in
  (* Pacing wants an inter-packet gap, batching erases them: a paced sender
     stays on the one-datagram path. *)
  let batch =
    ctx.Io_ctx.batch
    && Protocol.Tuning.pacing ctx.Io_ctx.tuning = Protocol.Tuning.No_pacing
  in
  let transport = Transport.udp ~batch ~socket () in
  send_via ~ctx ?transfer_id ?packet_bytes ?rtt ?idle_timeout_ns ?stripe ~transport
    ~peer ~suite ~data ()

let serve_one_via ?ctx ?linger_ns ?idle_timeout_ns
    ?accept_timeout_ns ?suite ~(transport : Transport.t) () =
  let ctx = match ctx with Some c -> c | None -> Io_ctx.default () in
  let { Io_ctx.faults; recorder; metrics; clock; batch = _; tuning } = ctx in
  let counters = Protocol.Counters.create () in
  Option.iter (fun r -> Obs.Recorder.set_clock r clock) recorder;
  let probe = Obs.Probe.create ?recorder ~lane:"receiver" ~counters () in
  (match faults with
  | Some netem ->
      Faults.Netem.attach_counters netem counters;
      Faults.Netem.set_observer netem (Obs.Probe.fault probe)
  | None -> ());
  let publish_metrics () =
    match metrics with
    | None -> ()
    | Some m ->
        Obs.Metrics.bridge_counters m
          ~labels:[ ("side", "receiver"); ("transport", "udp") ]
          counters
  in
  let result_of_completion (c : Flow.completion) =
    publish_metrics ();
    {
      data = c.Flow.data;
      transfer_id = c.Flow.transfer_id;
      receive_counters = c.Flow.counters;
      integrity = c.Flow.integrity;
      receive_outcome = c.Flow.outcome;
    }
  in
  (* Wait for a geometry-carrying REQ; [accept_timeout_ns] bounds even this
     initial wait when the caller needs a guaranteed return. The sans-IO
     {!Flow} engine takes over from the REQ onwards; this loop only owns the
     transport and the clock. *)
  let accept_deadline = Option.map (fun ns -> clock () + ns) accept_timeout_ns in
  let rec await_flow () =
    let timeout_ns = Option.map (fun d -> d - clock ()) accept_deadline in
    match timeout_ns with
    | Some remaining when remaining <= 0 -> `Gone
    | _ -> begin
        match Transport.recv_message transport ?timeout_ns () with
        | `Timeout -> if accept_deadline = None then await_flow () else `Gone
        | `Garbage reason ->
            count_garbage ~probe counters reason;
            await_flow ()
        | `Message (m, from) -> (
            match
              Flow.create ?fallback_suite:suite ~tuning ?idle_timeout_ns ?linger_ns
                ~probe ~counters ~now:(clock ()) m
            with
            | Ok (flow, actions) -> `Flow (flow, actions, from)
            | Error (`Not_a_req | `Bad_geometry) -> await_flow ())
      end
  in
  match await_flow () with
  | `Gone ->
      Obs.Probe.complete probe Protocol.Action.Peer_unreachable;
      ignore
        (Obs.Probe.postmortem probe ~reason:"serve_one: peer unreachable" : string option);
      publish_metrics ();
      {
        data = "";
        transfer_id = 0;
        receive_counters = counters;
        integrity = Not_carried;
        receive_outcome = Protocol.Action.Peer_unreachable;
      }
  | `Flow (flow, actions, sender_address) ->
      let execute actions =
        List.iter
          (fun (Flow.Transmit m) ->
            transmit ?faults ~probe ~transport ~peer:sender_address m)
          actions;
        transport.Transport.flush ()
      in
      execute actions;
      let rec drive () =
        match Flow.status flow with
        | `Done completion -> completion
        | `Running | `Lingering -> begin
            let now = clock () in
            (* A live flow always has a deadline (watchdog or linger). *)
            let deadline = Option.value (Flow.next_deadline flow) ~default:now in
            if deadline - now <= 0 then begin
              execute (Flow.on_tick flow ~now);
              drive ()
            end
            else begin
              (match Transport.recv_message transport ~timeout_ns:(deadline - now) () with
              | `Timeout -> execute (Flow.on_tick flow ~now:(clock ()))
              | `Garbage reason -> Flow.on_garbage flow ~now:(clock ()) reason
              | `Message (m, _) ->
                  if m.Packet.Message.transfer_id = Flow.transfer_id flow then
                    execute (Flow.on_message flow ~now:(clock ()) m));
              drive ()
            end
          end
      in
      let completion = drive () in
      (match faults with
      | Some netem -> ignore (Faults.Netem.flush netem : Faults.Netem.emission list)
      | None -> ());
      transport.Transport.flush ();
      result_of_completion completion

let serve_one ?ctx ?linger_ns ?idle_timeout_ns ?accept_timeout_ns ?suite ~socket ()
    =
  let ctx = match ctx with Some c -> c | None -> Io_ctx.default () in
  let transport = Transport.udp ~batch:ctx.Io_ctx.batch ~socket () in
  serve_one_via ~ctx ?linger_ns ?idle_timeout_ns ?accept_timeout_ns ?suite
    ~transport ()
