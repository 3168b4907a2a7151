let log = Logs.Src.create "sockets.flow" ~doc:"sans-IO receiver flow engine"

module Log = (val Logs.src_log log : Logs.LOG)

type action = Transmit of Packet.Message.t

type integrity = Verified | Mismatch | Not_carried

type completion = {
  data : string;
  transfer_id : int;
  counters : Protocol.Counters.t;
  integrity : integrity;
  outcome : Protocol.Action.outcome;
}

(* The completion a settled state carries holds the reassembled bytes only
   until [take_completion] hands them over; from then on it carries [""]. *)
type state =
  | Running
  | Lingering of completion  (** transfer done; re-acking duplicates until the deadline *)
  | Closed of completion

type status = [ `Running | `Lingering | `Done of completion ]

type t = {
  transfer_id : int;
  machine : Protocol.Machine.t;
  counters : Protocol.Counters.t;
  probe : Obs.Probe.t;
  handshake_ack : Packet.Message.t;
  mutable buffer : Bytes.t;  (** reassembly; [Bytes.empty] once settled *)
  packet_bytes : int;
  total_bytes : int;
  data_crc : int32 option;
  stripe : Packet.Stripe.t option;  (** ring framing carried by the REQ *)
  idle_timeout_ns : int;
  linger_ns : int;
  mutable machine_deadline : int option;  (** armed by the machine's [Arm_timer] *)
  mutable idle_deadline : int;  (** watchdog: abort when the sender goes silent *)
  mutable linger_deadline : int;  (** meaningful only in [Lingering] *)
  mutable state : state;
  mutable handed_over : bool;  (** {!take_completion} has returned the completion *)
}

let count_garbage ~probe (counters : Protocol.Counters.t) reason =
  Obs.Probe.reject probe reason;
  match reason with
  | Packet.Codec.Bad_header_checksum | Packet.Codec.Bad_payload_checksum ->
      counters.Protocol.Counters.corrupt_detected <-
        counters.Protocol.Counters.corrupt_detected + 1
  | _ ->
      counters.Protocol.Counters.garbage_received <-
        counters.Protocol.Counters.garbage_received + 1

let transfer_id t = t.transfer_id
let counters t = t.counters
let probe t = t.probe
let total_bytes t = t.total_bytes
let stripe t = t.stripe

let total_packets t =
  (t.total_bytes + t.packet_bytes - 1) / t.packet_bytes

let verified_stripe t =
  match (t.state, t.stripe, t.data_crc) with
  | ( ( Lingering { outcome = Protocol.Action.Success; integrity = Verified; _ }
      | Closed { outcome = Protocol.Action.Success; integrity = Verified; _ } ),
      Some stripe,
      Some crc ) ->
      Some { Packet.Stripe.stripe; bytes = t.total_bytes; crc }
  | _ -> None

let take_completion t =
  if t.handed_over then None
  else
    match t.state with
    | Running -> None
    | Lingering c ->
        t.handed_over <- true;
        t.state <- Lingering { c with data = "" };
        Some c
    | Closed c ->
        t.handed_over <- true;
        t.state <- Closed { c with data = "" };
        Some c

let status t =
  match t.state with
  | Running -> `Running
  | Lingering _ -> `Lingering
  | Closed completion -> `Done completion

let next_deadline t =
  match t.state with
  | Closed _ -> None
  | Lingering _ -> Some t.linger_deadline
  | Running -> (
      match t.machine_deadline with
      | None -> Some t.idle_deadline
      | Some d -> Some (min d t.idle_deadline))

let reset_idle t ~now = t.idle_deadline <- now + t.idle_timeout_ns

(* Deliveries blit into the pre-sized buffer. A payload whose length does not
   match the geometry (a hostile or miscounting sender slipping a valid CRC
   past the codec) is counted and dropped instead of raising: one bad flow
   must never take a multi-flow server down, and the whole-segment CRC check
   at completion catches the hole. *)
let deliver t ~seq ~payload =
  Obs.Probe.deliver t.probe ~seq;
  let offset = seq * t.packet_bytes in
  let expected =
    if offset < 0 || offset >= t.total_bytes then -1
    else min t.packet_bytes (t.total_bytes - offset)
  in
  if String.length payload <> expected then begin
    Log.warn (fun f ->
        f "flow %d: packet %d carries %d bytes, expected %d — dropped" t.transfer_id seq
          (String.length payload) expected);
    t.counters.Protocol.Counters.garbage_received <-
      t.counters.Protocol.Counters.garbage_received + 1
  end
  else Bytes.blit_string payload 0 t.buffer offset expected

let execute t ~now action acc =
  match action with
  | Protocol.Action.Send m -> Transmit m :: acc
  | Protocol.Action.Arm_timer ns ->
      t.machine_deadline <- Some (now + ns);
      acc
  | Protocol.Action.Stop_timer ->
      t.machine_deadline <- None;
      acc
  | Protocol.Action.Deliver { seq; payload } ->
      deliver t ~seq ~payload;
      acc
  | Protocol.Action.Complete _ -> acc

let run_actions t ~now actions =
  List.rev (List.fold_left (fun acc a -> execute t ~now a acc) [] actions)

(* The machine has settled, so nothing writes to the reassembly buffer again
   (a lingering flow only answers duplicates): it becomes the completion's
   [data] without a copy, and the flow drops its own reference. *)
let completion_of_machine t =
  let outcome =
    Option.value (t.machine.Protocol.Machine.outcome ()) ~default:Protocol.Action.Success
  in
  let data = Bytes.unsafe_to_string t.buffer in
  t.buffer <- Bytes.empty;
  let integrity =
    match (outcome, t.data_crc) with
    | Protocol.Action.Success, Some expected ->
        if Packet.Checksum.crc32_string data = expected then Verified else Mismatch
    | Protocol.Action.Success, None -> Not_carried
    | _, _ -> Not_carried
  in
  let data = match outcome with Protocol.Action.Success -> data | _ -> "" in
  { data; transfer_id = t.transfer_id; counters = t.counters; integrity; outcome }

let close t completion =
  Obs.Probe.complete t.probe completion.outcome;
  (match completion.outcome with
  | Protocol.Action.Success -> ()
  | outcome ->
      ignore
        (Obs.Probe.postmortem t.probe
           ~reason:(Format.asprintf "flow: %a" Protocol.Action.pp_outcome outcome)
          : string option));
  t.state <- Closed completion

(* After the machine reports completion the flow lingers: a sender whose
   final ack was lost re-sends its terminator, and the machine must keep
   answering for a grace period or the sender times out spuriously. *)
let on_machine_settled t ~now =
  let completion = completion_of_machine t in
  match completion.outcome with
  | Protocol.Action.Success ->
      t.machine_deadline <- None;
      t.linger_deadline <- now + t.linger_ns;
      t.state <- Lingering completion
  | _ -> close t completion

let abort t ~outcome =
  t.buffer <- Bytes.empty;
  let completion =
    { data = ""; transfer_id = t.transfer_id; counters = t.counters; integrity = Not_carried;
      outcome }
  in
  close t completion

let default_max_transfer_bytes = 256 * 1024 * 1024

let create ?fallback_suite ?(tuning = Protocol.Tuning.wire_default) ?budget
    ?idle_timeout_ns ?linger_ns ?(max_transfer_bytes = default_max_transfer_bytes) ~probe
    ~counters ~now req =
  if req.Packet.Message.kind <> Packet.Kind.Req then Error `Not_a_req
  else
    match Suite_codec.decode req.Packet.Message.payload with
    | None -> Error `Bad_geometry
    | Some info ->
        let packet_bytes = info.Suite_codec.packet_bytes in
        let total_bytes = info.Suite_codec.total_bytes in
        if packet_bytes <= 0 || total_bytes <= 0 || total_bytes > max_transfer_bytes then
          Error `Bad_geometry
        else begin
          let transfer_id = req.Packet.Message.transfer_id in
          let suite =
            match (info.Suite_codec.suite, fallback_suite) with
            | Some carried, _ -> carried (* the wire wins: both ends must match *)
            | None, Some fallback -> fallback
            | None, None -> Protocol.Suite.Blast Protocol.Blast.Go_back_n
          in
          (* A budget-stamped (wire v2) REQ asks for adaptive trains, and
             the receiver always obliges — answering with budget-stamped
             ACK/NACKs is how it sheds load through the protocol. A plain
             v1 REQ pins the flow to the fixed regime whatever this server
             prefers: the sender cannot parse budgets it never asked for. *)
          let adaptive_req = Packet.Message.budget req <> None in
          let retransmit_ns = Protocol.Tuning.retransmit_ns tuning in
          let max_attempts = Protocol.Tuning.max_attempts tuning in
          let tuning =
            if adaptive_req then
              if Protocol.Tuning.is_adaptive tuning then tuning
              else Protocol.Tuning.adaptive ~retransmit_ns ~max_attempts ()
            else Protocol.Tuning.negotiate_down tuning
          in
          let total_packets = (total_bytes + packet_bytes - 1) / packet_bytes in
          let config =
            Protocol.Config.make ~transfer_id ~packet_bytes ~tuning ~total_packets ()
          in
          let budget_now () =
            match budget with
            | Some f -> f ()
            | None -> (
                match Protocol.Tuning.aimd tuning with
                | Some a -> a.Protocol.Tuning.max_train
                | None -> 0xFFFF)
          in
          let machine = Protocol.Suite.receiver suite ~counters ~budget:budget_now config in
          let idle_timeout_ns =
            Option.value idle_timeout_ns ~default:(max_attempts * retransmit_ns)
          in
          let linger_ns = Option.value linger_ns ~default:(3 * retransmit_ns) in
          let handshake_ack =
            let ack = Packet.Message.ack ~transfer_id ~seq:0 ~total:total_packets in
            if adaptive_req then Packet.Message.with_budget ack (max 0 (budget_now ()))
            else ack
          in
          let t =
            {
              transfer_id;
              machine;
              counters;
              probe;
              handshake_ack;
              buffer = Bytes.create total_bytes;
              packet_bytes;
              total_bytes;
              data_crc = info.Suite_codec.data_crc;
              stripe = info.Suite_codec.stripe;
              idle_timeout_ns;
              linger_ns;
              machine_deadline = None;
              idle_deadline = now + idle_timeout_ns;
              linger_deadline = 0;
              state = Running;
              handed_over = false;
            }
          in
          Obs.Probe.rx probe req;
          let actions = run_actions t ~now (machine.Protocol.Machine.start ()) in
          Ok (t, (Transmit t.handshake_ack :: actions))
        end

(* Does this REQ describe the transfer this flow is already receiving? A
   retransmitted handshake carries the same geometry and whole-segment CRC;
   a REQ from a restarted process that happened to reuse the ephemeral port
   and transfer id almost surely differs in one of them. (A restarted sender
   pushing the *identical* segment is indistinguishable from a duplicate —
   and harmless, since re-deliveries blit identical bytes.) *)
let same_request t req =
  req.Packet.Message.kind = Packet.Kind.Req
  &&
  match Suite_codec.decode req.Packet.Message.payload with
  | None -> false
  | Some info ->
      info.Suite_codec.packet_bytes = t.packet_bytes
      && info.Suite_codec.total_bytes = t.total_bytes
      && info.Suite_codec.data_crc = t.data_crc

let on_message t ~now message =
  if message.Packet.Message.transfer_id <> t.transfer_id then []
  else
    match t.state with
    | Closed _ -> []
    | Lingering _ ->
        (* Fixed deadline, as the single-flow server behaved: duplicates are
           answered but do not extend the linger. *)
        Obs.Probe.rx t.probe message;
        let actions =
          List.filter_map
            (function Protocol.Action.Send reply -> Some (Transmit reply) | _ -> None)
            (t.machine.Protocol.Machine.handle (Protocol.Action.Message message))
        in
        Obs.Probe.handled t.probe message;
        actions
    | Running ->
        reset_idle t ~now;
        Obs.Probe.rx t.probe message;
        (* A duplicate REQ means our handshake ack was lost: re-ack before
           the machine — which keys on the shared transfer id — sees it. *)
        if message.Packet.Message.kind = Packet.Kind.Req then begin
          Obs.Probe.handled t.probe message;
          [ Transmit t.handshake_ack ]
        end
        else begin
          let actions =
            run_actions t ~now (t.machine.Protocol.Machine.handle (Protocol.Action.Message message))
          in
          Obs.Probe.handled t.probe message;
          if t.machine.Protocol.Machine.is_complete () then on_machine_settled t ~now;
          actions
        end

let on_garbage t ~now reason =
  match t.state with
  | Closed _ -> ()
  | Lingering _ -> count_garbage ~probe:t.probe t.counters reason
  | Running ->
      reset_idle t ~now;
      count_garbage ~probe:t.probe t.counters reason;
      Log.debug (fun f ->
          f "flow %d: dropping undecodable datagram (%a)" t.transfer_id Packet.Codec.pp_error
            reason)

let on_tick t ~now =
  match t.state with
  | Closed _ -> []
  | Lingering completion ->
      if t.linger_deadline - now <= 0 then close t completion;
      []
  | Running -> (
      match t.machine_deadline with
      | Some d when d - now <= 0 ->
          t.machine_deadline <- None;
          Obs.Probe.timeout t.probe ();
          let actions =
            run_actions t ~now (t.machine.Protocol.Machine.handle Protocol.Action.Timeout)
          in
          if t.machine.Protocol.Machine.is_complete () then on_machine_settled t ~now;
          actions
      | _ ->
          if t.idle_deadline - now <= 0 then begin
            Log.debug (fun f ->
                f "flow %d: idle watchdog — no datagram for %.1f ms, aborting" t.transfer_id
                  (float_of_int t.idle_timeout_ns /. 1e6));
            Obs.Probe.timeout t.probe ~detail:"idle-watchdog" ();
            abort t ~outcome:Protocol.Action.Peer_unreachable
          end;
          [])

let force_done t ~now =
  ignore now;
  match t.state with
  | Closed completion -> completion
  | Lingering completion ->
      close t completion;
      completion
  | Running ->
      Obs.Probe.timeout t.probe ~detail:"forced-shutdown" ();
      abort t ~outcome:Protocol.Action.Peer_unreachable;
      (match t.state with
      | Closed completion -> completion
      | _ -> assert false)
