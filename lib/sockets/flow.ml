let log = Logs.Src.create "sockets.flow" ~doc:"sans-IO transfer flow engine"

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
  | Handshake  (** initiator only: REQ out, waiting for ACK seq=0 *)
  | Running
  | Lingering of completion  (** transfer done; re-acking duplicates until the deadline *)
  | Closed of completion

type status = [ `Running | `Lingering | `Done of completion ]

(* What only the initiating side carries: the handshake it retries, and the
   timer and pacing bookkeeping of the sender machine it runs after the ACK. *)
type initiator = {
  tuning : Protocol.Tuning.t;
  sender : ?ctrl:Protocol.Adapt.t -> Protocol.Tuning.t -> Protocol.Machine.t;
  rtt : Protocol.Rtt.t option;
  mutable attempt : int;  (** REQs sent so far *)
  mutable ctrl : Protocol.Adapt.t option;  (** AIMD controller, once adaptive *)
  mutable last_send : int option;
      (** [None] after a timeout's retransmission: only round trips no
          timeout interrupted are sampled (Karn's rule) *)
}

type t = {
  transfer_id : int;
  mutable machine : Protocol.Machine.t;
      (** an initiator's is the fixed one a bare ACK settles, until a
          budget-stamped ACK swaps in the adaptive one *)
  counters : Protocol.Counters.t;
  probe : Obs.Probe.t;
  handshake : Packet.Message.t;
      (** what this end repeats until the handshake holds: the responder's
          ACK seq=0, the initiator's (v1) REQ *)
  mutable buffer : Bytes.t;  (** reassembly; [Bytes.empty] once settled *)
  packet_bytes : int;
  total_bytes : int;
  data_crc : int32 option;
  stripe : Packet.Stripe.t option;  (** ring framing carried by the REQ *)
  idle_timeout_ns : int;
  linger_ns : int;
  mutable adaptive : bool;
  mutable started_ns : int;  (** creation; an initiator restarts it at the ACK *)
  mutable machine_deadline : int option;
      (** armed by the machine's [Arm_timer]; the REQ timer in [Handshake] *)
  mutable idle_deadline : int;  (** watchdog: abort when the sender goes silent *)
  mutable linger_deadline : int;  (** meaningful only in [Lingering] *)
  mutable state : state;
  mutable handed_over : bool;  (** {!take_completion} has returned the completion *)
  initiator : initiator option;  (** [None] on the responding side *)
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
let adaptive t = t.adaptive
let started_ns t = t.started_ns

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
    | Handshake | Running -> None
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
  | Handshake | Running -> `Running
  | Lingering _ -> `Lingering
  | Closed completion -> `Done completion

let next_deadline t =
  match t.state with
  | Closed _ -> None
  | Handshake -> t.machine_deadline
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

(* The inter-packet gap the driver sleeps after each DATA datagram: the
   adaptive controller's, or a fixed tuning's — where [Rtt_spread] spreads a
   nominal 32-packet train across the smoothed RTT. A responder never paces. *)
let pacing_gap t =
  match t.initiator with
  | None -> 0
  | Some i -> (
      let srtt_ns = Option.bind i.rtt Protocol.Rtt.srtt_ns in
      match (i.ctrl, Protocol.Tuning.pacing i.tuning) with
      | Some c, _ -> Protocol.Adapt.pacing_gap_ns c ~srtt_ns
      | None, Protocol.Tuning.No_pacing -> 0
      | None, Protocol.Tuning.Fixed_gap ns -> ns
      | None, Protocol.Tuning.Rtt_spread -> (
          match srtt_ns with Some srtt when srtt > 0 -> srtt / 32 | Some _ | None -> 0))

(* [at] is the sender's clock as the driver will see it: it sleeps the
   pacing gap after each DATA datagram, so a timer armed behind a paced
   train starts when the train has left. *)
let execute t ~at action acc =
  match action with
  | Protocol.Action.Send m ->
      (match t.initiator with
      | None -> ()
      | Some i ->
          if m.Packet.Message.kind = Packet.Kind.Data then at := !at + pacing_gap t;
          i.last_send <- Some !at);
      Transmit m :: acc
  | Protocol.Action.Arm_timer ns ->
      let ns =
        match t.initiator with
        | Some { rtt = Some r; _ } -> Protocol.Rtt.timeout_ns r
        | _ -> ns
      in
      t.machine_deadline <- Some (!at + ns);
      acc
  | Protocol.Action.Stop_timer ->
      t.machine_deadline <- None;
      acc
  | Protocol.Action.Deliver { seq; payload } ->
      deliver t ~seq ~payload;
      acc
  | Protocol.Action.Complete _ -> acc

let run_actions t ~now actions =
  let at = ref now in
  List.rev (List.fold_left (fun acc a -> execute t ~at a acc) [] actions)

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
      let side = if Option.is_none t.initiator then "flow" else "send" in
      ignore
        (Obs.Probe.postmortem t.probe
           ~reason:(Format.asprintf "%s: %a" side Protocol.Action.pp_outcome outcome)
          : string option));
  t.state <- Closed completion

let abort t ~outcome =
  t.buffer <- Bytes.empty;
  let completion =
    { data = ""; transfer_id = t.transfer_id; counters = t.counters; integrity = Not_carried;
      outcome }
  in
  close t completion

(* After the machine reports completion a responder lingers: a sender whose
   final ack was lost re-sends its terminator, and the machine must keep
   answering for a grace period or the sender times out spuriously. An
   initiator is done. *)
let on_machine_settled t ~now =
  match t.initiator with
  | Some _ ->
      abort t
        ~outcome:
          (Option.value (t.machine.Protocol.Machine.outcome ())
             ~default:Protocol.Action.Peer_unreachable)
  | None -> (
      let completion = completion_of_machine t in
      match completion.outcome with
      | Protocol.Action.Success ->
          t.machine_deadline <- None;
          t.linger_deadline <- now + t.linger_ns;
          t.state <- Lingering completion
      | _ -> close t completion)

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
          let handshake =
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
              handshake;
              buffer = Bytes.create total_bytes;
              packet_bytes;
              total_bytes;
              data_crc = info.Suite_codec.data_crc;
              stripe = info.Suite_codec.stripe;
              idle_timeout_ns;
              linger_ns;
              adaptive = adaptive_req;
              started_ns = now;
              machine_deadline = None;
              idle_deadline = now + idle_timeout_ns;
              linger_deadline = 0;
              state = Running;
              handed_over = false;
              initiator = None;
            }
          in
          Obs.Probe.rx probe req;
          let actions = run_actions t ~now (machine.Protocol.Machine.start ()) in
          Ok (t, (Transmit t.handshake :: actions))
        end

(* ------------------------------------------------------- initiating role *)

let max_packet_bytes = 65_507 - Packet.Codec.header_bytes_v2

(* An adaptive sender announces itself with a budget-stamped (wire v2) REQ.
   An old receiver drops v2 as undecodable, so after two silent attempts the
   sender starts alternating plain v1 REQs: whichever version draws the ACK
   decides the regime — a budget on the handshake ACK confirms adaptive
   trains, a bare ACK negotiates down to fixed. *)
let req_for t i =
  if Protocol.Tuning.is_adaptive i.tuning && (i.attempt <= 2 || i.attempt mod 2 = 1) then
    Packet.Message.with_budget t.handshake 0
  else t.handshake

(* The handshake is strictly send-one-wait-one: every retry resends the REQ
   at once and restarts its timer. A peer that never answers is a clean
   [Peer_unreachable], not an exception. *)
let retry_req t i ~now =
  i.attempt <- i.attempt + 1;
  if i.attempt > Protocol.Tuning.max_attempts i.tuning then begin
    Log.info (fun f -> f "handshake exhausted %d attempts; peer unreachable" (i.attempt - 1));
    abort t ~outcome:Protocol.Action.Peer_unreachable;
    []
  end
  else begin
    t.machine_deadline <- Some (now + Protocol.Tuning.retransmit_ns i.tuning);
    [ Transmit (req_for t i) ]
  end

let acknowledged t i ~now budget =
  if Protocol.Tuning.is_adaptive i.tuning && budget <> None then begin
    let c = Protocol.Adapt.create (Option.get (Protocol.Tuning.aimd i.tuning)) in
    (match budget with
    | Some b when b > 0 ->
        Protocol.Adapt.on_budget c ~budget:b;
        (* Open at the receiver's advertisement: flow control already said
           this train fits, so skip the additive ramp. *)
        Protocol.Adapt.open_train c ~train:b
    | _ -> ());
    i.ctrl <- Some c;
    t.machine <- i.sender ~ctrl:c i.tuning;
    t.adaptive <- true
  end;
  t.started_ns <- now;
  t.machine_deadline <- None;
  reset_idle t ~now;
  t.state <- Running;
  run_actions t ~now (t.machine.Protocol.Machine.start ())

(* Only ACK seq=0 with the REQ's geometry, or a REJ, for this transfer
   answers the REQ; anything else costs an attempt. An ACK seq=0 with
   another [total] answers an earlier transfer on this address and id. *)
let handshake_reply t i ~now m =
  if m.Packet.Message.transfer_id <> t.transfer_id then retry_req t i ~now
  else
    match m.Packet.Message.kind with
    | Packet.Kind.Ack
      when m.Packet.Message.seq = 0
           && m.Packet.Message.total = t.handshake.Packet.Message.total ->
        acknowledged t i ~now (Packet.Message.budget m)
    | Packet.Kind.Rej ->
        (* Admission refusal from a saturated server: retrying into it only
           adds load, so the sender gives up immediately. *)
        Obs.Probe.rx t.probe m;
        Log.info (fun f -> f "transfer %d rejected: server at capacity" t.transfer_id);
        abort t ~outcome:Protocol.Action.Rejected;
        []
    | _ -> retry_req t i ~now

let initiate ?rtt ?idle_timeout_ns ?stripe ~tuning ~packet_bytes ~suite ~transfer_id ~probe
    ~counters ~now data =
  (* Named for the public entry point: bad input is the caller's, and must
     fail before any datagram exists. *)
  if String.length data = 0 then invalid_arg "Peer.send: empty data";
  if packet_bytes < 1 || packet_bytes > max_packet_bytes then
    invalid_arg
      (Printf.sprintf "Peer.send: packet_bytes %d outside [1, %d]" packet_bytes
         max_packet_bytes);
  let retransmit_ns = Protocol.Tuning.retransmit_ns tuning in
  let max_attempts = Protocol.Tuning.max_attempts tuning in
  (* RTT estimation is load-bearing for adaptive tuning (pacing and timeout
     both derive from it), an opt-in refinement otherwise. *)
  let rtt =
    match rtt with
    | None when Protocol.Tuning.is_adaptive tuning ->
        Some (Protocol.Rtt.create ~initial_ns:retransmit_ns ())
    | rtt -> rtt
  in
  let total_bytes = String.length data in
  let total_packets = (total_bytes + packet_bytes - 1) / packet_bytes in
  let data_crc = Packet.Checksum.crc32_string data in
  let handshake =
    {
      (Packet.Message.req ~transfer_id ~total:total_packets) with
      Packet.Message.payload =
        Suite_codec.encode ~data_crc ?stripe ~packet_bytes ~total_bytes suite;
    }
  in
  let sender ?ctrl tuning =
    let config = Protocol.Config.make ~transfer_id ~packet_bytes ~tuning ~total_packets () in
    Protocol.Suite.sender suite ~counters ?ctrl config ~payload:(fun seq ->
        let offset = seq * packet_bytes in
        String.sub data offset (min packet_bytes (total_bytes - offset)))
  in
  let i = { tuning; sender; rtt; attempt = 1; ctrl = None; last_send = None } in
  let t =
    {
      transfer_id;
      machine = sender (Protocol.Tuning.negotiate_down tuning);
      counters;
      probe;
      handshake;
      buffer = Bytes.empty;
      packet_bytes;
      total_bytes;
      data_crc = Some data_crc;
      stripe;
      idle_timeout_ns = Option.value idle_timeout_ns ~default:(max_attempts * retransmit_ns);
      linger_ns = 0;
      adaptive = false;
      started_ns = now;
      machine_deadline = Some (now + retransmit_ns);
      idle_deadline = max_int;
      linger_deadline = 0;
      state = Handshake;
      handed_over = false;
      initiator = Some i;
    }
  in
  (t, [ Transmit (req_for t i) ])

(* ------------------------------------------------------------ both roles *)

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
  let own = message.Packet.Message.transfer_id = t.transfer_id in
  match (t.state, t.initiator) with
  | Closed _, _ -> []
  | Handshake, Some i -> handshake_reply t i ~now message
  | Running, Some _ when not own ->
      (* Any datagram is evidence the receiver is alive. *)
      reset_idle t ~now;
      []
  | _ when not own -> []
  | Lingering _, _ ->
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
  | (Running | Handshake), _ ->
      reset_idle t ~now;
      Obs.Probe.rx t.probe message;
      (* A duplicate REQ means our handshake ack was lost: re-ack before
         the machine — which keys on the shared transfer id — sees it. *)
      if message.Packet.Message.kind = Packet.Kind.Req && Option.is_none t.initiator then begin
        Obs.Probe.handled t.probe message;
        [ Transmit t.handshake ]
      end
      else begin
        (* Adaptive timeout: sample clean round trips (Karn's rule). *)
        (match t.initiator with
        | Some { rtt = Some r; last_send = Some sent; _ } ->
            let sample_ns = now - sent in
            if sample_ns > 0 then Protocol.Rtt.observe r ~sample_ns
        | _ -> ());
        let actions =
          run_actions t ~now (t.machine.Protocol.Machine.handle (Protocol.Action.Message message))
        in
        Obs.Probe.handled t.probe message;
        if t.machine.Protocol.Machine.is_complete () then on_machine_settled t ~now;
        actions
      end

let on_garbage t ~now reason =
  (match t.state with Closed _ -> () | _ -> count_garbage ~probe:t.probe t.counters reason);
  match (t.state, t.initiator) with
  | Handshake, Some i -> retry_req t i ~now
  | Running, _ ->
      reset_idle t ~now;
      Log.debug (fun f ->
          f "flow %d: dropping undecodable datagram (%a)" t.transfer_id Packet.Codec.pp_error
            reason);
      []
  | _ -> []

let on_tick t ~now =
  match t.state with
  | Closed _ -> []
  | Lingering completion ->
      if t.linger_deadline - now <= 0 then close t completion;
      []
  | Handshake -> (
      match (t.machine_deadline, t.initiator) with
      | Some d, Some i when d - now <= 0 ->
          Obs.Probe.timeout t.probe ~detail:"handshake" ();
          retry_req t i ~now
      | _ -> [])
  | Running -> (
      match t.machine_deadline with
      | Some d when d - now <= 0 ->
          t.machine_deadline <- None;
          Obs.Probe.timeout t.probe ();
          (* Back the retransmission timeout off on expiry. The round trip a
             timeout interrupted is ambiguous, so its retransmission arms no
             RTT sample (Karn's rule). *)
          Option.iter Protocol.Rtt.backoff (Option.bind t.initiator (fun i -> i.rtt));
          let actions =
            run_actions t ~now (t.machine.Protocol.Machine.handle Protocol.Action.Timeout)
          in
          Option.iter (fun i -> i.last_send <- None) t.initiator;
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
  | Handshake | Running ->
      Obs.Probe.timeout t.probe ~detail:"forced-shutdown" ();
      abort t ~outcome:Protocol.Action.Peer_unreachable;
      (match t.state with
      | Closed completion -> completion
      | _ -> assert false)
