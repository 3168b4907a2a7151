(** Sans-IO transfer flow: one end of one transfer, in either role.

    A flow is a pure state machine over explicit timestamps. It never
    touches a socket, a clock, or a thread: the driver (a {!Loop} client)
    feeds it decoded datagrams ([on_message]), undecodable ones
    ([on_garbage]), and time ([on_tick]), and executes the [Transmit]
    actions it returns. Timestamps are plain integer nanoseconds from any
    monotonic source; only differences are meaningful. The flow tells the
    driver when it next needs a tick via [next_deadline].

    {b Responding} ({!create}, from a REQ): handshake re-ack, datagram
    dispatch into the receiver machine, idle watchdog, post-completion
    linger and the whole-segment CRC verdict. It runs under
    [Server.Engine] — one instance for a one-transfer endpoint
    ([Server.Engine.receive_one]), hundreds multiplexed over one socket for
    a server — with identical protocol behaviour.

    {b Initiating} ({!initiate}, from the data): the sender under
    {!Peer.send} — the REQ handshake, then the sender machine with its RTT
    estimate (Karn's rule), pacing gap and idle watchdog.

    {b No-hang guarantee.} Every flow reaches [`Done]: the handshake gives
    up after the tuning's [max_attempts], the idle watchdog aborts a flow
    whose peer goes silent, the linger window is bounded, and [force_done]
    settles a flow unconditionally at driver shutdown.

    {b Telemetry.} A flow reports through its probe (datagrams, timeouts,
    its terminal [Complete]) and never dumps the probe's flight recorder:
    an engine's flows share one ring, so a failed flow cannot own it. The
    one-transfer endpoints ({!Peer}'s senders,
    [Server.Engine.receive_one]) dump on a failure outcome. *)

type action =
  | Transmit of Packet.Message.t
      (** datagram to send to the flow's peer; the driver owns loss/fault
          injection and the [Probe.tx] event *)

type integrity = Verified | Mismatch | Not_carried

type completion = {
  data : string;
      (** the reassembled transfer; [""] unless [Success], and [""] in every
          completion the flow reports after {!take_completion} handed the
          bytes over *)
  transfer_id : int;
  counters : Protocol.Counters.t;
  integrity : integrity;
      (** whole-segment CRC verdict — [Verified]/[Mismatch] when the sender
          carried a CRC in its REQ, [Not_carried] otherwise *)
  outcome : Protocol.Action.outcome;
}

type status = [ `Running | `Lingering | `Done of completion ]

type t

val create :
  ?fallback_suite:Protocol.Suite.t ->
  ?tuning:Protocol.Tuning.t ->
  ?budget:(unit -> int) ->
  ?idle_timeout_ns:int ->
  ?linger_ns:int ->
  ?max_transfer_bytes:int ->
  probe:Obs.Probe.t ->
  counters:Protocol.Counters.t ->
  now:int ->
  Packet.Message.t ->
  (t * action list, [ `Not_a_req | `Bad_geometry ]) result
(** Builds a flow from a geometry-carrying REQ. The returned actions open
    with the handshake ack. [`Not_a_req] when the message is not a REQ;
    [`Bad_geometry] when its payload does not decode, describes a
    non-positive size, or claims more than [max_transfer_bytes] (default
    256 MiB — a server must not let one unauthenticated datagram size an
    arbitrary allocation).

    [tuning] (default {!Protocol.Tuning.wire_default}) supplies the timers:
    idle watchdog defaults to [max_attempts * retransmit_ns], linger to
    [3 * retransmit_ns]. A budget-stamped (wire v2) REQ makes the flow
    adaptive regardless of the tuning's regime — its ACK/NACKs carry the
    receiver-advertised budget, sampled from [budget] at every solicit (the
    multiplexed server passes a closure over engine health; the default
    advertises the tuning's [max_train]). A plain v1 REQ pins the flow to
    fixed trains even under adaptive tuning: the sender cannot parse budgets
    it never asked for.

    The probe's [rx] fires for the REQ here; the suite normally travels in
    the REQ and [fallback_suite] only covers senders that omit it. *)

val max_packet_bytes : int
(** 65479: the largest payload whose wire-v2 datagram fits in one UDP
    datagram (65507 bytes). *)

val initiate :
  ?rtt:Protocol.Rtt.t ->
  ?idle_timeout_ns:int ->
  ?stripe:Packet.Stripe.t ->
  tuning:Protocol.Tuning.t ->
  packet_bytes:int ->
  suite:Protocol.Suite.t ->
  transfer_id:int ->
  probe:Obs.Probe.t ->
  counters:Protocol.Counters.t ->
  now:int ->
  string ->
  t * action list
(** The sending side of a transfer of the data; the action is the first
    REQ (geometry, suite, whole-segment CRC, [stripe] framing). The REQ is
    resent every retransmit interval of [tuning] — at once after a garbage
    or foreign datagram, which also costs an attempt — until ACK seq=0,
    a REJ ([Rejected]) or [max_attempts] ([Peer_unreachable]). Under
    adaptive tuning REQs 1–3 and every later odd one are wire v2, the rest
    v1; a budget on the ACK settles adaptive trains ({!adaptive}), a bare
    ACK negotiates down to fixed. The idle watchdog ([idle_timeout_ns],
    default [max_attempts * retransmit_ns]) starts at the ACK, and any
    datagram resets it. With [rtt] (created for adaptive tuning) timeouts
    follow clean round trips. Raises [Invalid_argument] on empty data or a
    [packet_bytes] outside [\[1, max_packet_bytes\]], before any datagram
    exists. *)

val transfer_id : t -> int
val counters : t -> Protocol.Counters.t
val probe : t -> Obs.Probe.t
val status : t -> status

val take_completion : t -> completion option
(** The hand-over: [Some c] exactly once, on the first call after the flow
    settles — for a success the moment the machine completes and the
    whole-segment CRC has been checked, so while the flow is still
    [`Lingering]; otherwise when it closes — and [None] before and ever
    after. [c.data] is the reassembly buffer itself, not a copy, and the
    flow keeps no reference to it: from then on the flow's own completion
    (in {!status} [`Done], or from {!force_done}) carries [""]. A driver
    that never takes the completion gets the bytes in [`Done], at the
    price of holding them through the linger. *)

val verified_stripe : t -> Packet.Stripe.entry option
(** The manifest entry this flow makes durable: [Some] once it has settled
    [Success] with the whole-segment CRC [Verified] (including during the
    linger) and its REQ carried ring framing. The entry is built from the
    size and CRC the REQ declared — which verification matched — so it
    needs no payload and no second CRC pass. *)

val total_bytes : t -> int
(** Transfer size the handshake REQ declared. *)

val stripe : t -> Packet.Stripe.t option
(** Ring framing the handshake REQ carried: which slice of which object
    this flow is, [None] for an ordinary (unstriped) transfer. *)

val adaptive : t -> bool
(** Does the flow run adaptive trains? A responder knows from the REQ, an
    initiator from the handshake ACK ([false] until then). *)

val started_ns : t -> int
(** When the transfer's clock started: the flow's creation, restarted at
    the handshake ACK for an initiator. *)

val pacing_gap : t -> int
(** Nanoseconds the driver sleeps after each DATA datagram it transmits:
    the adaptive controller's gap, or the tuning's fixed pacing ([0] for
    none and for a responder). *)

val total_packets : t -> int
(** Expected distinct data packets ([ceil (total_bytes / packet_bytes)]) —
    with [counters.delivered] this gives a live progress fraction for the
    server's stats plane. *)

val on_message : t -> now:int -> Packet.Message.t -> action list
(** Feed one decoded datagram. A responder ignores mismatched transfer
    ids; otherwise the idle watchdog resets, a duplicate REQ is answered
    with the handshake ack and anything else goes to the machine. While
    lingering, duplicates are re-answered without extending the linger
    window. An initiator's handshake consumes its reply (see {!initiate});
    once running, any datagram resets its watchdog and those of its
    transfer go to the machine. *)

val same_request : t -> Packet.Message.t -> bool
(** Is this REQ a retransmission of the handshake this flow answered — same
    geometry, same whole-segment CRC? [false] means the sender's address and
    transfer id have been reused by a different transfer (a restarted
    process landing on the same ephemeral port): the multiplexed server must
    settle this flow and admit the REQ fresh rather than feed it into a
    machine mid-way through someone else's transfer. *)

val on_garbage : t -> now:int -> Packet.Codec.error -> action list
(** An undecodable datagram attributed to this flow: counted (corruption
    vs. alien traffic, per the codec reason) and, while running, the idle
    watchdog resets — garbage is still evidence the peer is alive. During
    an initiator's handshake it costs an attempt: the REQ goes out again. *)

val on_tick : t -> now:int -> action list
(** Fires whatever is due at [now]: the handshake REQ timer, else the
    machine's retransmission timer, else the idle watchdog (aborts with
    [Peer_unreachable]), or linger expiry (settles to [`Done]) — one of
    them per call. Safe to call early; nothing due is a no-op. *)

val next_deadline : t -> int option
(** Earliest instant at which [on_tick] will have work; [None] once done.
    A running flow always has a deadline (the watchdog), so a driver can
    never sleep forever on a live flow. *)

val force_done : t -> now:int -> completion
(** Settles the flow immediately: a lingering flow closes with its result, a
    running one aborts with [Peer_unreachable]. For driver shutdown. *)

val count_garbage :
  probe:Obs.Probe.t -> Protocol.Counters.t -> Packet.Codec.error -> unit
(** Account one undecodable datagram outside any flow (pre-handshake
    traffic): checksum failures count as corruption, the rest as garbage —
    the same split the flows use. *)
