(** Sans-IO receiver flow engine.

    The receiver half of a transfer — handshake re-ack, datagram dispatch
    into the protocol machine, idle watchdog, post-completion linger, and the
    whole-segment CRC verdict — as a pure state machine over explicit
    timestamps. The engine never touches a socket, a clock, or a thread: the
    driver feeds it decoded datagrams ([on_message]), undecodable ones
    ([on_garbage]), and time ([on_tick]), and executes the [Transmit] actions
    it returns. The same engine therefore runs single-flow under
    {!Peer.serve_one} and multiplexed — hundreds of instances over one
    socket — under the concurrent server, with identical protocol behaviour.

    Timestamps are plain integer nanoseconds from any monotonic source; only
    differences are meaningful. The flow tells the driver when it next needs
    a tick via [next_deadline]; drivers sleep until the earliest deadline
    across their flows.

    {b No-hang guarantee.} Every flow reaches [`Done]: the idle watchdog
    aborts a flow whose sender goes silent, the linger window is bounded,
    and [force_done] settles a flow unconditionally at driver shutdown. *)

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

val total_packets : t -> int
(** Expected distinct data packets ([ceil (total_bytes / packet_bytes)]) —
    with [counters.delivered] this gives a live progress fraction for the
    server's stats plane. *)

val on_message : t -> now:int -> Packet.Message.t -> action list
(** Feed one decoded datagram (the loop feeding it has already routed it
    by transfer id; mismatched ids are ignored). Resets the idle
    watchdog. A duplicate REQ is answered with the handshake ack; anything
    else goes to the machine. While lingering, duplicates are re-answered
    without extending the linger window. *)

val same_request : t -> Packet.Message.t -> bool
(** Is this REQ a retransmission of the handshake this flow answered — same
    geometry, same whole-segment CRC? [false] means the sender's address and
    transfer id have been reused by a different transfer (a restarted
    process landing on the same ephemeral port): the multiplexed server must
    settle this flow and admit the REQ fresh rather than feed it into a
    machine mid-way through someone else's transfer. *)

val on_garbage : t -> now:int -> Packet.Codec.error -> unit
(** An undecodable datagram attributed to this flow: counted (corruption
    vs. alien traffic, per the codec reason) and, while running, the idle
    watchdog resets — garbage is still evidence the peer is alive. *)

val on_tick : t -> now:int -> action list
(** Fires whatever is due at [now]: the machine's retransmission timer, the
    idle watchdog (aborts with [Peer_unreachable]), or linger expiry
    (settles to [`Done]). Safe to call early; nothing due is a no-op. *)

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
