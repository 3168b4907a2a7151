(** Bulk transfer over real UDP sockets.

    The same protocol machines that drive the simulator run here against the
    operating system's network stack. A transfer is preceded by a reliable
    handshake: the sender repeats a geometry-carrying [REQ] until the
    receiver answers with [ACK seq=0]; the receiver sizes its buffer from the
    geometry — the V kernel's buffers-before-transfer contract — and then
    both sides run their machines.

    Fault injection, telemetry, the clock, the batching switch and the
    {!Protocol.Tuning.t} (timers, attempts, train adaptation, pacing) all
    travel in one {!Io_ctx.t} ([?ctx]); by default the context is empty with
    the monotonic clock, batching per the [LANREPRO_BATCH] knob, and
    {!Protocol.Tuning.wire_default}. Loopback never drops datagrams, so
    faults are injected at the endpoints: a {!Faults.Netem} (via
    [ctx.faults]) runs each endpoint's outgoing datagrams through plain iid
    loss ([Drop_iid p]) or the full adversarial pipeline — bursts,
    duplication, reordering, bit flips, truncation, delay.

    Each end is one sans-IO {!Flow} — initiating under {!send}, responding
    under {!serve_one} — driven by a {!Loop}: the loop waits for the flow's
    own next deadline, ticks it once per wakeup, hands it one datagram per
    wakeup, and puts netem-delayed emissions on its timer. With
    [ctx.tuning = Adaptive _] the handshake negotiates AIMD trains with a
    receiver-advertised budget, falling back to fixed trains against a
    v1-only receiver (see {!Flow.initiate}).

    {b Batched I/O.} With [ctx.batch] (the default), each burst of protocol
    sends — a blast round — leaves at the loop's next flush point as one
    packet train through {!Batch.flush} ([sendmmsg]); partial kernel
    acceptance degrades to per-datagram loss accounting, never an
    exception. A paced sender (tuning pacing other than [No_pacing]) stays
    on the one-datagram path and sleeps the gap after each DATA datagram,
    since a train has no inter-packet gaps.

    {b No-hang guarantee.} Every entry point is bounded: the handshake gives
    up after the tuning's [max_attempts]; each flow's idle watchdog
    (default [max_attempts * retransmit_ns]) trips when the far end stops
    sending datagrams; and both sides then return the clean
    [Peer_unreachable] outcome instead of blocking or raising. The only
    unbounded wait is [serve_one]'s initial listen for a REQ, and
    [accept_timeout_ns] bounds that too; its socket has no poller, so the
    loop wakes at its 50 ms cap while idle. *)

type send_result = {
  outcome : Protocol.Action.outcome;
  elapsed_ns : int;  (** handshake completion to transfer completion *)
  counters : Protocol.Counters.t;
  adaptive : bool;
      (** did the handshake settle on adaptive trains? [false] under fixed
          tuning, and for adaptive tuning negotiated down by a budget-less
          ACK — the signature of an old (v1-only) receiver. A live receiver
          always obliges an adaptive REQ, whatever its own tuning. *)
}

type integrity = Flow.integrity = Verified | Mismatch | Not_carried

type receive_result = {
  data : string;  (** the reassembled transfer; [""] on [Peer_unreachable] *)
  transfer_id : int;
  receive_counters : Protocol.Counters.t;
  integrity : integrity;
      (** result of the whole-segment software CRC the sender carries in its
          REQ — Spector's end-to-end check (paper reference [18]) *)
  receive_outcome : Protocol.Action.outcome;
      (** [Success] for a completed transfer; [Peer_unreachable] when the
          idle watchdog (or accept timeout) aborted the wait *)
}

val send_via :
  ?ctx:Io_ctx.t ->
  ?transfer_id:int ->
  ?packet_bytes:int ->
  ?rtt:Protocol.Rtt.t ->
  ?idle_timeout_ns:int ->
  ?stripe:Packet.Stripe.t ->
  transport:Transport.t ->
  peer:Unix.sockaddr ->
  suite:Protocol.Suite.t ->
  data:string ->
  unit ->
  send_result
(** {!send} against an abstract {!Transport.t}: everything but the socket.
    [ctx.clock] must be the transport's notion of time (virtual time for a
    memnet transport); [ctx.batch] is ignored, the transport already decided
    how it sends. This is the entry point the deterministic-simulation
    harness drives over an in-memory network, where a closed endpoint's
    [Memnet.Net.Closed] propagates out. *)

val send :
  ?ctx:Io_ctx.t ->
  ?transfer_id:int ->
  ?packet_bytes:int ->
  ?rtt:Protocol.Rtt.t ->
  ?idle_timeout_ns:int ->
  ?stripe:Packet.Stripe.t ->
  socket:Unix.file_descr ->
  peer:Unix.sockaddr ->
  suite:Protocol.Suite.t ->
  data:string ->
  unit ->
  send_result
(** Pushes [data] to [peer] — with [stripe], as a ring sub-transfer whose
    REQ carries the {!Packet.Stripe} framing. Timers, attempts, train
    adaptation and pacing come from [ctx.tuning]; packets default to 1024
    bytes. When [transfer_id] is omitted a fresh process-unique id is drawn
    ({!Protocol.Config.fresh_transfer_id}), so concurrent senders from one
    process cannot collide on a server's [(sockaddr, transfer_id)] key. A
    handshake that exhausts its attempts returns [Peer_unreachable] (it does
    not raise); empty data or [packet_bytes] outside [\[1, 65479\]]
    raise [Invalid_argument] before any datagram is sent. With [rtt],
    timeouts adapt to measured round trips instead of the fixed interval
    (adaptive tuning creates an estimator automatically); pacing sleeps
    after each data datagram so an unthrottled blast does not overrun the
    receiver's socket buffer (and disables batching). [elapsed_ns] runs
    from the handshake ACK (from the first REQ if none came).

    [ctx.faults] runs every outgoing datagram through a Netem pipeline (its
    injection count is surfaced in [counters.faults_injected]).
    [ctx.recorder] journals the sender's datagram events on lane ["sender"]
    (timestamps from [ctx.clock], normalized to the first event) and is
    dumped ({!Obs.Recorder.postmortem}, reason ["send: <outcome>"]) on a
    non-[Success] outcome. [ctx.metrics] receives
    the counter record and an elapsed-time gauge, labelled
    [side=sender, transport=udp]. *)

val serve_one :
  ?ctx:Io_ctx.t ->
  ?idle_timeout_ns:int ->
  ?accept_timeout_ns:int ->
  ?suite:Protocol.Suite.t ->
  socket:Unix.file_descr ->
  unit ->
  receive_result
(** Accepts one incoming transfer and returns the reassembled data. Timers
    come from [ctx.tuning]; after the transfer completes the receiver
    lingers for 3x the retransmission interval to re-acknowledge duplicate
    terminators from a sender whose final ack was lost. The protocol suite
    normally travels in the REQ, so both ends match automatically; [suite]
    is only a fallback for senders that omit it. An adaptive
    (budget-stamped) REQ is always honoured — see {!Flow.create}.

    Blocks until a [REQ] arrives unless [accept_timeout_ns] is given. Once a
    transfer is underway, a sender that goes silent for [idle_timeout_ns]
    (default [max_attempts * retransmit_ns]) trips the watchdog and the call
    returns with [receive_outcome = Peer_unreachable] — [serve_one] can no
    longer block indefinitely on a dead sender.

    [ctx.recorder] journals the receiver's datagram events on lane
    ["receiver"]; sharing one recorder between [send] and [serve_one] is
    safe — it is thread-safe and the clock installation is idempotent. It
    is dumped on a non-[Success] outcome, reason ["flow: <outcome>"] (or
    ["serve_one: peer unreachable"] when no transfer arrived).
    [ctx.metrics] receives the counter record labelled
    [side=receiver, transport=udp]. *)
