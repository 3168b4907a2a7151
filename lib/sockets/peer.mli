(** Bulk transfer over real UDP sockets: the initiating side.

    The same protocol machines that drive the simulator run here against the
    operating system's network stack. A transfer is preceded by a reliable
    handshake: the sender repeats a geometry-carrying [REQ] until the
    receiver answers with [ACK seq=0]; the receiver sizes its buffer from the
    geometry — the V kernel's buffers-before-transfer contract — and then
    both sides run their machines. The receiving side is [Server.Engine],
    for one transfer ([Server.Engine.receive_one]) or many.

    Fault injection, telemetry, the clock, the batching switch and the
    {!Protocol.Tuning.t} (timers, attempts, train adaptation, pacing) all
    travel in one {!Io_ctx.t} ([?ctx]); by default the context is empty with
    the monotonic clock, batching per the [LANREPRO_BATCH] knob, and
    {!Protocol.Tuning.wire_default}. Loopback never drops datagrams, so
    faults are injected at the endpoints: a {!Faults.Netem} (via
    [ctx.faults]) runs the sender's outgoing datagrams through plain iid
    loss ([Drop_iid p]) or the full adversarial pipeline — bursts,
    duplication, reordering, bit flips, truncation, delay.

    Each transfer is one initiating sans-IO {!Flow}, driven by a {!Loop}:
    the loop waits for the flows' own next deadline, ticks them once per
    wakeup, hands over one datagram per wakeup, and puts netem-delayed
    emissions on its timer. {!send_all_via} runs many initiating flows on
    one such loop, one transport and one clock; {!send_via} is its one-flow
    case. With [ctx.tuning = Adaptive _] the handshake negotiates AIMD
    trains with a receiver-advertised budget, falling back to fixed trains
    against a v1-only receiver (see {!Flow.initiate}).

    {b Batched I/O.} With [ctx.batch] (the default), each burst of protocol
    sends — a blast round — leaves at the loop's next flush point as one
    packet train through {!Batch.flush} ([sendmmsg]); partial kernel
    acceptance degrades to per-datagram loss accounting, never an
    exception. A paced sender (tuning pacing other than [No_pacing]) stays
    on the one-datagram path and sleeps the gap after each DATA datagram,
    since a train has no inter-packet gaps.

    {b No-hang guarantee.} Every entry point is bounded: the handshake gives
    up after the tuning's [max_attempts], and each flow's idle watchdog
    (default [max_attempts * retransmit_ns]) trips when the far end stops
    sending datagrams; the flow then returns the clean [Peer_unreachable]
    outcome instead of blocking or raising. *)

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

type transfer = {
  peer : Unix.sockaddr;
  transfer_id : int;
  stripe : Packet.Stripe.t option;
  suite : Protocol.Suite.t;
  data : string;
}
(** One initiating flow of {!send_all_via}: {!send}'s arguments. *)

val send_all_via :
  ?ctx:Io_ctx.t ->
  ?packet_bytes:int ->
  ?rtt:Protocol.Rtt.t ->
  ?idle_timeout_ns:int ->
  transport:Transport.t ->
  transfer list ->
  send_result list
(** Every transfer as its own initiating {!Flow}, all in flight at once on
    one {!Loop} over [transport] and [ctx.clock]: one result per transfer,
    in order, each with its own counters and probe, timed to its own
    settling. [rtt], if given, is shared. Nothing outlives the call.

    The loop ticks every flow per wakeup and hands over one datagram,
    routed by source: to the flow keyed by (source, transfer id), else to
    every flow of that source as foreign traffic — a handshake attempt, or
    a watchdog reset, as on a socket of its own — so a silent peer trips
    its flows' watchdogs however busy the others are. Manifest datagrams
    reach no flow. Ids must differ per peer, and replies must come from the
    address their flow sends to. Datagrams from no flow's source, and
    [ctx.faults]' injections, count on the first flow. Pacing sleeps
    inline, so one paced flow's gap delays every flow on the loop. *)

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
(** {!send} against an abstract {!Transport.t}: everything but the socket;
    {!send_all_via} with one transfer. [ctx.clock] must be the transport's
    notion of time (virtual time for a memnet transport); [ctx.batch] is
    ignored, the transport already decided how it sends. This is the entry
    point the deterministic-simulation harness drives over an in-memory
    network, where a closed endpoint's [Memnet.Net.Closed] propagates out. *)

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
