(** Concurrent transfer server: many flows multiplexed over one UDP socket.

    The engine is a client of {!Sockets.Loop}, which owns the wait (the
    transport's readiness wait — epoll-backed via {!Sockets.Poller} on a
    real socket), the drain, the flush points, netem-delayed emissions and
    loop health. The engine answers the loop's deadline from its own
    lazily invalidated timer heap of flow ticks, services everything due,
    and demultiplexes datagrams by [(peer address, transfer id)] into a
    table of sans-IO {!Sockets.Flow} instances: every responding flow runs
    here, one transfer ({!receive_one}) or many. Each admitted flow gets
    its own counters, probe lane ([flow-N]) and, under a fault scenario,
    its own deterministically-seeded {!Faults.Netem} whose delayed
    emissions wait on the loop's timer rather than being slept inline, so
    injecting latency into one flow never stalls the others.

    {b Admission control.} At most [max_flows] concurrent transfers; a REQ
    beyond the cap is answered with a [REJ] datagram, which the sender
    surfaces as the clean {!Protocol.Action.Rejected} outcome.

    {b Fairness.} Each loop round drains at most 64 datagrams (a constant
    drain budget) before servicing due timers, so one saturating sender
    cannot starve the other flows' retransmission or watchdog timers.

    {b No-hang guarantee.} Every flow's idle watchdog runs off the shared
    heap, and shutdown force-settles every live flow to a typed
    completion. An idle engine blocks until traffic, a wake or {!stop}.

    The stat socket and periodic snapshots are not the engine's business:
    {!Group} hosts engines and serves both from its own thread, fetching
    each live snapshot through [on_idle] and {!wake}. *)

type totals = {
  mutable accepted : int;  (** REQs admitted into the flow table *)
  mutable completed : int;  (** flows settled with [Success] *)
  mutable aborted : int;  (** flows settled with any other outcome *)
  mutable rejected : int;  (** REQs refused with a REJ (admission cap) *)
  mutable superseded : int;
      (** stale flows settled because their sender's address and transfer id
          were reused by a REQ describing a different transfer *)
  mutable stray_datagrams : int;
      (** well-formed datagrams matching no flow — late packets of settled
          transfers, retries of rejected handshakes *)
  mutable garbage : int;  (** undecodable datagrams and malformed REQs *)
  mutable send_failures : int;  (** transient send errors, counted as loss *)
}

val create_totals : unit -> totals
val pp_totals : Format.formatter -> totals -> unit

type completion_event = {
  peer : Unix.sockaddr;
  completion : Sockets.Flow.completion;
  started_ns : int;  (** monotonic, REQ admission *)
  finished_ns : int;
      (** monotonic, hand-over: for a success the instant the whole-segment
          CRC was checked, which is before the flow's linger, so
          [finished_ns - started_ns] is the transfer's own time; for any
          other outcome the instant the flow was settled *)
}

(** The serving loop's {!Sockets.Loop.health}, re-exported with its fields;
    the engine records [timer_heap_depth] (flow ticks plus delayed
    emissions) at each idle point. *)
type health = Sockets.Loop.health = {
  tick_duration_ns : Obs.Hist.t;
  recv_drained : Obs.Hist.t;
  flush_train : Obs.Hist.t;
  timer_heap_depth : Obs.Hist.t;
  mutable ticks : int;
  mutable drain_exhausted : int;
  mutable last_drain_exhausted : int;
  mutable spurious_wakeups : int;
}

type t

val create :
  ?max_flows:int ->
  ?idle_timeout_ns:int ->
  ?linger_ns:int ->
  ?fallback_suite:Protocol.Suite.t ->
  ?scenario:Faults.Scenario.t ->
  ?seed:int ->
  ?ctx:Sockets.Io_ctx.t ->
  ?on_complete:(completion_event -> unit) ->
  ?flowtrace:Obs.Flowtrace.t ->
  ?on_idle:(unit -> unit) ->
  ?trace_epoch:int ->
  ?lane_prefix:string ->
  transport:Sockets.Transport.t ->
  unit ->
  t
(** The engine serves on [transport] — {!Sockets.Transport.udp} over a real
    socket, or a memnet endpoint under virtual time; the loop cannot tell.
    Defaults: 64 concurrent flows; timers and attempts come
    from [ctx.tuning] (default {!Protocol.Tuning.wire_default} — 50 ms
    retransmission interval, 50 attempts). Every admitted flow advertises a
    train budget to adaptive senders: a fair share of the tuning's
    [max_train] across active flows, halved while the drain loop is
    exhausting its budget or the timer heap runs deep — engine health as
    flow control. [scenario] injects faults independently per
    flow, seeded from [seed] and the flow's admission index
    ([Stats.Rng.derive]), so a run replays exactly — [ctx.faults] is ignored
    here, since one shared pipeline would entangle the flows' randomness;
    per-flow [scenario] supersedes it.

    [ctx] otherwise carries the loop's telemetry and clock, which must be
    the transport's notion of time ([ctx.batch] is ignored — the transport
    already decided how it sends; a batching UDP transport drains each round
    through one [recvmmsg] and flushes every queued ack/REJ/delayed emission
    as one [sendmmsg] train). [ctx.metrics]
    carries an [active_flows] gauge, admission counters and, at shutdown,
    the merged counter roll-up, all labelled [side=server].

    [on_complete] fires exactly once per admitted flow, from the serving
    thread, and is where the payload leaves the engine. A transfer that
    completes fires it at once — the moment the whole-segment CRC has been
    checked, with the reassembled bytes in [completion.data] (the flow's
    buffer itself, handed over without a copy) — and then lingers for its
    sender's duplicate terminators holding no payload; a linger that ends
    in supersede or shutdown does not fire it again. Any other outcome
    (idle watchdog, protocol failure, a running flow superseded or
    force-settled at shutdown) fires it when the flow settles. Totals, the
    flowtrace terminal and admission still count a flow until its linger
    ends. Raises
    [Invalid_argument] on a negative [max_flows] and on a transport without
    [wake] (its idle wait could not hear a {!stop}); [max_flows = 0]
    refuses everything — the admission test's degenerate case.

    [flowtrace] records every flow's lifecycle (admitted → first-data →
    rounds → verify → exactly one of done/failed/rejected/superseded),
    timestamped from [ctx.clock] so real-UDP and DST runs trace
    identically; [trace_epoch] namespaces the lanes of successive engine
    incarnations sharing one flowtrace (DST restarts). [on_idle] runs once
    per loop round at the idle point — after the due timers, before the
    wait — on the serving thread — {!Group}
    uses it to answer cross-thread snapshot requests; pair it with {!wake}
    to bound its latency. [lane_prefix] (default [""]) prefixes every
    trace lane and snapshot label, so flows stay attributable after a
    group's roll-up merges its members. *)

val run : t -> unit
(** Serves until {!stop}. Runs in the calling thread; shutdown
    force-settles any flow still live. *)

val receive_one :
  ?ctx:Sockets.Io_ctx.t ->
  ?idle_timeout_ns:int ->
  ?accept_timeout_ns:int ->
  ?fallback_suite:Protocol.Suite.t ->
  ?scenario:Faults.Scenario.t ->
  ?seed:int ->
  socket:Unix.file_descr ->
  unit ->
  Sockets.Flow.completion option
(** The one-transfer case: an engine with one flow slot on a poller-backed
    transport over [socket] ([ctx.batch] decides batching), run in the
    calling thread until its first admitted flow has been handed over and
    has left the table after its linger. Returns that flow's completion —
    the bytes, the whole-segment CRC verdict and the flow's counters — or
    [None] when [accept_timeout_ns] passes with no REQ admitted; without
    it the call waits for one. A sender that arrives while the slot is
    busy gets a REJ. The other arguments are {!create}'s, with its
    defaults (timers from [ctx.tuning], linger and watchdog from
    {!Sockets.Flow.create}). A completion other than [Success] dumps
    [ctx.recorder]'s flight ring, reason ["flow: <outcome>"], as every
    one-transfer endpoint does. *)

val stop : t -> unit
(** {!Sockets.Loop.stop}: thread-safe, and prompt even from an unbounded
    idle wait. *)

val wake : t -> unit
(** {!Sockets.Loop.wake}: the loop passes its idle point ([on_idle]) again
    promptly. *)

val totals : t -> totals
val active_flows : t -> int
val health : t -> health

val manifest : t -> object_id:int -> Packet.Stripe.entry list
(** The stripes of [object_id] this server durably holds, sorted by stripe
    index — exactly the records an [MREQ] datagram is answered with. A
    stripe enters the manifest as soon as its flow completes [Success] with
    the whole-segment CRC verified — lingering flows included — so every
    entry re-reads correctly by construction. Entries carry the size and
    CRC the REQ declared and verification matched
    ({!Sockets.Flow.verified_stripe}); nothing is re-checksummed. Not
    thread-safe; call from the serving thread or after {!run} returns. *)

val manifest_size : t -> int
(** Total manifest entries across all objects (snapshot field
    [manifest_stripes]). *)

val rollup : t -> Protocol.Counters.t
(** Field-wise merge ({!Protocol.Counters.merge}) of every flow's counters —
    settled and live — plus the server's pre-admission garbage accounting. *)

val snapshot : t -> Obs.Json.t
(** The live-introspection snapshot ([{"schema":"lanrepro-stat/1",…}]):
    uptime, admission totals, a sorted per-flow listing (status, phase,
    delivered/total progress, rounds, age, next deadline; capped at 128
    entries with [flows_omitted] counting the rest), loop-health histogram
    summaries, and the same counter roll-up {!rollup} returns — the
    snapshot's [counters] reconcile with the final roll-up by
    construction. {b Not thread-safe}: call from the serving thread (the
    [on_idle] hook) or after {!run} has returned. *)

val invariant_violations : t -> string list
(** Structural invariants the event loop maintains between rounds, as
    human-readable violations (empty = healthy): the flow table respects
    [max_flows] and holds no closed flow, every live flow's next deadline is
    covered by a timer-heap entry at or before it (lazy invalidation may
    leave extra later entries, never a missing earlier one), and the
    admission totals balance. The deterministic-simulation harness calls
    this after every scheduler step; it is also safe to call from the
    serving thread between [run] rounds. When violations are found and the
    engine has a recorder, the flight ring is dumped automatically
    ({!Obs.Recorder.postmortem}) so the last datagrams before the breakage
    survive. *)
