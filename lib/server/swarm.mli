(** Swarm load generator: N concurrent senders against a {!Group} of
    engines sharing one port.

    Spins the server group up on its own domains, then drives [flows]
    independent {!Sockets.Peer.send} transfers through an {!Exec.Pool} — each
    sender with its own socket, transfer id, deterministically-derived
    payload and (optionally) its own seeded fault pipeline. The whole run is
    reproducible from [seed]: payloads, sender faults and server faults are
    all derived from it.

    Every sender finishes with a typed outcome — [Success], [Rejected] (the
    admission cap refused it), or a clean failure — and the report pairs the
    senders' view with the server's: its totals, its merged counter roll-up,
    and the per-flow completion events including the whole-segment CRC
    verdict. Both views are recorded in a {!Ledger}, the delivery oracle
    [Dst.Harness] checks under virtual time, so a swarm is the real-UDP arm
    of the same fault harness. *)

type sender_report = {
  index : int;
  outcome : Protocol.Action.outcome;
  elapsed_ns : int;
  bytes : int;
}

type report = {
  flows : int;
  jobs : int;  (** effective pool parallelism (after the pool's clamp) *)
  shards : int;  (** server-side shard count (1 = a lone engine) *)
  bytes_per_flow : int;
  completed : int;  (** senders that finished [Success] *)
  rejected : int;  (** senders refused by admission control *)
  failed : int;  (** any other outcome *)
  elapsed_ns : int;
      (** wall clock over the senders' transfers; payloads and fault
          pipelines are made before it starts *)
  aggregate_mbit_s : float;  (** successful payload bits over the wall clock *)
  latency_ms : Obs.Hist.t;
      (** per-transfer latency of successful flows; report p50/p90/p99/max
          via {!Obs.Hist.snapshot} *)
  senders : sender_report list;  (** in flow-index order *)
  completions : Engine.completion_event list;
      (** server-side view of every settled flow, in settlement order *)
  server : Engine.totals;
  rollup : Protocol.Counters.t;
  engine_snapshot : Obs.Json.t;
      (** {!Group.snapshot} taken after the engine loops exited — its
          [health] section is the loop-health record of the whole run *)
  invariants : string list;  (** {!Group.invariant_violations} at the end *)
  violations : string list;
      (** {!Ledger.violations} over every sender outcome and server
          completion; empty when the oracle holds *)
}

val server_verified : report -> int
(** Flows whose server-side completion carried [Verified] end-to-end CRC. *)

val pp_report : Format.formatter -> report -> unit

val run :
  ?max_flows:int ->
  ?jobs:int ->
  ?bytes:int ->
  ?packet_bytes:int ->
  ?tuning:Protocol.Tuning.t ->
  ?idle_timeout_ns:int ->
  ?suite:Protocol.Suite.t ->
  ?scenario:Faults.Scenario.t ->
  ?server_scenario:Faults.Scenario.t ->
  ?seed:int ->
  ?ctx:Sockets.Io_ctx.t ->
  ?flowtrace:Obs.Flowtrace.t ->
  ?admin_port:int ->
  ?stats_interval_ns:int ->
  ?on_snapshot:(Obs.Json.t -> unit) ->
  ?shards:int ->
  flows:int ->
  unit ->
  report
(** Defaults: 64 KiB per flow, 1 KiB packets, fixed tuning with a 20 ms
    retransmission interval and 50 attempts, go-back-N blast, seed 42,
    [jobs = flows] (the pool clamps
    to at most 64 — true concurrency for any [flows] the engine's default
    cap admits). [scenario] faults the senders, [server_scenario] the
    server; both are per-flow independent and seeded from [seed] —
    [ctx.faults] is superseded on both sides.

    [ctx] carries the telemetry sinks and the batching switch for the
    engine and every sender: [ctx.recorder]/[ctx.metrics] are wired to the
    engine ([flow-N] lanes, [side=server] metrics) plus swarm-level
    aggregate gauges; [ctx.batch] turns sendmmsg/recvmmsg trains on for the
    engine loop and each sender's blast bursts. Not re-entrant from inside
    an [Exec.Pool] task (the pool contract forbids nested batches).

    The server is a [Shared_port] {!Group} of [shards] engines (default 1,
    the lone engine; N > 1 shares the port via [SO_REUSEPORT]), seeded
    from [seed + 1]. [flowtrace], [admin_port], [stats_interval_ns] and
    [on_snapshot] pass through to {!Group.create}: the stat socket binds
    127.0.0.1, answers the group's aggregated snapshot while the swarm
    runs — query it with [lanrepro stat] — and closes when the run ends.
    The report's [server], [rollup], [engine_snapshot] (with its
    [per_shard] breakdown) and [invariants] are the group's merged views.
    If an engine finishes with invariant violations they are returned in
    the report, logged, and the flight ring (when [ctx.recorder] is set)
    is dumped automatically. *)
