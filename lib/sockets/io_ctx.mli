(** Transport I/O context: one value for everything an endpoint used to
    take as parallel optional arguments.

    Every transport entry point ({!Peer.send}, [Server.Engine.create],
    [Server.Engine.receive_one], [Server.Swarm.run], ...) used to grow its own
    [?faults]/[?recorder]/[?metrics] triple; they now take a single [?ctx].
    The record is deliberately open — build one with {!make}, derive
    variants with functional update ([{ ctx with faults = ... }]), which is
    how the swarm hands each endpoint its own fault pipeline while sharing
    the telemetry sinks. *)

type t = {
  faults : Faults.Netem.t option;
      (** adversarial fault pipeline for this endpoint's outgoing datagrams *)
  recorder : Obs.Recorder.t option;  (** flight recorder for datagram events *)
  metrics : Obs.Metrics.t option;  (** metrics registry for counters/gauges *)
  clock : unit -> int;
      (** monotonic nanoseconds; every deadline, RTT sample and journal
          timestamp in the loop comes from here (default {!Udp.now_ns}) *)
  batch : bool;
      (** submit packet trains through {!Batch} ([sendmmsg]/[recvmmsg])
          instead of one syscall per datagram *)
  tuning : Protocol.Tuning.t;
      (** timers, attempts, train adaptation and pacing for every transfer
          this endpoint runs — the layered replacement for the old
          [?retransmit_ns]/[?max_attempts]/[?pacing_ns] argument sprawl *)
}

val make :
  ?faults:Faults.Netem.t ->
  ?recorder:Obs.Recorder.t ->
  ?metrics:Obs.Metrics.t ->
  ?clock:(unit -> int) ->
  ?batch:bool ->
  ?tuning:Protocol.Tuning.t ->
  unit ->
  t
(** [batch] defaults to {!Batch.env_enabled} — i.e. on, unless
    [LANREPRO_BATCH] says otherwise — so the CLI knob reaches every loop
    that defaults its context. [tuning] defaults to
    {!Protocol.Tuning.wire_default} (fixed trains, 50 ms timer). *)

val default : unit -> t
(** [make ()], evaluated at call time so the [LANREPRO_BATCH] knob is read
    when the loop starts, not at module initialization. *)
