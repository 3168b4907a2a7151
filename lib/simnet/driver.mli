(** Runs a protocol sender/receiver pair over the simulated LAN and measures
    the transfer.

    Each station runs two processes, mirroring the interrupt-level structure
    of the V kernel implementation: a receive pump that copies arriving
    frames out of the interface (at [C]/[Ca] CPU cost) and hands them to the
    protocol machine, and a main process that executes the machine's actions
    (each [Send] is a blocking copy-and-transmit on the shared CPU). All of
    the paper's timing behaviour — copy overlap between the two machines,
    the ack-handling cost of the sliding-window protocol, busy-wait
    serialization — emerges from this structure rather than being hard-coded.

    Frame sizes on the wire follow the paper: data packets are
    [Params.data_packet_bytes], acks (and REQs) [Params.ack_packet_bytes];
    a selective NACK additionally carries its bitmap. *)

type result = {
  outcome : Protocol.Action.outcome;
  elapsed : Eventsim.Time.span;  (** transfer start to sender completion *)
  utilization : float;  (** wire busy fraction over the elapsed time *)
  wire : Netmodel.Wire.counters;
  sender : Protocol.Counters.t;
  receiver : Protocol.Counters.t;
  received : (int * string) list;
      (** delivered packets in [seq] order, with payloads (empty payloads
          unless [payload] was supplied) *)
  sender_cpu_busy : Eventsim.Time.span;
      (** host CPU busy time on the sending station (copies, busy-waits,
          command issue) — the figure a DMA interface reduces *)
  receiver_cpu_busy : Eventsim.Time.span;
}

val frame_bytes : Netmodel.Params.t -> Packet.Message.t -> int

val run :
  ?params:Netmodel.Params.t ->
  ?network_error:Netmodel.Error_model.t ->
  ?interface_error:Netmodel.Error_model.t ->
  ?trace:Eventsim.Trace.t ->
  ?arbiter:Netmodel.Arbiter.t ->
  ?background:(Packet.Message.t Netmodel.Wire.t -> unit) ->
  ?rtt:Protocol.Rtt.t ->
  ?pacing:Eventsim.Time.span ->
  ?sender_faults:Faults.Netem.t ->
  ?receiver_faults:Faults.Netem.t ->
  ?recorder:Obs.Recorder.t ->
  ?metrics:Obs.Metrics.t ->
  ?payload:(int -> string) ->
  suite:Protocol.Suite.t ->
  config:Protocol.Config.t ->
  unit ->
  result
(** [arbiter] selects the medium-access model (default FIFO). [background]
    runs after the wire is created and before the transfer starts — attach
    {!Load} flows or extra stations there. [rtt] gives the sender an adaptive
    retransmission timeout instead of the fixed [Config.retransmit_ns];
    [pacing] inserts a fixed gap after each data packet. The
    run stops at the instant the sender completes, so immortal background
    processes are fine.

    [sender_faults] / [receiver_faults] put a {!Faults.Netem} pipeline on
    that side's outgoing messages — the same scenarios [Server.Swarm] and
    [Dst.Harness] run. Each Netem's injection count is attached to its side's counters;
    emissions the codec rejects are charged to the {e opposite} side's
    [corrupt_detected]/[garbage_received] (the interface that would have
    discarded the frame).

    [recorder] journals both endpoints' datagram events (lanes ["sender"] /
    ["receiver"], timestamps in simulation time) and is dumped automatically
    on a failure outcome. [metrics] receives both counter records plus
    elapsed-time and utilization gauges when the run completes. *)

val elapsed_ms : result -> float
