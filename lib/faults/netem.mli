(** Deterministically-seeded network fault injection ("netem").

    A [Netem.t] instantiates a {!Scenario.t} against a seeded random stream
    and transforms each outgoing datagram into zero or more emissions:
    dropped (iid or Gilbert-Elliott bursts), duplicated, held back and
    released later (reordering), bit-flipped, truncated, or delayed. The
    engine is transport-agnostic — it works on raw encoded datagrams — so the
    UDP socket path and the simulated wire share one fault model and one
    statistics record. All randomness comes from the creation seed: the same
    seed and the same send sequence replay the same faults. *)

type stats = {
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable corrupted : int;
  mutable truncated : int;
  mutable delayed : int;
}

val create_stats : unit -> stats

val total : stats -> int
(** Sum of all injected fault events. *)

val pp_stats : Format.formatter -> stats -> unit

type emission = { delay_ns : int; data : bytes }
(** One datagram to put on the wire, [delay_ns] after the send instant. *)

type t

val create : ?counters:Protocol.Counters.t -> ?seed:int -> Scenario.t -> t
(** When [counters] is given, every injected fault also bumps its
    [faults_injected] field, so transfer results surface the injection count
    alongside the protocol statistics. Default seed 1. *)

val scenario : t -> Scenario.t
val stats : t -> stats

val attach_counters : t -> Protocol.Counters.t -> unit
(** Redirects the [faults_injected] accounting to [counters] — the transports
    call this so a transfer's own counter record reflects the injections,
    even though the Netem was created before the transfer's counters. *)

val set_observer : t -> (string -> unit) -> unit
(** Installs a callback fired once per injected fault with its name
    ("drop", "duplicate", "reorder", "corrupt", "truncate", "delay") — the
    telemetry layer's journal hook. Fires exactly when [faults_injected]
    is bumped, so event counts and counters agree. *)

val tx_bytes : t -> bytes -> emission list
(** Runs one outgoing datagram through the injector pipeline. The input is
    copied, never mutated. An empty result means the datagram was dropped or
    held back; a held datagram reappears in the result of a later call, after
    its reorder gap has elapsed. *)

val tx_message :
  ?on_undecodable:(Packet.Codec.error -> unit) -> t -> Packet.Message.t -> (int * Packet.Message.t) list
(** Message-level front end for the simulated wire: encodes, runs
    {!tx_bytes}, and re-decodes each emission. Emissions the codec rejects
    (corrupted or truncated beyond recognition) are discarded —
    [on_undecodable] is called for each, letting the caller count the
    detection on the receiving side. Returns [(delay_ns, message)] pairs. *)

val flush : t -> emission list
(** Releases every held-back datagram immediately (end of a transfer). *)
