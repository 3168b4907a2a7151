(** Flight recorder: a bounded, thread-safe ring of datagram events.

    A recorder keeps the last [capacity] events (default 4096) of a transfer
    in memory for near-zero cost, timestamps them from a pluggable clock
    (simulation time or [CLOCK_MONOTONIC]), and normalizes timestamps to the
    first recorded event so journals from both transports start near zero.
    {!postmortem} dumps the ring as JSONL — to the configured path, or to a
    fresh temp file — so "what were the last N datagrams doing" survives
    the crash site. Its callers: the one-transfer endpoints
    ([Sockets.Peer.send_via], [Server.Engine.receive_one]) and the simulator's
    [Simnet.Driver] on a failure outcome, and [Server.Engine] once, on its
    first invariant violation. An engine's flows share one ring and never
    dump it per flow: it is exported whole at exit ([--trace-out]). *)

type t

val create : ?capacity:int -> ?now:(unit -> int) -> ?postmortem:string -> unit -> t
(** [capacity] must be positive (default 4096). [now] supplies raw
    timestamps in nanoseconds; the default is a logical tick counter, and
    transports install their own clock via {!set_clock}. [postmortem] is the
    JSONL path {!postmortem} dumps to; without it a temp file is created on
    demand. *)

val set_clock : t -> (unit -> int) -> unit
(** Installs the timestamp source. The simulator points this at [Sim.now];
    the UDP peer at the monotonic-clock stub. Idempotent per transport. *)

val set_postmortem : t -> string -> unit

val emit :
  t -> lane:string -> kind:Event.kind -> ?detail:string -> ?seq:int -> unit -> unit
(** Stamps and records one event, overwriting the oldest when full. *)

val record : t -> Event.t -> unit
(** Records a pre-stamped event verbatim (no clock, no normalization). *)

val events : t -> Event.t list
(** Oldest to newest; at most [capacity] of them. *)

val total : t -> int
(** All-time count, including events the ring has already overwritten. *)

val capacity : t -> int
val clear : t -> unit

val postmortem : t -> reason:string -> string option
(** Dumps the ring as JSONL — a meta line
    [{"postmortem":reason,"dropped":n}] followed by one event per line — and
    returns the path written, or [None] when the ring is empty or the dump
    cannot be written (a [Sys_error] — unusable temp directory, full disk —
    is logged at warning level, never raised). Also logs the path at
    warning level so an aborted CLI run points at its journal. *)
