(** The one event loop under every endpoint.

    A loop owns a {!Transport.t} and its clock: the wait until the next
    deadline, the drain of ready datagrams, the flush points that make each
    burst one [sendmmsg] train, netem-delayed emissions (on its own
    {!Timers} heap, never slept inline), loop health and stop/wake. Its
    {!client} supplies only a next deadline, its due work and the routing
    of incoming datagrams: {!Peer}'s initiating flows and [Server.Engine]
    are clients, and only this module calls a transport's [recv] or [poll].

    Each wakeup sends the due delayed emissions, calls [due] once and
    flushes; then, unless finished, it waits for the earliest deadline
    (with none, until traffic or a wake), hands over up to [drain_budget]
    datagrams and flushes again. *)

(** Where a loop's time goes: [tick_duration_ns] is work per wakeup
    {e excluding} the wait, so its p99 rises when a single-domain loop
    saturates; [recv_drained] is datagrams per wakeup that had any;
    [flush_train] is datagrams per non-empty flush point (the sendmmsg
    train); [timer_heap_depth] is the client's to record;
    [drain_exhausted] counts wakeups that used the whole drain budget;
    [spurious_wakeups] counts wakeups that found nothing to do. *)
type health = {
  tick_duration_ns : Obs.Hist.t;
  recv_drained : Obs.Hist.t;
  flush_train : Obs.Hist.t;
  timer_heap_depth : Obs.Hist.t;
  mutable ticks : int;
  mutable drain_exhausted : int;
  mutable last_drain_exhausted : int;
  mutable spurious_wakeups : int;
}

val create_health : unit -> health

val merge_health : into:health -> health -> unit
(** Roll-up, safe while the source loop runs: histograms merge under their
    own locks, counters add. *)

type client = {
  next_deadline : unit -> int option;
  due : now:int -> unit;  (** once per wakeup, before the wait *)
  receive : now:int -> Transport.view -> unit;
  finished : unit -> bool;  (** [true] ends {!run} *)
}

type t

val create : ?health:health -> ?drain_budget:int -> clock:(unit -> int) -> Transport.t -> t
(** [clock] is the transport's notion of time. [drain_budget] (default 1,
    a one-flow client's) bounds the datagrams handed over per wakeup.
    Without [health] nothing is accounted. *)

val run : t -> client -> unit
(** Drives the client in the calling thread until {!stop} or [finished];
    exceptions from the transport or the client propagate. *)

val transmit :
  t ->
  ?faults:Faults.Netem.t ->
  ?on_failed:(unit -> unit) ->
  probe:Obs.Probe.t ->
  peer:Unix.sockaddr ->
  Packet.Message.t ->
  unit
(** One protocol send: the probe's [tx] event, the codec, then [faults]. A
    transient send failure is loss: a [tx] drop on the probe, then
    [on_failed]. *)

val send : t -> peer:Unix.sockaddr -> on_failed:(unit -> unit) -> bytes -> unit
(** One encoded datagram, joining the pending train. *)

val emit :
  t -> peer:Unix.sockaddr -> on_failed:(unit -> unit) -> Faults.Netem.emission -> unit
(** {!send} now, or on the loop's timer if delayed. *)

val flush : t -> unit
(** A flush point, for sends made outside {!run}. *)

val pending : t -> int
(** Delayed emissions waiting on the loop's timer. *)

val stop : t -> unit
(** Thread-safe: ends {!run} at its next check, and {!wake}s it. A loop
    whose transport has no [wake] hears it only at its next deadline. *)

val wake : t -> unit
(** From any thread: a blocked wait returns promptly. A no-op on a
    transport without the capability. *)
