(** N {!Engine}s, each on its own [Domain.t] with its own poller and UDP
    socket, as one value with merged observability — the one way this
    system hosts engines on real sockets.

    A [binding] chooses how the members meet the network:

    - {!Shared_port}: every member binds one port with [SO_REUSEPORT], and
      the kernel's 4-tuple hash spreads {e flows} (not datagrams) across
      them. A sender keeps one socket for a whole transfer, so every
      datagram of a flow lands on the same member: per-flow state never
      migrates and the engines share nothing on the data path. (Memnet has
      no kernel to hash for it; {!Memnet.Net.bind_shard} makes the same
      steering explicit and seeded for DST runs, which drive engines as
      simulation processes rather than through this module.)
    - {!Own_ports}: member [i] binds [port + i] (every member ephemeral
      when [port = 0]) — the process-per-server shape of a ring
      deployment, where {!kill} is the fault the ring exists to absorb.

    Per-member identity follows the binding:

    - a [Shared_port] group of one {e is} the lone engine: no
      [SO_REUSEPORT] (a second server cannot bind its port), no lane
      prefix, and the group's own [seed];
    - a [Shared_port] member [i] of several tags its lanes ["s<i>:"];
    - an [Own_ports] member [i] tags its lanes ["r<i>:"] at any size;
    - member [i] seeds its fault streams from [seed + 7919 * i].

    Observability rolls up without stopping anything: totals and counters
    via {!Protocol.Counters.merge}, loop-health histograms via
    {!Obs.Hist.merge}, and one aggregated [lanrepro-stat/1] snapshot served
    on a group {!Admin} socket from the group's own thread. Live member
    snapshots are fetched through each engine's idle hook (a request flag
    plus {!Engine.wake}), because [Engine.snapshot] is only legal on the
    serving thread. *)

type binding =
  | Shared_port  (** one [SO_REUSEPORT] port; [s<i>:] lanes past one member *)
  | Own_ports  (** member [i] on [port + i]; [r<i>:] lanes *)

type t

val create :
  ?address:string ->
  ?port:int ->
  ?max_flows:int ->
  ?idle_timeout_ns:int ->
  ?linger_ns:int ->
  ?fallback_suite:Protocol.Suite.t ->
  ?scenario:Faults.Scenario.t ->
  ?seed:int ->
  ?ctx:Sockets.Io_ctx.t ->
  ?on_complete:(Engine.completion_event -> unit) ->
  ?flowtrace:Obs.Flowtrace.t ->
  ?admin_port:int ->
  ?stats_interval_ns:int ->
  ?on_snapshot:(Obs.Json.t -> unit) ->
  binding:binding ->
  members:int ->
  unit ->
  t
(** [members] sockets on [address] (default loopback), bound per [binding]
    ([port = 0], the default, picks ephemeral ports), each wrapped in an
    epoll-backed transport and an engine. Engine options mean what they do
    on {!Engine.create}, per member ([max_flows] is the {e per-member}
    admission cap). [on_complete] is serialized under a group lock, so one
    callback serves all members without its own locking. [flowtrace] may
    be shared — it is mutex-guarded and lanes are member-prefixed.
    [admin_port] opens one group stat socket answering the aggregated
    {!snapshot}; [stats_interval_ns] calls [on_snapshot] with that same
    snapshot at roughly that period. Both are served from the group's
    service thread, never from a serving domain. Raises [Invalid_argument]
    on [members <= 0]. *)

val start : t -> unit
(** Spawn one domain per live member running [Engine.run], plus the
    service thread when an admin port or stats interval was given. Raises
    [Invalid_argument] if the group was already started. *)

val stop : t -> unit
(** {!Engine.stop} every live member (each is woken out of its idle wait).
    Thread-safe. *)

val join : t -> unit
(** Wait for every member's [run] to return, then stop the service thread
    and release the admin socket, sockets and pollers. After [join], the
    post-run accessors read quiescent engines. *)

val kill : t -> int -> unit
(** Permanently remove member [i], mid-traffic by design: stop its engine,
    join its domain, close its socket. Under [Own_ports] its port goes
    dark and blasts at it fail with clean typed outcomes; under
    [Shared_port] the kernel hashes new flows onto the survivors. The
    member's flows are force-settled and its counters stay in the
    roll-ups. Idempotent; there is no resurrection. *)

val alive : t -> int list
(** Indices not yet {!kill}ed, ascending. *)

val address : t -> int -> Unix.sockaddr
(** Member [i]'s resolved datagram address (a requested port 0 shows the
    actual port) — the same for every member under [Shared_port]; the
    [peer_of] a {!Ring.Client.put} against the group wants. *)

val port : t -> int -> int

val admin_port : t -> int option
(** The group stat socket's resolved port (an [admin_port] of 0 binds an
    ephemeral one), if one was requested. *)

val snapshot : t -> Obs.Json.t
(** The aggregated [lanrepro-stat/1] snapshot: summed [totals], [counters],
    [active_flows], [max_flows] and [manifest_stripes]; merged health
    histograms; the merged flow listing (member-prefixed labels, capped at
    128 with [flows_omitted] counting the rest); the member counts; and a
    per-member breakdown. The binding names the member: [shards],
    [shards_alive], [shards_unresponsive] and [per_shard] rows keyed
    [shard] under [Shared_port]; [servers], [servers_alive],
    [servers_unresponsive] and [per_server] rows keyed [server] under
    [Own_ports]. Safe while members serve: running engines answer through
    their idle hook, engines not running are read directly; a running
    member that fails to answer within ~250 ms is reported unresponsive
    rather than blocking the stats plane. *)

val member_snapshots : t -> Obs.Json.t option list
(** Each member's own snapshot, in member order ([None] = unresponsive) —
    what the per-member breakdown is built from. *)

val totals : t -> Engine.totals
(** Field-wise sum of the member totals. Quiescent reads (post-{!join})
    are exact; live reads are a best-effort racy sum. *)

val rollup : t -> Protocol.Counters.t
(** {!Protocol.Counters.merge} over every member's {!Engine.rollup}.
    Post-{!join}. *)

val invariant_violations : t -> string list
(** Every member's {!Engine.invariant_violations}, each prefixed with the
    member noun and index (["shard N: "] or ["server N: "]). Post-{!join}
    (the underlying check walks live flow tables). *)
