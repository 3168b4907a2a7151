(** Kernel-batched datagram I/O: packet trains through [sendmmsg(2)] /
    [recvmmsg(2)].

    The paper's central measurement is that per-packet processor overhead —
    not wire time — dominates LAN bulk transfer; blast wins because it
    amortizes that overhead over a whole train. The modern analogue of the
    per-packet "copy into the interface" cost is the syscall: one
    [Unix.sendto]/[Unix.recvfrom] per datagram. A {!t} collects an outgoing
    train into a reusable vector and submits it in one kernel crossing; an
    {!rx} drains a socket the same way.

    {b One traversal per train.} Below the syscall the kernel still walks
    its UDP stack once per datagram. So a {!t} hands each run of
    equal-size datagrams for one peer to the kernel as a single UDP message
    carrying a [UDP_SEGMENT] control message (generic segmentation offload,
    GSO), and an {!rx} sets [UDP_GRO] on its socket so such a train arrives
    as one ring slot plus its segment size, which {!recv} cuts back into the
    sender's datagrams. The grouping rule: a group is a run of queued
    entries that share the first entry's peer and length; one shorter
    datagram may close it (the kernel cuts at segment boundaries, so a short
    one anywhere else would be re-cut); at most 64 segments and 65507 bytes
    (the IPv4 UDP payload limit); a one-datagram group is a plain datagram.
    Nothing is copied: every datagram keeps its own iovec. No knob selects
    this: a kernel that does not know [UDP_SEGMENT] is never asked, and one
    that refuses a GSO message ([EINVAL], [EIO], [ENOPROTOOPT],
    [EOPNOTSUPP] — an old kernel, a route without checksum offload, a
    segment above the route MTU) makes that {!t} stop grouping and resubmit
    the window ungrouped, with unchanged per-datagram outcomes.

    {b Portability.} The syscalls are Linux-only. On other platforms, on a
    kernel that returns [ENOSYS], or when forced (the [LANREPRO_BATCH] knob
    or [force_fallback]), every operation silently degrades to the exact
    one-datagram path ({!Udp.send_bytes} / [Unix.recvfrom]) — same
    semantics, one syscall per datagram, and [UDP_GRO] off, since
    [recvfrom] cannot tell a coalesced train from one datagram.

    {b Per-datagram outcomes.} A short [sendmmsg] return (kernel accepted
    only a prefix of the train) never raises: the entry at the boundary is
    resolved through {!Udp.send_bytes}, which classifies it as [Sent] or the
    loss-equivalent [Send_failed], and the rest of the train is resubmitted.
    The kernel accepts or refuses a GSO group whole, so the boundary is
    always the first datagram of a group.
    Each entry's [on_outcome] callback fires exactly once, so counters and
    probes account batched sends exactly as they account unbatched ones.

    Fault injection composes upstream: run {!Faults.Netem.tx_bytes} on each
    datagram and push the resulting emissions — a dropped datagram is simply
    never pushed, so injection statistics are identical batched or not. *)

val kernel_support : unit -> bool
(** [true] when the stubs were compiled with the syscalls {e and} no runtime
    [ENOSYS] has been observed yet. Purely informative — the fallback is
    automatic either way. *)

val env_enabled : unit -> bool
(** The [LANREPRO_BATCH] knob, re-read at each call so tests can toggle it:
    ["0"], ["off"] or ["false"] disable batching (callers should not build a
    batch at all); anything else — including unset — enables it. *)

val env_force_fallback : unit -> bool
(** [true] when [LANREPRO_BATCH] is ["fallback"] or ["emulate"]: the batch
    API stays in use but every submission takes the one-datagram path, as if
    the kernel had returned [ENOSYS] — how CI exercises the fallback on a
    kernel that does support the syscalls. *)

type report = {
  submitted : int;  (** entries handed to the kernel (or the fallback) *)
  sent : int;
  failed : int;  (** loss-equivalent per-datagram failures, never raised *)
  syscalls : int;  (** kernel crossings it took *)
}

val zero : report
val add_report : report -> report -> report
val pp_report : Format.formatter -> report -> unit

(** {1 Transmit trains} *)

type t

val create : ?capacity:int -> ?force_fallback:bool -> socket:Unix.file_descr -> unit -> t
(** A reusable train bound to [socket] (which the caller keeps ownership
    of). [capacity] (default 128, clamped to the stub maximum of 256) bounds
    one submission; {!push} past it flushes automatically. [force_fallback]
    defaults to {!env_force_fallback}. *)

val capacity : t -> int
val length : t -> int
(** Entries currently queued (not yet flushed). *)

val using_fallback : t -> bool
(** [true] when submissions take the one-datagram path — forced, non-Linux,
    or after a runtime [ENOSYS]. *)

val push :
  t -> peer:Unix.sockaddr -> ?on_outcome:(Udp.send_outcome -> unit) -> bytes -> unit
(** Queue one datagram for [peer]. The bytes are used in place — the caller
    must not mutate them before the next {!flush}. [on_outcome] fires
    exactly once, at flush time, with the datagram's individual outcome.
    A full train flushes itself; a non-IPv4 [peer] is sent immediately
    through the one-datagram path. *)

val push_message :
  t -> peer:Unix.sockaddr -> ?on_outcome:(Udp.send_outcome -> unit) -> Packet.Message.t -> unit
(** {!push} of the encoded message. *)

val flush : t -> report
(** Submit everything queued — one [sendmmsg] per [capacity]-sized window on
    the fast path, grouped for GSO — and empty the train. A GSO refusal
    costs one more [sendmmsg] for the window it hit. Returns the accounting
    for this flush only; {!totals} accumulates across flushes. Never raises for
    transient per-datagram conditions (they are [failed], i.e. loss);
    genuine programming errors ([EBADF], ...) still raise, exactly as
    {!Udp.send_bytes} would. *)

val totals : t -> report
(** Cumulative accounting since {!create} — the bench derives
    syscalls-per-datagram from this. *)

(** {1 Receive drains} *)

type rx

val create_rx : ?capacity:int -> ?force_fallback:bool -> socket:Unix.file_descr -> unit -> rx
(** A drain ring bound to [socket], sized by demand: it starts with one
    {!Udp.max_datagram_bytes} buffer and doubles — up to [capacity]
    (default 32, clamped to 256) — whenever a {!recv} fills every slot it
    has. A socket that only ever holds the odd ACK therefore costs one
    64 KiB buffer, while a server under a blast reaches full width within a
    few drains. The socket should be non-blocking (the fast path passes
    [MSG_DONTWAIT] regardless; the fallback relies on the flag).

    Turns [UDP_GRO] on for [socket] while the [recvmmsg] path is live, and
    off under the fallback (forced or [ENOSYS]). A socket that was
    coalescing must be drained before a per-datagram reader takes it over:
    trains already queued stay coalesced. *)

val arm_rx : rx -> unit
(** Set [UDP_GRO] on the ring's socket as {!create_rx} does: on while the
    [recvmmsg] path is live, off otherwise. A ring that takes a socket over
    again ({!Transport.udp} reuses one) re-arms it, since the socket may
    have been turned off or be a new one on a recycled descriptor. *)

val rx_capacity : rx -> int
(** The most slots the ring may grow to. *)

val rx_slots : rx -> int
(** Slots the ring has now: [1] at creation, never more than
    {!rx_capacity}. *)

val recv : rx -> limit:int -> int
(** Fill up to [min limit (rx_slots rx)] slots in one [recvmmsg] (or up to
    that many [Unix.recvfrom] calls on the fallback), and cut every
    coalesced slot back into its datagrams. Returns how many {e datagrams}
    arrived — [0] when nothing is ready; more than [limit] when a slot held
    a GRO train — and never blocks. When the slots filled equal the slots
    the ring had, the ring doubles (up to its capacity) for the next drain;
    slots already filled keep their buffers. Pending ICMP errors
    ([ECONNREFUSED] from a peer that closed) are consumed and the drain
    retried, and genuine errors raise, mirroring the unbatched loop. *)

val get : rx -> int -> bytes * int * int * Unix.sockaddr
(** [get rx i] is datagram [i] of the last {!recv}: the buffer (valid until
    the next {!recv}), the datagram's offset and length in it, and the
    sender. Datagrams come in arrival order. *)

val rx_syscalls : rx -> int
(** Cumulative kernel crossings since {!create_rx}. *)

val rx_received : rx -> int
(** Cumulative datagrams drained since {!create_rx}, coalesced ones
    counted one by one. *)

val set_gro : Unix.file_descr -> bool -> bool
(** [set_gro socket on] sets [UDP_GRO] on [socket]; [true] when the kernel
    took it. A per-datagram reader turns it off (see {!Transport.udp}). *)
