(** The datagram transport interface: one record of operations that the
    one event loop, {!Loop} — under the senders of {!Peer} and the
    receiving [Server.Engine] alike — programs against.

    Two interpreters exist: {!udp} wraps a real socket (with optional
    [sendmmsg]/[recvmmsg] batching, exactly the former hard-wired fast
    path), and [Memnet.Net.transport] runs the same loop over an in-memory
    network under [Eventsim] virtual time. Protocol code cannot tell them
    apart, which is what makes whole-system deterministic simulation
    possible: the code that serves real traffic is the code under test.

    A transport is single-owner: one loop calls [recv]/[poll] at a time,
    exactly as a socket had one reading loop before. *)

type view = {
  buf : Bytes.t;  (** valid only until the next [recv]/[poll] call *)
  pos : int;
      (** where the datagram starts in [buf]: past [0] when it arrived
          inside a coalesced train (see {!Batch}) *)
  len : int;
  from : Unix.sockaddr;
}

type t = {
  send : peer:Unix.sockaddr -> on_outcome:(Udp.send_outcome -> unit) -> bytes -> unit;
      (** queue or emit one datagram; [on_outcome] fires exactly once, at
          the latest by the next [flush] *)
  flush : unit -> unit;
      (** submit everything queued (a batched train); no-op otherwise *)
  recv : timeout_ns:int option -> [ `Timeout | `Datagram of view ];
      (** wait for the next datagram, at most [timeout_ns] ([None] waits
          forever). Blocking here is interpreter-defined: a thread blocks on
          [select], a simulated process suspends in virtual time. *)
  poll : unit -> [ `Empty | `Datagram of view ];
      (** non-blocking [recv] — the loop's drain *)
  sleep_ns : int -> unit;
      (** pacing and injected-delay sleeps, in the transport's notion of
          time *)
  wake : (unit -> unit) option;
      (** [Some w]: [w ()] makes a blocked [recv] return [`Timeout]
          promptly — callable from any thread, spurious wakes allowed. The
          capability is what lets a serving loop block indefinitely when
          idle and still honor a cross-thread stop. [None]: the transport
          cannot be woken; a sender's loop, always waiting on its flows'
          deadlines, needs no wake, and an engine refuses such a
          transport. *)
}

val udp :
  ?batch:bool ->
  ?poller:Poller.t ->
  socket:Unix.file_descr ->
  unit ->
  t
(** The real-socket interpreter. Sets the socket non-blocking and bumps
    [SO_RCVBUF] best-effort (the multiplexed server's headroom against blast
    bursts). With [batch] (default {!Batch.env_enabled}) sends queue into a
    {!Batch} train flushed by [flush] — equal-size runs for one peer leave
    as one GSO message — and [poll] drains through a demand-sized
    [recvmmsg] ring ({!Batch.create_rx}, which turns [UDP_GRO] on): one
    64 KiB slot at first, doubling up to 64 only while drains keep filling
    it — so a sender that reads a handful of ACKs never pays for a
    server-sized ring — and every coalesced slot is served as the views of
    its datagrams. The ring outlives the transport: the next batched
    transport built on the same socket in the same domain (under the same
    [LANREPRO_BATCH] fallback setting) takes it over instead of allocating
    one, so a closed-loop sender that builds a transport per transfer
    ({!Peer.send}) allocates its ring once. Building a transport retires
    any earlier one on its socket; the two must not be used alternately.
    Otherwise every operation is one syscall, through one receive buffer
    that only this unbatched path allocates, and [UDP_GRO] is turned off,
    so a socket a batching transport used before receives whole datagrams
    again. Transient receive errors are absorbed: a pending
    ICMP port-unreachable is consumed and the wait continues.

    With [poller] the socket is registered on it for edge-triggered
    readiness, the blocking wait runs through {!Poller.wait} instead of
    [Unix.select], and [wake] is provided via {!Poller.wake}. The caller
    owns the poller and closes it after the transport's last use. Without
    [poller], behavior is the historical select wait and [wake] is
    [None]. *)
