(** The datagram transport interface: one record of operations that the
    one event loop, {!Loop} — under the sender and receiver of {!Peer} and
    the multiplexed [Server.Engine] alike — programs against.

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
          cannot be woken, so loops that must remain stoppable keep a
          bounded wait. *)
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
    {!Batch} train flushed by [flush], and [poll] drains through a
    demand-sized [recvmmsg] ring ({!Batch.create_rx}): one 64 KiB slot at
    first, doubling up to 64 only while drains keep filling it — so a
    sender that reads a handful of ACKs never pays for a server-sized ring.
    Otherwise every operation is one syscall, through one receive buffer
    that only this unbatched path allocates. Transient receive errors are
    absorbed: a pending ICMP port-unreachable is consumed and the wait
    continues.

    With [poller] the socket is registered on it for edge-triggered
    readiness, the blocking wait runs through {!Poller.wait} instead of
    [Unix.select], and [wake] is provided via {!Poller.wake}. The caller
    owns the poller and closes it after the transport's last use. Without
    [poller], behavior is the historical select wait and [wake] is
    [None]. *)
