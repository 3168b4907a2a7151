(** The striped sender: one object in, [stripes x replicas] ordinary blast
    sub-transfers out.

    Each stripe is an even slice of the object (remainder bytes spread
    over the first stripes), blasted to the [r] servers
    {!Placement.replicas} names for [(object_id, stripe index)]. Every
    sub-transfer is a completely ordinary flow — REQ carrying the
    {!Packet.Stripe} framing plus the slice's CRC, then the blast protocol
    as usual — all of them in flight at once on one client loop, so the
    receiving engines need nothing ring-specific on the data path. The
    object is durable under the write-quorum rule: every stripe settled
    [Success] (hence CRC-verified, {!Sockets.Flow.integrity}) on at least
    [quorum] replicas. *)

type job = {
  stripe : int;
  replica : int;  (** 0 = primary *)
  server : int;
  offset : int;
  bytes : int;
}

val stripe_bounds : total:int -> stripes:int -> index:int -> int * int
(** [(offset, length)] of one stripe. Pure; sender and repair agree by
    construction. Raises [Invalid_argument] when [total < stripes], on a
    non-positive stripe count, or an out-of-range index. *)

val stripe_crcs : data:string -> stripes:int -> int32 array
(** Per-stripe CRC-32 of the slices — the validity reference every
    manifest answer is checked against. *)

val plan :
  Placement.t -> object_id:int -> total:int -> stripes:int -> replicas:int -> job list
(** The full fan-out, stripe-major then replica order: deterministic given
    the placement, so a DST trial and a real run blast identical plans. *)

type blast_result = {
  job : job;
  transfer_id : int;  (** the flow's id on the call's transport *)
  result : Sockets.Peer.send_result;
}

val blast :
  ctx:Sockets.Io_ctx.t ->
  ?packet_bytes:int ->
  transport:Sockets.Transport.t ->
  peer_of:(int -> Unix.sockaddr) ->
  object_id:int ->
  stripes:int ->
  data:string ->
  first_id:int ->
  job list ->
  blast_result list
(** Every job as one go-back-N flow with {!Packet.Stripe} framing, all at
    once on one loop ({!Sockets.Peer.send_all_via}), job [k] (from 0) with
    transfer id [first_id + k]; results in job order. *)

type put_result = {
  results : blast_result list;  (** plan order *)
  acked : int array;  (** per stripe, replicas settled [Success] *)
  quorum_met : bool;  (** every stripe acked by >= quorum replicas *)
  elapsed_ns : int;  (** [ctx.clock] around the whole fan-out *)
}

val put :
  ?ctx:Sockets.Io_ctx.t ->
  ?packet_bytes:int ->
  transport:Sockets.Transport.t ->
  placement:Placement.t ->
  peer_of:(int -> Unix.sockaddr) ->
  object_id:int ->
  stripes:int ->
  replicas:int ->
  quorum:int ->
  data:string ->
  unit ->
  put_result
(** {!blast} of the whole plan from id 1, on [transport] and [ctx]
    (timers, attempts, clock; default {!Sockets.Io_ctx.default}). Ids
    restart with every call, so give each call its own transport. [peer_of]
    maps a ring server id to its address. A dead server costs its jobs a
    clean failure once their handshake or watchdog gives up; [quorum_met]
    counts the survivors. Raises [Invalid_argument] unless
    [0 < quorum <= replicas]. *)

val over_udp : (Sockets.Transport.t -> 'a) -> 'a
(** [f] on a fresh ephemeral UDP socket, closed when [f] returns: the
    transport of one {!put} or {!Repair.run} over the real network. *)

val kill_mid_put :
  draw:(int -> int) ->
  max_attempts:int ->
  packet_bytes:int ->
  peer_of:(int -> Unix.sockaddr) ->
  kill:(int -> unit) ->
  job list ->
  Sockets.Transport.t ->
  Sockets.Transport.t
(** Churn driven by a put's progress, not a timer: the transport calls
    [kill victim] just before its [k]-th datagram to [victim], a server of
    [jobs], with [k] within what the put must send it (per job a REQ and
    every DATA packet, or [max_attempts] REQs). [draw n] picks in
    [\[0, n)]: the victim, then [k]. *)
