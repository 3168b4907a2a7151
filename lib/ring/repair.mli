(** Read-repair: reconcile what the ring actually holds with what the
    write quorum promised, and re-blast the difference.

    The pass is writer-driven — the client still holding the object
    surveys every live server with an [MREQ] datagram, folds the answers
    into a {!Manifest}, and re-blasts each under-replicated stripe to the
    next live servers in its {!Placement.successors} order (the live ring,
    with dead members {!Placement.remove}d). Because validity is the
    stripe CRC, a server that answered with stale or torn bytes is simply
    re-blasted over, and because the re-blast is an ordinary sub-transfer,
    convergence is verified the same way the original put was: the flow
    settles [Success] only on a verified CRC. *)

type action = { stripe : int; server : int }

val plan :
  placement:Placement.t ->
  object_id:int ->
  replicas:int ->
  crcs:int32 array ->
  Manifest.t ->
  action list
(** Pure repair plan against the {e live} placement: for every stripe with
    fewer than [replicas] valid holders, the missing count of successor
    servers not already holding it, in stripe order. Empty when fully
    replicated. *)

type survey = {
  answered : (int * Packet.Stripe.entry list) list;
      (** each answering server's manifest entries, in server order *)
  unresponsive : int list;  (** servers that never answered *)
}

val survey :
  ?ctx:Sockets.Io_ctx.t ->
  transport:Sockets.Transport.t ->
  peer_of:(int -> Unix.sockaddr) ->
  object_id:int ->
  int list ->
  survey
(** Interrogates every listed server at once on one loop over [transport]:
    an [MREQ] to each, resent to the silent ones every 4 retransmit
    intervals of [ctx.tuning], [max_attempts] times in all. An [MREP] about
    [object_id] counts as the answer of the server it came from, the first
    one only, so a late or duplicate answer of one server is never read as
    another's. [ctx.clock] must be the transport's notion of time. *)

type report = {
  first : survey;  (** before any re-blast *)
  before : int array;  (** per-stripe valid replicas, as first surveyed *)
  rounds : int;  (** re-blast rounds run, at most 3 *)
  reblasts : Client.blast_result list;
      (** every round's re-blasts in order; [replica] is [-1] *)
  last : survey;  (** the closing survey, which grounds the verdict *)
  after : int array;  (** per-stripe valid replicas on the closing survey *)
  target : int;  (** [min replicas (live members)] *)
  fully_replicated : bool;  (** every stripe at [target] on the closing survey *)
  elapsed_ns : int;  (** [ctx.clock] around the whole pass *)
}

val run :
  ?ctx:Sockets.Io_ctx.t ->
  ?packet_bytes:int ->
  transport:Sockets.Transport.t ->
  placement:Placement.t ->
  peer_of:(int -> Unix.sockaddr) ->
  object_id:int ->
  stripes:int ->
  replicas:int ->
  data:string ->
  unit ->
  report
(** The whole pass on one transport and clock: survey every member of
    [placement], then up to 3 rounds of plan against [target], re-blast
    (all of a round's jobs at once, {!Client.blast}) and re-survey. The
    verdict ([after], [fully_replicated]) comes from the ring's own
    answers, never from the blasts' view of themselves. Re-blast ids run
    1, 2, ... across the rounds, so, as for {!Client.put}, give each call
    its own transport. [placement] should be the live ring: pass the full
    ring {!Placement.remove}d of known-dead members so successors skip
    them. *)
