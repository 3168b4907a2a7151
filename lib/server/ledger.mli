(** The delivery oracle: verified delivery or a clean bounded failure.

    Both fault harnesses record into a ledger — [Dst.Harness] over memnet
    under virtual time, {!Swarm} over real UDP — every sender outcome and
    every server completion, keyed by [(sender port, transfer id, payload
    CRC-32)] (the senders share one host). Three properties are checked:
    - a server [Success] carries a [Verified] whole-segment CRC;
    - a sender spends at most [max_attempts * packets] rounds, whatever
      its outcome;
    - every sender [Success] matches a verified server delivery of the same
      key, as a multiset: a key that succeeded twice must be served twice.

    Thread-safe: senders and engines may record from different domains. *)

type t

val create : unit -> t

val sent :
  t ->
  peer:Unix.sockaddr ->
  transfer_id:int ->
  crc:int32 ->
  max_attempts:int ->
  packets:int ->
  Sockets.Peer.send_result ->
  string option
(** One outcome of the sender at [peer], for [packets] packets of data
    whose CRC-32 is [crc]. Returns the breach, if any. *)

val served : t -> peer:Unix.sockaddr -> Sockets.Flow.completion -> string option
(** One server completion of a flow from [peer]. Returns the breach, if
    any. *)

val unmatched : t -> string list
(** Sender successes without a verified server delivery of the same key.
    Meaningful once both sides are quiet. *)

val violations : t -> string list
(** Every breach {!sent} and {!served} returned, in order, then
    {!unmatched}. *)
