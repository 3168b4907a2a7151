(** The client's view of one object's replication state, aggregated from
    per-server [MREQ]/[MREP] exchanges.

    Servers answer with the {!Packet.Stripe.entry} records of stripes they
    settled with a verified CRC; {!record} folds each answer in, keyed by
    the answering server. Validity is end-to-end: a holder counts toward
    replication only when the CRC it reports equals the CRC of the bytes
    the client blasted ([crcs.(stripe)]), so a torn or stale copy can
    never satisfy a quorum. *)

type t

val create : object_id:int -> stripes:int -> t
(** Empty view of an object with the given stripe count. Raises
    [Invalid_argument] on a non-positive count. *)

val object_id : t -> int
val stripes : t -> int

val record : t -> server:int -> Packet.Stripe.entry list -> unit
(** Fold one server's manifest answer in. Entries about other objects or
    with a disagreeing stripe count are ignored; a repeated answer from
    the same server replaces its older claims (newest wins). *)

val valid_holders : t -> stripe:int -> crc:int32 -> int list
(** Servers whose claimed CRC matches the expected one — the replicas
    that count. *)

val replication : t -> crcs:int32 array -> int array
(** Per-stripe valid-replica count. Raises [Invalid_argument] unless
    [crcs] has exactly [stripes t] entries. *)

val quorum_met : t -> quorum:int -> crcs:int32 array -> bool
(** Every stripe has at least [quorum] valid replicas. *)

val under_replicated : t -> replicas:int -> crcs:int32 array -> (int * int list) list
(** Stripes holding fewer than [replicas] valid copies, with their
    current valid holders — the repair pass's work list, in stripe
    order. *)
