(** Consistent-hash stripe placement over a ring of servers.

    Each server contributes 64 virtual points to the ring, hashed from
    [(seed, node, vnode)] via {!Stats.Hash.mix2} — the same splitmix-style
    mixer behind memnet's REUSEPORT steering, so placement and steering
    share one hash discipline. A stripe's replica set is the first [r]
    {e distinct} servers clockwise from the point of its key
    [(object_id, stripe index)].

    Two properties the tests assert, both classic consistent-hashing
    results the virtual nodes buy:
    - {e balance}: over many stripes, each of [N] servers owns roughly
      [1/N] of the primary placements;
    - {e minimal remapping}: removing one server moves only the stripes it
      held — every stripe whose replica set excluded the victim keeps its
      placement bit-for-bit, which is exactly why the repair pass after a
      server death only re-blasts the victim's stripes. *)

type t

val create : seed:int -> int list -> t
(** Ring over the given server ids (deduplicated). Pure function of
    [(seed, nodes)]: equal inputs build identical rings on every host,
    which is what keeps DST placement replayable. Raises
    [Invalid_argument] on an empty list. *)

val remove : t -> int -> t
(** The ring without one server — the live ring a repair pass plans
    against after a death. Same [seed], so surviving placements do not
    move. Raises [Invalid_argument] if it would empty the ring. *)

val nodes : t -> int list
(** Member server ids, ascending. *)

val size : t -> int

val successors : t -> object_id:int -> stripe:int -> int list
(** Every server in clockwise preference order from the stripe's key
    point — head is the primary, and dropping dead entries from this list
    is how repair picks replacement holders. Length [size t]. *)

val replicas : t -> object_id:int -> stripe:int -> r:int -> int list
(** First [min r (size t)] servers of {!successors} — the stripe's
    intended replica set. Raises [Invalid_argument] on non-positive
    [r]. *)
