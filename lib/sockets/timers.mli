(** Binary min-heap of timer deadlines: the engine's flow ticks and
    {!Loop}'s netem-delayed emissions.

    Deadlines are monotonic-clock nanoseconds; payloads are opaque. The heap
    supports lazy invalidation: callers push a new entry whenever a wake-up
    moves earlier and revalidate against current state on pop, so entries
    made stale by a later deadline simply pop early and are re-armed. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> deadline:int -> 'a -> unit

val peek_deadline : 'a t -> int option
(** Earliest pending deadline; [None] when empty. *)

val pop : 'a t -> (int * 'a) option
(** Removes and returns the earliest [(deadline, payload)]. *)

val pop_due : 'a t -> now:int -> 'a option
(** [pop] restricted to entries with [deadline <= now]; [None] when the
    earliest entry is still in the future. *)

val iter : 'a t -> (deadline:int -> 'a -> unit) -> unit
(** Visits every pending entry, stale ones included, in unspecified order —
    the invariant checker's window into the heap. *)
