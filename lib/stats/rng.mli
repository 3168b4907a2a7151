(** Deterministic, splittable pseudo-random number generator.

    The generator is xoshiro256** seeded through splitmix64, implemented from
    scratch so that every experiment in this repository is reproducible from a
    single integer seed, independent of the OCaml stdlib [Random] state.

    The state is stored unboxed: a draw allocates nothing inside this module,
    so the bulk generator {!string} and the derived draws ({!int},
    {!bernoulli}, ...) are allocation-free. A call from another module still
    boxes what {!bits64} and {!float} return; generate bulk bytes with
    {!string} rather than a loop over {!bits64}. *)

type t

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed. Equal seeds yield
    equal streams. *)

val derive : root:int -> index:int -> t
(** [derive ~root ~index] builds the generator for task [index] of the
    experiment seeded by [root]. Both arguments pass through a full
    splitmix64 avalanche before the state is expanded, so streams derived
    from nearby roots or nearby indices are statistically independent —
    this is the one seeding rule every trial loop in the tree uses.
    [index] must be non-negative. *)

val split : t -> t
(** [split t] returns a new generator whose stream is statistically
    independent of [t]'s subsequent output. [t] is advanced. *)

val copy : t -> t
(** [copy t] duplicates the current state; both generators then produce the
    same stream. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. Requires
    [0 <= p && p <= 1]. *)

val geometric : t -> p:float -> int
(** [geometric t ~p] samples the number of failures before the first success
    of a Bernoulli([p]) sequence; support is [0, 1, 2, ...]. Requires
    [0 < p <= 1]. *)

val exponential : t -> mean:float -> float
(** Exponential with the given mean. Requires [mean > 0]. *)

val uniform_float : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. *)

val string : t -> int -> string
(** [string t n] is [n] random bytes: [n / 8] draws of {!bits64} written as
    little-endian words, then the low [n mod 8] bytes of one more draw when
    [n] is not a multiple of 8. [n] must be non-negative. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
