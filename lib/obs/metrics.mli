(** Named, labelled metrics registry — the single sink every component
    publishes through.

    Counters and gauges are registered on first use and shared on every later
    lookup of the same (name, labels) pair; histograms are {!Hist} and
    summaries wrap {!Stats.Summary}, so the statistical machinery the
    campaigns already use feeds the same snapshots. A
    {!Protocol.Counters.t} record bridges in wholesale via {!add_counters},
    which is how protocol machines, [Simnet.Driver], [Sockets.Peer] and the
    chaos soak all land in one registry. Snapshots render as an aligned text
    table or as JSON.

    The registry is safe under concurrent domains, not just threads:
    counters and gauges are atomics, histograms and summaries carry a
    per-instrument lock, and snapshots read every instrument under its
    lock. *)

type t

type counter
type gauge
type histogram
type summary

val create : unit -> t

val counter : t -> ?labels:(string * string) list -> string -> counter
(** Registers (or retrieves) the counter with this name and label set.
    Raises [Invalid_argument] if the name is already registered as a
    different instrument type. *)

val inc : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : t -> ?labels:(string * string) list -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : t -> ?labels:(string * string) list -> string -> histogram
(** A {!Hist.t} with the default geometry (100 ns … 1000 s); snapshots
    report its count, p50, p90 and p99. *)

val observe : histogram -> float -> unit
(** Records one observation, under the instrument's lock. *)

val summary : t -> ?labels:(string * string) list -> string -> summary

val record : summary -> float -> unit
(** Records one observation, under the instrument's lock. *)

val bridge_counters : t -> ?labels:(string * string) list -> Protocol.Counters.t -> unit
(** Adds every field of a {!Protocol.Counters.t} into counters named
    [protocol_data_sent], [protocol_retransmitted_data], … under the given
    labels. Call it once per finished transfer. *)

val to_table : t -> string
(** One aligned line per instrument, sorted by name then labels. *)

val to_json : t -> Json.t
(** A list of [{"name";"labels";"type";…}] objects, sorted like
    {!to_table}. *)

val pp : Format.formatter -> t -> unit
