(** Mergeable log-bucketed histogram for hot-path latency/size tracking.

    Buckets are geometrically spaced between [lo] and [hi] (defaults cover
    100 ns … 1000 s at ~24 buckets per decade, ≤ ~10% quantile error),
    with exact min/max/sum kept alongside so the tail quantile and the mean
    never suffer bucket rounding at the extremes. Every operation takes the
    instance mutex, so one histogram may be fed from several domains
    (engine shards roll up via {!merge}). Unlike {!Stats.Summary} this
    reports p50/p90/p99 rather than mean-only; it backs every histogram in
    {!Metrics}. *)

type t

val create : ?lo:float -> ?hi:float -> ?bins:int -> unit -> t
(** Geometric bucket grid over [\[lo, hi)]. Requires [0 < lo < hi] and
    [bins > 0]; defaults [lo = 100.], [hi = 1e12], [bins = 240] — sized
    for nanosecond durations. Values below [lo] (or non-positive) land in
    an underflow bucket pinned at [lo]; values at or above [hi] land in an
    overflow bucket pinned at the exact observed max. *)

val add : t -> float -> unit
(** Records one observation. NaN is ignored. *)

val count : t -> int
val min_value : t -> float
(** Exact smallest observation; [nan] when empty. *)

val max_value : t -> float
(** Exact largest observation; [nan] when empty. *)

val sum : t -> float
val mean : t -> float
(** [nan] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] for [0 <= q <= 1], interpolated within the bucket grid
    and clamped to the exact observed [\[min, max\]]. [nan] when empty;
    [Invalid_argument] outside [\[0, 1\]]. *)

val merge : into:t -> t -> unit
(** Adds every bucket and the exact min/max/sum of the second histogram
    into [into] (the source is unchanged). Both histograms must share the
    same [(lo, hi, bins)] geometry — [Invalid_argument] otherwise. Safe
    against concurrent {!add} on either side. *)

type summary = {
  count : int;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
  mean : float;
}

val snapshot : t -> summary
(** One consistent read under a single lock acquisition. Quantile fields
    are [nan] when empty. *)

val summary_to_json : summary -> Json.t
(** [{"count":…,"p50":…,"p90":…,"p99":…,"max":…,"mean":…}] — non-finite
    fields serialize as [null] (the {!Json} writer's rule). *)

val to_json : t -> Json.t
(** [summary_to_json (snapshot t)]. *)

val pp : Format.formatter -> t -> unit
(** [n=… p50=… p90=… p99=… max=…] — for report lines. *)
