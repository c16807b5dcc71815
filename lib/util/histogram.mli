(** Log-bucketed latency histograms with percentile queries.

    Purity's headline numbers are latency percentiles ("typical
    installations have 99.9% latencies under 1 ms"). This histogram uses
    HDR-style logarithmic bucketing: values are grouped into buckets whose
    width grows geometrically, giving a bounded relative error over many
    orders of magnitude with constant memory. *)

type t

val create : unit -> t
(** Empty histogram covering values from 1 to ~2^62 with ~1.5% relative
    error. Units are whatever the caller records (we use microseconds of
    simulated time). *)

val record : t -> float -> unit
(** Record a non-negative sample (values < 1 count in the first bucket). *)

val count : t -> int
(** Number of recorded samples. *)

val mean : t -> float
(** Arithmetic mean of recorded samples (exact, tracked separately). *)

val max_value : t -> float
(** Largest recorded sample (exact). *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0, 100\]]: smallest bucket upper bound
    such that at least [p]% of samples fall at or below it. Returns 0 for
    an empty histogram. *)

val to_buckets : t -> (float * int) list
(** Occupied buckets as (upper bound, count) pairs in ascending bound
    order — the serialisation the telemetry exporter ships, from which the
    distribution (and any percentile) can be reconstructed without access
    to this module's internals. Empty buckets are omitted. *)

val clear : t -> unit

val pp_summary : t Fmt.t
(** Render "n=… mean=… p50=… p99=… p99.9=… max=…". *)
