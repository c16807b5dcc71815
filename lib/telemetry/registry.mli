(** Metrics registry: the array's single namespace of counters, derived
    levels and latency histograms.

    The paper's evaluation is built on fleet telemetry phoned home from
    deployed arrays (§1, §5); this registry is the reproduction's
    equivalent of the per-array metric table those logs sample. Every
    subsystem registers its counters under a hierarchical slash-separated
    key ([write_path/nvram_commit_us], [ssd/drive3/program_stalls], ...)
    and records through the handle it got back — a plain int cell, so
    hot-path recording is one store. The registry is main-domain only:
    registration, recording and snapshots all run on the controller's
    domain, and no pool lane reaches it (lint's escape pass proves this).

    Two metric families are recorded directly:
    - {e counters}: monotone ints ([incr]/[add]);
    - {e histograms}: {!Purity_util.Histogram} latency distributions.

    Every counter the array records through this library is such a cell.
    A per-controller path takes its cells from the controller's registry
    ({!counter}); a device that outlives a controller — a drive, an FTL,
    the replication link — owns its cells ({!cell}) and each new registry
    adopts them ({!attach_counter}), so they keep counting across a
    failover while the path counters start again from zero. (The kernel
    and pyramid probe tallies live in libraries below this one and are
    derived.)

    Two more families are {e derived}: closures sampled only at
    {!snapshot} time, for levels computed over live state (table sizes,
    ratios, a drive's [online] flag) rather than counted events.

    Registration is idempotent per key: re-registering the same key with
    the same family returns the original handle; a family mismatch raises
    [Invalid_argument] (two subsystems fighting over one name is a bug
    worth failing loudly on). *)

type t
type counter

val create : unit -> t

(** {1 Registration} *)

val counter : t -> string -> counter

val histogram : t -> string -> Purity_util.Histogram.t
(** A registry-owned histogram; record into it directly with
    {!Purity_util.Histogram.record}. *)

val cell : unit -> counter
(** A counter no registry holds yet: its owner keeps it, records through
    it, and attaches it to each registry it reports into. *)

val attach_counter : t -> string -> counter -> unit
(** Adopt an owner's cell under a key: snapshots read the live cell,
    {!diff} subtracts it and {!reset} zeroes it like any counter.
    Re-attaching the same cell is a no-op; attaching a different cell to
    an occupied key, or a cell to another family's key, raises. *)

val derive_int : t -> string -> (unit -> int) -> unit
(** A computed level, sampled at snapshot time. Re-registration
    replaces the closure (a failover re-derives over fresh state). *)

val derive_float : t -> string -> (unit -> float) -> unit
(** A computed level, sampled at snapshot time. *)

(** {1 Hot-path recording} *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {1 Introspection} *)

val read_int : t -> string -> int
(** The current value of a counter or derived-int key.
    @raise Not_found if the key is absent or holds another family. *)

(** {1 Snapshots} *)

type hist_snapshot = {
  h_count : int;
  h_sum : float;
  h_mean : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
  h_p999 : float;
  h_buckets : (float * int) list;  (** occupied (upper bound, count) *)
}

type value_snapshot = Int of int | Float of float | Hist of hist_snapshot

type snapshot = (string * value_snapshot) list
(** Key-sorted point-in-time sample. Counters and derived-int metrics
    appear as [Int], derived-float metrics as [Float]. *)

val snapshot : t -> snapshot

val find : snapshot -> string -> value_snapshot option

val diff : base:snapshot -> current:snapshot -> snapshot
(** Activity between two snapshots of the same registry: counters and
    histogram buckets subtract (percentiles are recomputed over the
    interval's samples); floats are levels, so the current value is kept.
    Keys absent from [base] pass through unchanged. *)

val reset : t -> unit
[@@purity.lint.allow
  "unused_export: test_segment's read_beside_flush, test_ssd's drive \
   telemetry and test_telemetry's reset/adopted-counter tests zero counts \
   between phases"]
(** Zero all counters (adopted cells too) and clear all histograms.
    Derived metrics are levels over live state and are left alone. *)

val pp_snapshot : snapshot Fmt.t
(** Grouped, aligned rendering for the CLI's [stats] subcommand. *)
