(** The comparator of Table 1: a disk-based enterprise array.

    A simplified VNX-class model: a shelf of 10k/15k RPM spindles behind
    dual controllers with a battery-backed write cache and a DRAM read
    cache. Reads miss the cache with some probability and pay a
    seek + rotate + transfer service time on one spindle; writes commit
    to the battery-backed RAM and destage in the background (destage
    bandwidth bounds sustained write throughput).

    Driven against the shared simulation clock so its latency/IOPS
    numbers are directly comparable with the Purity array's. *)

type config = {
  disks : int;
  seek_ms : float;
  rotate_ms : float;  (** half-rotation average *)
  transfer_mb_s : float;  (** per-disk media rate *)
  read_cache_hit : float;
  cache_hit_us : float;
  write_cache_us : float;  (** battery-backed RAM commit *)
  destage_fraction : float;
      (** fraction of spindle time reserved for destaging writes *)
}

type t

val create : ?config:config -> clock:Purity_sim.Clock.t -> seed:int64 -> unit -> t
(** The default config: 120 x 15k-RPM spindles (a mid-range shelf): 3.5
    ms seek, 2 ms rotate, 180 MB/s media, 20% read-cache hits, 0.25 ms
    cached ops. *)

val read : t -> bytes:int -> (unit -> unit) -> unit
val write : t -> bytes:int -> (unit -> unit) -> unit

val read_lat : t -> Purity_util.Histogram.t
