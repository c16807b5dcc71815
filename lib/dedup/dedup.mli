(** Inline deduplication (paper §4.7).

    Purity tracks duplicates at 512 B granularity but keeps the hash index
    small with three tricks, all reproduced here:

    - only every eighth block's hash is {e recorded}, though every
      incoming block's hash is {e looked up};
    - hashes are at most 64 bits and may collide: a hit is confirmed by a
      byte-level comparison before any mapping is recorded, so collisions
      cost a compare but never correctness;
    - a confirmed hit becomes an {e anchor} that is extended forwards and
      backwards block-by-block, detecting most duplicate runs of at least
      8 blocks (4 KiB) regardless of alignment.

    Inline dedup "only checks for duplicates of recently written data":
    the index retains the payloads of the last [window_writes] writes (an
    LRU), modelling the recency window; the garbage collector runs a
    second, exhaustive pass later (E8 measures both).

    A window entry holds the payload beside the caller's [home] for it (a
    cblock address), and a write's anchors leave the index with it. *)

type 'home t

type 'home hit = {
  at_block : int;  (** first duplicate block in the incoming write *)
  src_block : int;  (** the run's first block in the registered write *)
  run_blocks : int;  (** verified identical blocks, >= 1 *)
  home : 'home option;  (** the [?home] that write was registered with *)
}

type config = {
  hash_bits : int;  (** truncated hash width (paper: <= 64) *)
  record_every : int;  (** record 1-in-N block hashes (paper: 8) *)
  window_writes : int;  (** recent writes retained for verification *)
  min_run : int;  (** discard runs shorter than this many blocks *)
}

val create : ?config:config -> unit -> 'home t
(** The default config: 48-bit hashes, record 1/8, 4096-write window, min
    run 1. Blocks are 512 B, the paper's dedup granularity. *)

val register : ?home:'home -> 'home t -> string -> unit
(** Add a write's payload and [home] to the window, first evicting the
    least recently used write and its anchors if the window is full, then
    record its sampled hashes. Lengths round down to whole 512 B blocks. *)

val find_duplicates : 'home t -> string -> 'home hit list
(** Verified, non-overlapping duplicate runs of the given payload against
    writes still in the window (each hit promotes its write), in block
    order. Does not register the payload. *)

val forget_where : 'home t -> ('home -> bool) -> unit
(** Drop, with their anchors, every windowed write whose home satisfies
    the predicate; writes registered without a home stay. *)

val register_telemetry : 'home t -> Purity_telemetry.Registry.t -> unit
(** Attach the index's counters under [dedup/]: [registered_writes],
    [recorded_hashes], [lookups], [hash_hits], [verified_hits],
    [false_positives] (hash matched, bytes differed) and
    [duplicate_blocks] (blocks covered by returned runs), plus the level
    [anchors]: the index's size, which rises on each recorded hash and
    falls as writes leave the window or buckets overflow, so it never
    exceeds [window_writes] x ceil(largest write in blocks /
    [record_every]). The index owns the cells. The controller attaches
    its index's cells to its registry, beside the write path's own
    [dedup/inline_blocks] and [dedup/gc_blocks]. *)
