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

    The caller identifies writes by the dense ids this module assigns, and
    maps (write id, block) pairs back to its own storage addresses. *)

type t

type source = { write_id : int; block : int }
(** A position inside a previously registered write. *)

type hit = {
  at_block : int;  (** first duplicate block in the incoming write *)
  src : source;  (** where the identical run already lives *)
  run_blocks : int;  (** verified identical blocks, >= 1 *)
}

type config = {
  hash_bits : int;  (** truncated hash width (paper: <= 64) *)
  record_every : int;  (** record 1-in-N block hashes (paper: 8) *)
  window_writes : int;  (** recent writes retained for verification *)
  min_run : int;  (** discard runs shorter than this many blocks *)
}

val create : ?config:config -> unit -> t
(** The default config: 48-bit hashes, record 1/8, 4096-write window, min
    run 1. Blocks are 512 B, the paper's dedup granularity. *)

val register : t -> string -> int
(** Add a write's payload to the index (recording sampled hashes) and
    return its write id. Lengths are rounded down to whole 512 B blocks. *)

val find_duplicates : t -> string -> hit list
(** Verified, non-overlapping duplicate runs of the given payload against
    the recency window, in block order. Does not register the payload. *)

val forget : t -> write_id:int -> unit
(** Drop a write from the verification window. Its anchors stay in the
    index: an anchor leaves only when a later {!register} finds four or
    more anchors in its hash bucket and drops the whole bucket, so the
    index keeps about one anchor per [record_every] blocks registered
    since {!create}, those of writes the window no longer holds included
    (a hit on one fails verification and costs only the lookup). *)

val register_telemetry : t -> Purity_telemetry.Registry.t -> unit
[@@purity.lint.allow
  "unused_export: test_dedup's counters helper reads the index's hash, \
   verification and false-positive counts through it"]
(** Attach the index's counters under [dedup/]: [registered_writes],
    [recorded_hashes], [lookups], [hash_hits], [verified_hits],
    [false_positives] (hash matched, bytes differed) and
    [duplicate_blocks] (blocks covered by returned runs). The index owns
    the cells. The controller does not attach them: its registry's
    [dedup/] keys are the write path's own block counts. *)
