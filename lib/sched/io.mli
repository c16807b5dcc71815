(** Segment read scheduler (paper §4.4).

    Purity schedules reads to dodge the SSD latency spikes caused by
    in-flight programs and erases:

    - {e read-around-write}: a drive that is currently writing is treated
      "as though it has failed" — the requested chunk is rebuilt from the
      other shards of its row instead of waiting out the program;
    - {e degraded reads}: chunks on offline or corrupted drives are
      rebuilt the same way (this is also how the array serves I/O through
      two drive failures);
    - {e p95 backup reads}: optionally, a direct read that exceeds the
      observed 95th-percentile latency triggers a parallel reconstruction,
      and whichever finishes first wins ("the tail at scale" hedge).

    Reconstruction reads [k] sibling shards, so a worst-case write-heavy
    workload pays ≈ [7 × 2/11 ≈ 1.3×] extra reads — the paper's cost
    bound, measurable from the [sched/*] counters: reads issued per chunk
    served is [sched/read_amplification]. *)

type t

val create :
  telemetry:Purity_telemetry.Registry.t ->
  layout:Purity_segment.Layout.t ->
  shelf:Purity_ssd.Shelf.t ->
  rs:Purity_erasure.Reed_solomon.t ->
  ?read_around_write:bool ->
  ?p95_backup:bool ->
  unit ->
  t
(** Counts into [telemetry] under [sched/]: [chunk_reads] requested,
    [direct_reads] from the home shard, [reconstruct_reads] rebuilt from
    siblings, [backup_reads] (p95 hedges), [peer_reads] (sibling shards
    read) and [failures] (chunks not served), with the
    [segment_read_us]/[direct_read_us] histograms and the derived
    [read_amplification]. [read_around_write] defaults to true (disable
    for the E6 ablation); [p95_backup] defaults to false. *)

val read :
  t ->
  Purity_segment.Segment.t ->
  off:int ->
  len:int ->
  ((bytes, [ `Unrecoverable ]) result -> unit) ->
  unit
(** Read a payload byte range of a segment. Splits into write-unit chunks,
    serves each by the cheapest safe path, reassembles. [`Unrecoverable]
    only when more than [m] shards of some row are unavailable. *)
