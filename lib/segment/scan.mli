(** Recovery scans (paper §4.3, Figure 5).

    Two ways to rediscover segments after a crash or failover:

    - {!scan_all}: read the header page of every AU on every online drive.
      Self-describing segments make this always correct, but it is linear
      in array capacity — the 12-second scan that brought early Purity
      "dangerously close to the 30 second timeout".

    - {!scan_members}: read only the AUs in the persisted frontier set —
      the only places recent log records can live — plus nothing else.
      This is the 0.1-second path.

    Both report every decoded segment exactly once (headers are replicated
    on each member; duplicates collapse by segment id) and complete at the
    simulated time the last header read finishes, so the two scans'
    completion times are directly comparable (experiment E3). *)

val scan_all :
  layout:Layout.t ->
  shelf:Purity_ssd.Shelf.t ->
  ?claims:int Purity_util.Keytbl.Ipair.t ->
  (int -> Segment.t list -> unit) ->
  unit
(** Callback receives the number of headers scanned (one per AU of an
    online drive) and all discovered segments, ordered by id. When
    [claims] is given, it is filled with [(drive, au) -> segment id] for
    every AU whose on-disk header decoded — the proof of which segment
    each physical AU currently belongs to (an AU can be reused by a newer
    segment while the old segment's other members still carry its id). *)

val scan_members :
  layout:Layout.t ->
  shelf:Purity_ssd.Shelf.t ->
  ?claims:int Purity_util.Keytbl.Ipair.t ->
  Segment.member list ->
  (int -> Segment.t list -> unit) ->
  unit
(** Scan only the given (drive, AU) slots, each once however often it is
    listed; the count passed on is the number of distinct slots. *)
