(** Allocation-unit allocator with frontier sets (paper §4.3, Figure 5).

    The allocator hands out one free AU per member drive to each new
    segment. To keep failover fast, it only allocates AUs from the
    {e persisted frontier set} — the list of AUs, durably recorded in the
    boot region, that the array "plans to use soon". Recovery therefore
    scans just those AUs for log records instead of every segment header
    in the array.

    A {e speculative set} (approximation of the next frontier) is
    persisted alongside, so the frontier only needs rewriting when both
    run dry — which is why "frontier set writes consist of well under 1%
    of writes".

    The allocator is pure state: persistence latency is charged by the
    caller (the array core writes {!persisted_frontier} to the boot
    region whenever {!persist_generation} changes). *)

type t

val create : layout:Layout.t -> drives:int -> aus_per_drive:int -> unit -> t
(** All AUs start free. Each frontier refill makes 8 AUs per drive
    allocatable. *)

val allocate : t -> online:(int -> bool) -> Segment.member array option
(** Reserve [k + m] AUs on distinct online drives (least-used first),
    drawing only from the frontier (refilling it if needed). [None] when
    fewer than [k + m] drives are online or space is exhausted. *)

val allocate_one : t -> allowed:(int -> bool) -> Segment.member option
(** Reserve one AU on any drive satisfying [allowed]; used to remap a
    sealed segio's member whose drive failed before the flush. *)

val release : t -> Segment.member array -> unit
(** Return a reclaimed segment's AUs to the free pool (after the caller
    trims them); they re-enter circulation at the next frontier refill. *)

val free_au_count : t -> int
val used_au_count : t -> int

val is_used : t -> Segment.member -> bool
(** Does this AU hold a live segment (allocated and not yet released)? *)

val persisted_frontier : t -> Segment.member list
(** Frontier ∪ speculative sets as of the last persist — exactly the AUs
    recovery must scan for recent log records. *)

val persist_generation : t -> int
(** Bumped each time the persisted sets change; the caller rewrites the
    boot region when it observes a new generation. The ratio of this
    counter to segment allocations demonstrates the "<1% of writes"
    claim. *)

val allocated_count : t -> int
(** Number of allocations recorded since the last {!checkpoint_mark} —
    the checkpoint's cut point. *)

val checkpoint_mark : t -> keep:int -> extra:Segment.member list -> unit
(** Called after a checkpoint persists all metadata facts: AUs allocated
    before the checkpoint's cut leave the persisted scan set (their facts
    are covered by checkpointed patches), keeping failover scans small.
    [keep] retains the newest allocations (made after the cut); [extra]
    pins further members, e.g. the open segio. Bumps
    {!persist_generation} so the caller rewrites the boot region. *)

val recover :
  t ->
  persisted:Segment.member list ->
  used:Segment.member list ->
  rescan:Segment.member list ->
  unit
(** Recovery (§4.3): rebuild the allocator once, from the frontier set the
    boot region [persisted] and the members of every segment the
    recovered segment table holds ([used]). The frontier becomes
    [persisted] minus [used], and every other AU goes back to the free
    queues. [rescan] (the rediscovered segments, whose log records no
    checkpoint covers yet) stays in the persisted scan set until the next
    {!checkpoint_mark}. Duplicates, and members on a drive or AU this
    allocator does not have, are dropped. *)
