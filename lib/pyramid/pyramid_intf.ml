(* The signature of a pyramid over one table's patches; see pyramid.mli. *)

module type S = sig
  module Patch : Patch.S

  type key = Patch.Fact.key
  type value = Patch.Fact.value
  type fact = Patch.Fact.t

  type policy =
    | Elide of (fact -> int)
        (** Rule mapping a fact to its elide-table id. The motivating example
            (mediums): key encodes [(medium, offset)], rule extracts
            [medium], and dropping a medium is one elide-range insert. *)
    | Tombstones

  type t

  val create : ?memtable_flush_count:int -> policy:policy -> name:string -> unit -> t
  (** [memtable_flush_count] (default 1024) bounds the memtable before
      {!insert} auto-flushes. The memtable is an arrival-order array of
      facts, a chain linking each key's facts newest-first, and an
      open-addressing index from a key to its newest fact; the arrays
      double as they fill, up to the flush count, and a flush keeps them,
      so a steady-state insert allocates nothing. *)

  val name : t -> string
  val policy_is_elision : t -> bool

  (** {1 Writes — monotone fact insertion} *)

  val insert : t -> seq:int64 -> key:key -> value:value -> unit
  val insert_fact : t -> fact -> unit
  (** Idempotent: re-inserting an already-present (key, seq) fact is a
      no-op after the next merge. Used verbatim by recovery replay. *)

  val delete : t -> seq:int64 -> key:key -> unit
  (** Tombstone-policy deletion.
      @raise Invalid_argument under the elision policy. *)

  val elide_id : t -> seq:int64 -> int -> unit
  val elide_range : t -> seq:int64 -> lo:int -> hi:int -> unit
  (** Atomically retract every fact whose rule id falls in the range —
      "atomic predicate-based tuple elision".
      @raise Invalid_argument under the tombstone policy. *)

  (** {1 Reads} *)

  val find : t -> key -> value option
  (** Latest live value for a key: tombstoned and elided facts read as
      absent. {!resolve_fact} of {!latest_fact}. *)

  val latest_fact : t -> key -> fact option
  (** The newest fact for a key, tombstones and elided facts included:
      [None] only when the table holds no fact about the key at all. Its
      value is the paper's relaxed consistency read, which "simply ignores
      retractions, allowing [readers] to observe tuples that no longer
      exist". A run of one: {!find_run} over [[| key |]] with [~span:1]. *)

  val find_naive : t -> key -> value option
  (** Reference implementation of {!find} that probes every patch with the
      list-building [Patch.find]. Exists so tests, the resolution audit
      and the metadata micro-benchmark can compare {!find_run} against a
      path it does not share; results are always identical. *)

  val find_run : t -> keys:key array -> span:int -> into:fact array -> unit
  (** Batched lookup for runs of [span] consecutive keys (see
      {!Fact_intf.KEY.offset}), one run from each of [keys] (ascending,
      the runs disjoint): each memtable key is probed in place, then one
      lower_bound and one sequential walk per patch instead of a search
      per key. Slot [r * span + o] of [into] (which needs at least
      [Array.length keys * span] slots) is the key [o] steps after
      [keys.(r)]; it ends holding that key's latest fact, or
      {!Fact_intf.S.absent} (physically) when the table holds none.
      Retractions are NOT applied — read each slot through {!live_value}
      if liveness matters. Allocates nothing. *)

  val live_value : t -> fact -> value option
  (** A fact's value, or [None] when it is a tombstone or elided: the
      fact's own option, so nothing is allocated. *)

  val resolve_fact : t -> fact option -> value option
  (** {!live_value} of a looked-up fact, [None] for no fact. *)

  val iter_live : t -> (fact -> unit) -> unit
  (** Visit each key's latest live fact, in key order: the stored fact
      itself (its value is [Some _]), neither tombstoned nor elided. *)

  val range : t -> lo:key -> hi:key -> (key * value) list
  (** Live (key, value) pairs with [lo <= key <= hi], in key order. The
      memtable is walked whole; within patches, only the facts inside
      each overlapping patch's fence are read, so beyond the memtable the
      cost is the range's facts, not the whole pyramid's. *)

  (** {1 Maintenance} *)

  val flush : t -> unit
  (** Freeze the memtable into a new top patch (no-op when empty), then run
      size-tiered maintenance: shallow patches of similar size merge, so the
      patch count stays logarithmic in the number of flushes. *)

  val merge_step : t -> bool
  (** Merge the two shallowest adjacent patches; false if fewer than two
      patches exist. Elided facts encountered are dropped immediately. *)

  val flatten : t -> unit
  (** Full compaction to a single bottom patch: superseded facts, elided
      facts, and (tombstone policy) the tombstones themselves are dropped. *)

  (** {1 Introspection & persistence} *)

  val patch_count : t -> int
  val fact_count : t -> int
  (** Stored facts across memtable and patches, including shadowed ones. *)

  val live_key_count : t -> int
  val elide_table : t -> Purity_encoding.Ranges.t
  val elide_range_count : t -> int
  val max_seq : t -> int64
  (** Highest sequence number stored (0 when empty). *)

  val patches : t -> Patch.t list
  (** Shallowest first; for the segment writer to persist. *)

  val probe_stats : t -> int * int
  (** [(probes, fence_skips)] since creation: patch consults attempted by
      {!find_run}, and how many its key fence rejected without a search. *)

  val replace_patches : t -> Patch.t list -> unit
  (** Install persisted patches at recovery (shallowest first). *)

  val restore_elides : t -> Purity_encoding.Ranges.t -> unit
  (** Recovery: re-install a checkpointed elide table (elide ids are never
      reused, so this is always safe).
      @raise Invalid_argument on tombstone tables. *)
end
