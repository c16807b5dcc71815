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
      {!insert} auto-flushes. *)

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
      absent. Patches whose key fence or bloom filter excludes the key are
      skipped without a search. *)

  val latest_fact : t -> key -> fact option
  (** The newest fact for a key, tombstones and elided facts included:
      [None] only when the table holds no fact about the key at all. Its
      value is the paper's relaxed consistency read, which "simply ignores
      retractions, allowing [readers] to observe tuples that no longer
      exist". *)

  val find_naive : t -> key -> value option
  (** Reference implementation of {!find} that probes every patch with the
      list-building [Patch.find]. Exists so tests and the metadata
      micro-benchmark can compare the fenced fast path against it; results
      are always identical. *)

  val find_run : t -> n:int -> key_of:(int -> key) -> index:(key -> int) -> fact option array
  (** Batched lookup for [n] consecutive keys: one lower_bound then a
      sequential walk per patch instead of [n] independent searches.
      [key_of i] is slot [i]'s key (ascending in [i]); [index] maps a
      stored key back to its slot (anything outside [0, n) is ignored).
      Returns the latest fact per slot with retractions NOT
      applied — pass each slot through {!resolve_fact} if liveness
      matters. *)

  val resolve_fact : t -> fact option -> value option
  (** Apply tombstone/elide filtering to a looked-up fact (e.g. a
      {!find_run} slot), yielding its live value. *)

  val iter_live : t -> (key:key -> value:value -> unit) -> unit
  (** Visit each key's latest live value, in key order. *)

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

  val probe_stats : t -> int * int * int
  (** [(probes, fence_skips, bloom_skips)] since creation: patch consults
      attempted by the lookup paths, and how many were rejected by the key
      fence or the bloom filter without a search. *)

  val replace_patches : t -> Patch.t list -> unit
  (** Install persisted patches at recovery (shallowest first). *)

  val restore_elides : t -> Purity_encoding.Ranges.t -> unit
  (** Recovery: re-install a checkpointed elide table (elide ids are never
      reused, so this is always safe).
      @raise Invalid_argument on tombstone tables. *)
end
