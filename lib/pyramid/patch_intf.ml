(* The signature of a patch over one table's facts; see patch.mli. *)

module type S = sig
  module Fact : Fact.S

  type t

  val of_facts : Fact.t list -> t
  (** Sort, deduplicate and freeze a batch of facts. *)

  val empty : t
  val count : t -> int
  val is_empty : t -> bool

  val seq_range : t -> (int64 * int64) option
  (** Smallest and largest sequence number, [None] when empty. *)

  val max_seq : t -> int64
  (** Highest seq in the patch; [Int64.min_int] when empty. Cached at
      construction: the lookup path seq-fences whole patches with it. *)

  val min_seq : t -> int64
  (** Lowest seq in the patch; [Int64.max_int] when empty. *)

  val key_range : t -> (Fact.key * Fact.key) option

  val find : t -> Fact.key -> Fact.t list
  (** All facts for a key, newest (highest seq) first. *)

  val find_latest : t -> Fact.key -> Fact.t option

  val find_latest_at : t -> Fact.key -> snapshot:int64 -> Fact.t option
  (** Latest fact for a key with [seq <= snapshot]; allocation-free on the
      miss path (no intermediate list). *)

  (** {2 Lookup fences}

      Cheap rejections consulted before any binary search: the key range
      comes from the sorted run's ends, and patches of at least 16 facts
      carry a bloom filter over their distinct keys. The filter is built
      on the first point probe that consults it — range walks never do, so
      a patch only they read never pays for one. *)

  val fence_admits : t -> Fact.key -> bool
  (** Could [key] fall inside this patch's key range? *)

  val fence_overlaps : t -> lo:Fact.key -> hi:Fact.key -> bool
  (** Could any key in [lo, hi] fall inside this patch's key range? *)

  val bloom_admits : t -> Fact.key -> bool
  (** [false] proves the key is absent; [true] means "probe the patch"
      (always [true] for small patches, which carry no filter). *)

  val bloom_admits_hashed : t -> (int * int) lazy_t -> bool
  (** [bloom_admits] with the key's [Fact.Key.hash_pair] computed at most
      once across a whole patch stack (forced only if some patch has a
      filter). *)

  val has_bloom : t -> bool

  val iter : t -> (Fact.t -> unit) -> unit
  (** In patch order. *)

  val fold : ('a -> Fact.t -> 'a) -> 'a -> t -> 'a
  val to_list : t -> Fact.t list
  val get : t -> int -> Fact.t

  val range : t -> lo:Fact.key -> hi:Fact.key -> Fact.t list
  (** Facts with [lo <= key <= hi], in patch order. *)

  val iter_run : t -> lo:Fact.key -> hi:Fact.key -> (Fact.t -> unit) -> unit
  (** Visit facts with [lo <= key <= hi] in patch order: one lower_bound
      then a sequential walk, allocating nothing. The batched-resolution
      primitive behind {!Pyramid.S.find_run}. *)

  val exists_in_range : t -> lo:Fact.key -> hi:Fact.key -> bool
  (** Is any fact's key within [lo, hi]? *)

  val merge : t -> t -> t
  (** Combine two patches (the pyramid's merge operation). Commutative,
      associative and idempotent — merging a patch with itself, or replaying
      a merge, yields the same result. *)

  val merge_keep : t -> t -> keep:(Fact.t -> bool) -> t
  (** [merge] that drops the facts [keep] rejects on the way, building one
      patch instead of a merge and then a {!filter}. *)

  val merge_many : t list -> t

  val filter : t -> (Fact.t -> bool) -> t
  (** Keep only matching facts (elide-aware flatten uses this). *)

  val compact_latest : t -> drop_tombstones:bool -> t
  (** Keep only the newest fact per key — valid only at the bottom of a
      pyramid, where no older level can resurrect superseded facts. With
      [drop_tombstones] the retractions themselves are discarded too. *)

  val serialize : t -> string

  val deserialize : string -> t
  (** The inverse of {!serialize}: a string that is not exactly some
      patch's serialisation is rejected.
      @raise Invalid_argument on malformed input: a CRC mismatch, a fact
      {!Fact.S.decode} rejects, facts out of layout order or duplicated,
      and bytes left over. *)
end
