(* The signature of a patch over one table's facts; see patch.mli. *)

module type S = sig
  module Fact : Fact.S

  type t

  val of_facts : Fact.t list -> t
  (** Sort, deduplicate and freeze a batch of facts. *)

  val of_array : Fact.t array -> t
  (** {!of_facts} over an array the patch takes over: it is sorted and
      deduplicated in place, and the patch may share it, so the caller
      must not use it again. *)

  val empty : t
  val count : t -> int
  val is_empty : t -> bool

  val seq_range : t -> (int64 * int64) option
  (** Smallest and largest sequence number, [None] when empty. *)

  val max_seq : t -> int64
  (** Highest seq in the patch; [Int64.min_int] when empty. Cached at
      construction: the lookup path seq-fences whole patches with it. *)

  val find : t -> Fact.key -> Fact.t list
  (** All facts for a key, newest (highest seq) first. *)

  val find_latest : t -> Fact.key -> Fact.t option
  (** The key's newest fact; allocation-free on the miss path (no
      intermediate list). *)

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

  val bloom_admits_hashed : t -> (int * int) lazy_t -> bool
  (** Given the key's [Fact.Key.hash_pair], computed at most once across a
      whole patch stack (forced only if some patch has a filter): [false]
      proves the key is absent; [true] means "probe the patch" (always
      [true] for small patches, which carry no filter). *)

  val iter_run : t -> lo:Fact.key -> hi:Fact.key -> (Fact.t -> unit) -> unit
  (** Visit facts with [lo <= key <= hi] in patch order: one lower_bound
      then a sequential walk, allocating nothing. The batched-resolution
      primitive behind {!Pyramid.S.find_run}. *)

  val merge : t -> t -> t
  (** Combine two patches (the pyramid's merge operation). Commutative,
      associative and idempotent — merging a patch with itself, or replaying
      a merge, yields the same result. *)

  val merge_keep : t -> t -> keep:(Fact.t -> bool) -> t
  (** [merge] that drops the facts [keep] rejects on the way, building one
      patch instead of a merge and then a filter. *)

  val iter_newest : t list -> keep:(Fact.t -> bool) -> (Fact.t -> unit) -> unit
  (** [iter_newest ts ~keep f] merges the runs [ts] (shallowest first) in
      one pass and calls [f] on each key's newest fact that [keep]
      accepts, tombstones included, in key order. A (key, seq) repeat
      counts once, as its shallowest copy. *)

  val flatten : t list -> keep:(Fact.t -> bool) -> t
  (** The bottom of a pyramid whose runs are [ts]: the facts
      {!iter_newest} visits, less the tombstones. Valid only at the
      bottom, where no older level can resurrect what it drops. *)

  val serialize : t -> string

  val deserialize : string -> t option
  (** The inverse of {!serialize}, total on arbitrary bytes: [None] for a
      string that is not exactly some patch's serialisation — a CRC
      mismatch, a fact {!Fact.S.decode} rejects, facts out of layout order
      or duplicated, bytes left over — so whatever decodes re-serialises
      to the input. *)
end
