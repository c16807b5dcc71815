(** Range-encoded integer sets.

    Paper §4.10: elide records are encoded as ranges and contiguous ranges
    are merged, so an elide table keyed by dense, monotonically increasing
    ids collapses rapidly instead of leaking space. The structure is an
    immutable set of disjoint inclusive [\[lo, hi\]] ranges; adjacent and
    overlapping ranges merge on insertion, keeping the representation at
    its information-theoretic minimum. *)

type t

val empty : t
val is_empty : t -> bool

val add : t -> int -> t
(** Insert a single id, merging with neighbours. *)

val add_range : t -> lo:int -> hi:int -> t
(** Insert an inclusive range ([lo <= hi]). The set is one flat array,
    so an insert copies it: O({!range_count}) time and words, and
    replaying [n] logged elides costs O([n] × {!range_count}). The count
    is bounded by the ids left between elided ones, since every gap
    between two ranges holds an id never elided. The array's tables
    elide by medium id, so theirs hold at most one range more than the
    mediums still live. *)

val mem : t -> int -> bool
(** A binary search over the ranges that allocates nothing: every merge,
    flatten and lookup asks it for each fact it meets. *)

val cardinal : t -> int
(** Total ids covered. *)

val range_count : t -> int
(** Number of stored ranges — the space the elide table actually uses.
    The paper's bound: never more than the number of live tuples. *)

val union : t -> t -> t
val to_list : t -> (int * int) list
(** Sorted disjoint inclusive ranges. *)

val of_list : (int * int) list -> t

val fold : (lo:int -> hi:int -> 'a -> 'a) -> t -> 'a -> 'a
(** Over the ranges in ascending order. *)

val encode : t -> string
(** Compact varint serialisation (delta-encoded) for persistence. *)

val decode : string -> t option
(** The inverse of {!encode}, total on arbitrary bytes: [None] unless the
    input is exactly some set's encoding (no overlapping or adjacent
    ranges, no overflow, no bytes left over). *)
