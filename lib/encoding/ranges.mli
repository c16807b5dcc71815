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
(** Insert an inclusive range ([lo <= hi]). *)

val mem : t -> int -> bool
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

val encode : t -> string
(** Compact varint serialisation (delta-encoded) for persistence. *)

val decode : string -> t option
(** The inverse of {!encode}, total on arbitrary bytes: [None] unless the
    input is exactly some set's encoding (no overlapping or adjacent
    ranges, no overflow, no bytes left over). *)
