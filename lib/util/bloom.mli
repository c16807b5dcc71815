(** Bloom filter over string keys.

    Backs the per-patch key filters on the metadata pyramids: a negative
    [mem] proves the key is absent from the patch, so the lookup path can
    skip its binary search entirely. False positives only cost a wasted
    probe; there are no false negatives. *)

type t

val create : ?fp_rate:float -> expected:int -> unit -> t
(** [create ~expected ()] sizes the filter for [expected] distinct keys
    at the target false-positive rate (default 1%). *)

val add : t -> string -> unit

val add_hashed : t -> int * int -> unit
(** [add] with a precomputed {!hash_pair} of the key. *)

val mem : t -> string -> bool
(** Allocation-free membership probe: [false] means definitely absent. *)

val hash_pair : string -> int * int
(** The two digests all probe positions derive from. Callers testing one
    key against many filters hash once and reuse the pair. *)

val mem_hashed : t -> int * int -> bool
(** [mem] with a precomputed [hash_pair] of the key. *)

val entries : t -> int
(** Number of [add] calls so far. *)

val fill_ratio : t -> float
(** Fraction of bits set — diagnostic for tests. *)
