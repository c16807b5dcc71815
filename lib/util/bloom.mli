(** Bloom filter over string keys.

    Backs the per-patch key filters on the metadata pyramids: a negative
    [mem_hashed] proves the key is absent from the patch, so the lookup path can
    skip its binary search entirely. False positives only cost a wasted
    probe; there are no false negatives. *)

type t

val create : ?fp_rate:float -> expected:int -> unit -> t
(** [create ~expected ()] sizes the filter for [expected] distinct keys
    at the target false-positive rate (default 1%). *)

val add_hashed : t -> int * int -> unit
(** Add the key whose {!hash_pair} this is. *)

val hash_pair : string -> int * int
(** The two digests all probe positions derive from. Callers testing one
    key against many filters hash once and reuse the pair. *)

val mem_hashed : t -> int * int -> bool
(** Allocation-free membership probe of the key whose [hash_pair] this
    is: [false] means definitely absent. *)
