(** Systematic Reed–Solomon erasure coding over GF(2^8).

    Purity stripes each segment across a write group of [k + m] drives
    using 7+2 Reed–Solomon (paper §4.2, §4.4), tolerating the loss of any
    two drives. The code here is systematic (data shards are stored
    verbatim) with a Vandermonde-derived encoding matrix, so any [k] of
    the [k + m] shards reconstruct the original data.

    The same decoder serves three of the paper's mechanisms:
    - rebuilding after drive failure;
    - "reconstruct reads" around drives that are busy writing (§4.4);
    - reconstructing data whose read came back slower than the 95th
      percentile or corrupted (§4.4, §5.1). *)

type t

val create : k:int -> m:int -> t
(** [k] data shards, [m] parity shards; [k + m <= 255], both positive. *)

val k : t -> int
val m : t -> int

val encode : t -> bytes array -> bytes array
(** [encode t data] takes [k] equal-length data shards and returns the [m]
    parity shards. One pass over the data shards, word-at-a-time GF(256)
    multiply-accumulate with cached per-coefficient tables. *)

val encode_ref : t -> bytes array -> bytes array
(** The original row-major byte-at-a-time encode, retained as the
    reference {!encode} is property-tested against. Same results. *)

val encode_string : t -> string -> shard_size:int -> string array
(** Convenience: split a buffer into [k] shards of [shard_size] (padding
    the tail with zeros), encode, and return all [k + m] shards. *)

val decode : t -> (bytes option) array -> bytes array
(** [decode t shards] takes the [k + m] shard slots with [None] marking
    erasures and returns the [k] data shards. At most [m] slots may be
    [None].
    @raise Invalid_argument if more than [m] shards are missing. *)

val reconstruct_shard : t -> (bytes option) array -> int -> bytes
(** Rebuild just shard [i] (data or parity) from the survivors; used for
    single-drive rebuild and reconstruct-reads. *)

val parity_overhead : t -> float
(** [m / k]: space overhead of the code (7+2 → ~0.29, versus 1.0 for the
    mirrored pairs disk arrays use). *)
