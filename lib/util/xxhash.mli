(** Non-cryptographic hashes: xxHash64 and a native-int fingerprint.

    {!hash} is xxHash64 proper (from-scratch, spec digests): GC's
    relocation content cache fingerprints frames with it and simulated
    drives draw page-corruption events from it, so its digests are
    pinned by tests.
    {!hash63} is the dedup fingerprint. Purity records hashes "no larger
    than 64 bits" for dedup candidates and relies on a byte-level
    comparison to confirm matches, so collisions affect only
    performance, never correctness (paper §4.7). *)

val hash : ?seed:int64 -> bytes -> pos:int -> len:int -> int64
(** [hash ?seed buf ~pos ~len] is the xxHash64 digest of the slice. Its
    round and merge helpers inline into the stripe loop, whose int64s
    stay unboxed: a call allocates only its boxed result (and the [Some]
    around an explicit [seed]), whatever its length. *)

(** {2 hash63: unboxed fingerprints}

    An xxh-style hash defined over the native [int] width (63 bits on a
    64-bit platform): each 8-byte word is loaded, truncated to 63 bits and
    folded into one of four lanes with untagged arithmetic, so
    fingerprinting a block allocates nothing. It is not xxHash64 and its
    digests differ from {!hash}'s.
    Used by the dedup index, which stores truncated hashes and always
    byte-verifies candidates, so the narrower width costs nothing but a
    marginally higher (still verified-away) collision rate. *)

val hash63 : ?seed:int -> bytes -> pos:int -> len:int -> int
(** Fingerprint a slice; the result uses the full native-int range and
    may be negative. @raise Invalid_argument on a bad range. *)

val truncate_int : int -> bits:int -> int
(** Keep the low [bits] bits of a {!hash63} fingerprint (non-negative for
    [bits < 63]). *)
