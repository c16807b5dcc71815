(** CRC-32C (Castagnoli) checksums.

    Segment headers, cblock frames, and NVRAM log entries carry CRC-32C
    checksums so that recovery can distinguish torn or corrupted writes from
    valid data (paper §4.3: "recovery must be robust against corrupted
    pages").

    The production kernel is slicing-by-8 over 64-bit little-endian loads
    with untagged [int] arithmetic, property-tested bit-identical to the
    original byte-at-a-time [Int32] kernel kept in purity.reference. *)

val digest : bytes -> pos:int -> len:int -> int32
(** Checksum of a byte slice. @raise Invalid_argument on a bad range. *)

val digest_string : string -> int32
(** Checksum of a whole string. *)

val update : int32 -> bytes -> pos:int -> len:int -> int32
(** Incremental update: [update crc buf ~pos ~len] extends a running
    checksum previously returned by {!digest} or {!update}. *)
