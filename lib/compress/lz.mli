(** Byte-oriented LZ77 block compression.

    Purity compresses every application block before it reaches flash
    (paper §3.1): log-structured placement lets compressed blocks pack
    tightly with no alignment padding, so a "simpler, more efficient"
    byte-oriented LZ class codec suffices. This is such a codec, written
    from scratch: greedy LZ77 with a 64 KiB window, 4-byte minimum match,
    and an LZ4-style token format (so decompression is branch-light).

    Format per sequence: a token byte whose high nibble is the literal
    count and low nibble the match length minus 4 (15 in either nibble
    chains 255-valued extension bytes), then the literals, then a 2-byte
    little-endian match offset. The final sequence carries literals only
    (offset 0 terminator).

    Like LZ4 (its [LZ4_skipTrigger]), the scan strides through runs that
    do not match: after [misses] failed probes since the last match it
    advances [1 + (misses lsr 9)] bytes, so the step starts growing only
    once a whole 512-byte sector has produced no match. Data that matches
    at least once per sector compresses exactly as with a step of 1;
    incompressible runs, which {!Cblock} stores Raw anyway, cost a
    fraction of the probes. The trigger is a constant, not a config
    field: it decides which positions are probed, and so the output
    bytes. The decoder and the format do not depend on it.

    The production compressor works a word at a time — 32-bit candidate
    probes, 8-byte match extension, sequences written into a reusable
    {!scratch} buffer through an epoch-stamped hash table, so steady-state
    compression allocates nothing. It emits byte-identical output to the
    original byte-at-a-time compressor, kept in purity.reference; the
    property suite enforces this. *)

type scratch
(** Reusable compressor state: hash table plus worst-case output buffer.
    Not shared between concurrent compressions. *)

val create_scratch : unit -> scratch

val compress : ?scratch:scratch -> string -> string
(** Compress a buffer (via a module-wide scratch unless one is given).
    Output may be larger than the input for incompressible data; callers
    should use {!compress_cblock}-style framing to fall back to raw
    storage (see {!Cblock}). *)

val compress_into : scratch -> string -> int
(** Compress straight into the scratch buffer, returning the compressed
    length; the bytes live in {!scratch_bytes} until the next use. The
    zero-copy path for callers that frame the output themselves. *)

val scratch_bytes : scratch -> Bytes.t
(** The scratch output buffer holding the last {!compress_into} result. *)

val decompress : string -> expected_len:int -> string
(** Decompress; [expected_len] is the original size (stored out-of-band in
    the cblock frame). Match copies run 8 bytes per step whenever the
    offset permits (short offsets are the RLE overlap case and stay
    byte-wise).
    @raise Invalid_argument on malformed input or length mismatch. *)
