(** Bit-packed metadata pages with base/offset dictionary compression.

    This is the metadata layout of paper §4.9. A page stores a batch of
    fixed-arity tuples of non-negative integers. Its header holds, for each
    field, a small dictionary of bases [b0..b_{B-1}] and an offset width
    [W]; a value [v = b_x + o] is stored as the pair [(x, o)] in
    [ceil(lg B) + W] bits. Constant fields cost zero bits ("as long as
    their value is the same for every tuple, the extra fields take up no
    space"), and every tuple occupies the same number of bits, so the page
    body is a regular bit stream.

    Regularity is what enables {!scan}: to find tuples whose field equals
    [v], the page is searched for the compressed bit patterns [v] can
    encode to — no tuple is ever decompressed. *)

type t

val encode : arity:int -> int64 array list -> t
(** Pack tuples (all of length [arity], all field values in
    [0, 2^57)) into a page, choosing per-field dictionaries that minimise
    total page size. The input order is preserved. *)

val arity : t -> int
val count : t -> int
val bits_per_tuple : t -> int
val size_bytes : t -> int
(** Page size: header plus packed body. *)

val get : t -> int -> int64 array
(** Decode tuple [i]. *)

val to_list : t -> int64 array list
(** Decode the whole page. *)

val scan : t -> field:int -> value:int64 -> int list
(** Indices of tuples whose [field] equals [value], found by comparing
    compressed bit patterns (no decompression). *)

val scan_naive : t -> field:int -> value:int64 -> int list
(** Reference implementation that decodes every tuple; used by tests and
    by the E10 experiment as the "decompress then compare" baseline. *)

val plain_size_bytes : arity:int -> count:int -> int
(** Size the same tuples would occupy as flat 64-bit fields — the
    comparison point for the E10 compression-ratio experiment. *)
