(** Key encodings for the metadata pyramids.

    Keys sort bytewise inside patches, so multi-part keys are fixed-width
    big-endian — (medium, block) ranges scan in block order, and the
    elide rule can extract the medium id from any block key. *)

(** The block index's key, [(medium, block)]: two ints in memory, the
    16-byte {!block_key} on media. [compare] is the unsigned order of
    (medium, block), which is the bytewise order of the encodings. *)
module Block : Purity_pyramid.Fact.KEY with type t = int * int

val block_key : medium:int -> block:int -> string
(** 16-byte on-media key of the block index. *)

val parse_block_key : string -> (int * int) option
(** [(medium, block)] of a {!block_key}; [None] for any other string. *)

val medium_key : int -> string
(** 8-byte key for the medium table. *)

val medium_key_id : string -> int

val segment_key : int -> string
val segment_key_id : string -> int
