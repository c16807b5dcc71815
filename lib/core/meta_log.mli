(** The metadata record formats recovery replays (paper §4.2–4.3,
    Figures 4–5). Every fact and elide a table takes is logged into the
    current segio; those of the tables {!nvram_backed} names are also
    stashed in NVRAM; and every host write is committed to NVRAM as an
    intent before it is applied.

    {v
    segio log record      fact    tag . fact
                          elide   'e' . tag . seq . lo . hi
    NVRAM stash           fact    'F' . tag . fact
                          elide   'E' . tag . seq . lo . hi
    NVRAM write intent            'W' . medium . block . len . data
    v}

    [tag] is one byte naming the table (['B'], ['M'], ['S'] or ['V']); [fact] is
    the table's {!Purity_pyramid.Fact.S.encode}; [seq], [lo], [hi], [medium],
    [block] and [len] are LEB128 varints. A block-index fact is the
    16-byte {!Keys.Block} key and the varint {!Blockref} in the same
    framing as a string fact, so its bytes do not depend on the typed form
    the block index holds in memory. This module is the only one that
    encodes or decodes these records. Its decoders are total: a string
    that is not exactly some record's encoding decodes to [None]. That
    includes a block fact whose key is not 16 bytes, whose value is not a
    shortest-encoding reference, or that is a tombstone (the block index
    elides; it never retracts a key). *)

type table = Blocks | Mediums | Segments | Volumes

val tables : table list

val name : table -> string
(** The table's pyramid name, which the checkpoint directory records. *)

val table_of_name : string -> table option

val nvram_backed : table -> bool
(** Whether the table's facts and elides are also stashed in NVRAM.
    Namespace tables are, so a namespace op survives a crash while its log
    records are still in RAM; so is the segment table, whose fact written
    at flush completion is the segment's commit record. Block facts are
    not: the write intent that produced them is already in NVRAM. *)

type elide = { seq : int64; lo : int; hi : int }
type meta =
  | Fact of table * Purity_pyramid.Fact.t
      (** A fact of a string-keyed table. Never [Blocks]: the decoders
          give those records as [Block]. *)
  | Block of Block_index.Fact.t  (** A fact of the block index. *)
  | Elide of table * elide

type intent = { medium : int; block : int; data : string }
type nvram = Stash of meta | Intent of intent

(** {1 Encoders}

    The per-kind encoders are what the metadata write path calls: they
    take the record's parts, so logging a fact builds nothing but its
    bytes. *)

val log_fact : table -> Purity_pyramid.Fact.t -> string

val frame_block : Buffer.t -> Block_index.Fact.t -> unit
(** Append a block record's log bytes to a buffer: the put path frames
    each block record in a reused buffer instead of building a string. *)

val log_elide : table -> seq:int64 -> lo:int -> hi:int -> string
val stash_fact : table -> Purity_pyramid.Fact.t -> string
val stash_elide : table -> seq:int64 -> lo:int -> hi:int -> string

val intent_size : medium:int -> block:int -> int -> int
(** The encoded length of an intent carrying [len] bytes of data, known
    before the intent is built (NVRAM admission is decided on it). *)

val encode_intent : medium:int -> block:int -> string -> string

val encode_log : meta -> string
val encode_nvram : nvram -> string

(** {1 Decoders} *)

val decode_log : string -> meta option
val decode_nvram : string -> nvram option

val decode_stash : string -> meta option
(** {!decode_nvram} restricted to stashes: [None] for a write intent too,
    found without copying its data. *)
