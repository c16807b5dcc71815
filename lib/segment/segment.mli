(** Segment metadata and self-describing headers (paper §4.2–4.3).

    Every member AU of a segment starts with a header page carrying the
    full segment description — id, member (drive, AU) list, payload and
    log-region extents, and the sequence-number range of the log records
    inside. "Segments are self-describing": recovery can reconstruct the
    system's state by scanning headers alone, and any single surviving
    member is enough to describe the whole segment. *)

type member = { drive : int; au : int }

val distinct_members : member list -> member list
(** The list without repeated (drive, AU) pairs, first occurrences kept
    in order. *)

type t = {
  id : int;
  members : member array;  (** index = shard column (0..k-1 data, then parity) *)
  payload_len : int;  (** bytes of payload actually written *)
  log_off : int;  (** start of the log-record region within the payload *)
  log_len : int;
  seq_lo : int64;  (** lowest sequence number in the log region (0 if none) *)
  seq_hi : int64;
}

val encode_header : Layout.t -> t -> shard:int -> bytes
(** Serialise the header page for one member (CRC-framed, padded to
    [layout.header_size]). *)

val decode_header : bytes -> t option
(** Parse a header page; [None] when the page is not a valid segment
    header (unwritten AU, torn write, CRC mismatch) — recovery treats
    those AUs as free. *)

val encode_compact : t -> string
(** Compact (unpadded) serialisation — the value stored in the segment
    table pyramid and the boot region's patch directory. *)

val decode_compact : string -> t option
(** Total: [None] unless [s] is exactly one {!encode_compact} image
    (shard 0, shortest varints, no trailing bytes), so a decoded value
    re-encodes to [s]. *)

val pp : t Fmt.t
