(** Block references: the values of the block-index pyramid.

    Purity keeps "a single mapping structure for all user data" (§4.5)
    from (medium, block) to the physical home of the data. A reference
    names the cblock — (segment, payload offset, stored length) — plus
    which 512 B slice of the cblock's logical data is this block.
    Deduplicated blocks simply carry a reference into someone else's
    cblock (§4.7: "a mapping from the new logical address to the
    (segment, offset) of the existing data").

    The block index holds these records as they are; on media a reference
    is its four fields as LEB128 varints, and this module's codec is the
    only one that reads or writes that form. *)

type t = {
  segment : int;
  off : int;  (** payload offset of the cblock frame within the segment *)
  stored_len : int;  (** frame length on media: one exact read *)
  index : int;  (** 512 B block position within the cblock's logical data *)
}

include Purity_pyramid.Fact.VALUE with type t := t
(** The on-media codec. A reference is never retracted: the block index
    elides whole mediums instead. *)

val encode : t -> string

val decode : string -> t option
(** [None] unless the string is exactly some reference's {!encode}. *)

val same_cblock : t -> t -> bool
(** Do two references point into the same physical cblock? *)
