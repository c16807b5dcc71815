(** The boot region (paper §4.3, Figure 5).

    "The boot region is a tiny percentage of the total storage, and
    contains the locations of the relations and allocator state for the
    main region." It is the only piece of storage with a fixed location,
    so recovery can read it in O(1) before anything else is known.

    The device itself is on the shelf ({!Purity_ssd.Shelf.read_boot},
    {!Purity_ssd.Shelf.write_boot}), so its contents survive controller
    failover. This module owns the blob's format: {!encode} and
    {!decode} are its only codec. *)

type dir = (string * string * (Purity_segment.Segment.t * int * int) list) list
(** A checkpoint directory: per table, its pyramid name, its encoded
    elide ranges (empty for tombstone tables) and its patch chunks as
    (segment meta, payload offset, length). *)

type contents = {
  frontier : Purity_segment.Segment.member list;
      (** the allocator's persisted frontier ∪ speculative sets *)
  next_segment : int;
  next_medium : int;
  seq : int64;  (** the sequence counter when written *)
  checkpoint_seq : int64;  (** the last checkpoint's seq watermark *)
  dir : dir;  (** the last checkpoint's directory *)
}

val encode : contents -> string

val decode : string -> contents option
(** Total: [None] on a wrong version, trailing bytes, or any count or
    length the blob cannot hold. A decoded value re-encodes to the same
    bytes. *)
