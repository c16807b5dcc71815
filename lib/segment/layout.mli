(** Geometry of segments (paper §4.2, Figure 3).

    A segment is one allocation unit from each of [k + m] drives. The
    first [header_size] bytes of every member AU hold a copy of the
    segment header; the rest is split into rows of [write_unit]-sized
    chunks. Payload bytes fill the [k] data shards row by row
    (horizontally striped); each row also gets [m] Reed–Solomon parity
    write units, so losing any two drives loses nothing.

    Payload addressing: payload offset [p] lives in write unit
    [w = p / write_unit], which is row [w / k], column [w mod k], at byte
    [p mod write_unit] within the write unit. *)

type t = {
  k : int;  (** data shards per segment (paper: 7) *)
  m : int;  (** parity shards (paper: 2) *)
  write_unit : int;  (** bytes written to one SSD atomically (paper: 1 MiB) *)
  au_size : int;  (** allocation unit (paper: 8 MiB) *)
  header_size : int;  (** header copy at the front of each member AU *)
}

val make : ?k:int -> ?m:int -> ?write_unit:int -> ?header_size:int -> au_size:int -> unit -> t
(** Defaults: k=7, m=2, write_unit=64 KiB, header=4 KiB. [write_unit] must
    divide [au_size - header_size]. @raise Invalid_argument otherwise. *)

val members : t -> int
(** [k + m]. *)

val payload_capacity : t -> int
(** Application-payload bytes one segment can hold: [k * rows * write_unit]. *)

type location = {
  column : int;  (** shard index: 0..k-1 data, k..k+m-1 parity *)
  au_offset : int;  (** byte offset within the member AU *)
  length : int;
}

val locate : t -> off:int -> len:int -> location list
(** Map a payload byte range onto per-shard chunks, splitting at
    write-unit boundaries. @raise Invalid_argument when out of bounds. *)

val row_chunk : t -> row:int -> within:int -> len:int -> column:int -> location
(** Location of the byte range [\[within, within+len)] of the write unit
    at ([row], [column]); used to read sibling shards for reconstruction. *)
