(** Bit-granular readers and writers.

    The metadata page format of paper §4.9 packs every tuple into the same
    number of bits ("we treat the page as a bit stream"), so encoding and
    scanning need sub-byte addressing. Bits are written LSB-first within
    each byte, which makes a [w]-bit read at bit offset [o] a simple shift
    and mask of a 64-bit load. *)

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t
  val put : t -> int64 -> width:int -> unit
  (** Append the low [width] (0–57) bits of the value. Width 0 is a no-op,
      mirroring the paper's "W can be 0" degenerate encoding. *)

  val bit_length : t -> int
  val align_byte : t -> unit
  (** Pad with zero bits to the next byte boundary. *)

  val contents : t -> bytes
  (** Snapshot of the written bytes (final partial byte zero-padded). *)
end

module Reader : sig
  type t

  val create : bytes -> t
  val of_string : string -> t

  val get : t -> at:int -> width:int -> int64
  (** Random-access read of [width] (0–57) bits starting at bit offset
      [at]. Does not move the cursor. *)

  val read : t -> width:int -> int64
  (** Sequential read at the cursor; advances it. *)

  val pos : t -> int
  val bit_length : t -> int
end
