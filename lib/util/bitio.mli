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

  val contents : t -> bytes
  (** Snapshot of the written bytes (final partial byte zero-padded). *)
end

module Reader : sig
  type t

  val create : bytes -> t

  val get : t -> at:int -> width:int -> int64
  (** Random-access read of [width] (0–57) bits starting at bit offset
      [at]. *)
end
