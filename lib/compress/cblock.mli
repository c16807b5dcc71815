(** Cblock framing: Purity's on-media unit of compressed application data.

    A cblock (paper §4.6) holds one application write's worth of data —
    512 B up to 32 KiB, sized to match the write that created it — in
    compressed form, self-framed so the segment reader can decode it from
    a byte stream. The frame records the logical length, the encoding
    (raw when compression would expand the data), a CRC-32C of the stored
    payload, and the payload itself. *)

type encoding = Raw | Lz

type t = {
  logical_len : int;  (** uncompressed application bytes *)
  encoding : encoding;
  payload : string;  (** stored bytes (possibly compressed) *)
}

val max_logical : int
(** 32 KiB: cblocks never exceed the largest inferred write size. *)

val of_data : ?scratch:Lz.scratch -> string -> t
(** Build a cblock from application data, compressing unless that would
    expand it (through [scratch] when given, so the compressor state is
    reused). @raise Invalid_argument beyond [max_logical]. *)

val data : t -> string
(** Recover the application data of a cblock built by {!of_data}
    ({!decode} returns it alongside the cblock).
    @raise Invalid_argument if an Lz payload does not decompress to
    [logical_len] bytes. *)

val stored_size : t -> int
(** Bytes the cblock occupies on media, including the frame header. *)

val encode : Buffer.t -> t -> unit
(** Append the frame to a buffer. *)

val add_frame_into : scratch:Lz.scratch -> Buffer.t -> string -> int
(** [add_frame_into ~scratch buf data] is {!add_frame} with the scratch
    required: the steady-state write path always holds one, and the
    optional wrapper would box [Some scratch] on every stored run. *)

val add_frame : ?scratch:Lz.scratch -> Buffer.t -> string -> int
(** [add_frame ?scratch buf data] frames [data] directly into [buf] —
    byte-identical to [encode buf (of_data data)] — and returns the frame
    size. With [scratch], the compressed payload moves from the LZ
    scratch buffer into the frame without an intermediate string; the
    write path's zero-allocation fill loop.
    @raise Invalid_argument beyond [max_logical]. *)

val decode : bytes -> pos:int -> (t * string * int) option
(** [decode buf ~pos] parses and verifies one frame. It returns the
    cblock, its application data ([logical_len] bytes, decompressed here,
    so a caller that keeps the data never decodes the frame again) and
    the offset just past the frame. Total: [None] for a truncated frame,
    a bad encoding byte, a non-shortest varint, a CRC mismatch,
    [logical_len > max_logical], a Raw payload whose length is not
    [logical_len], an Lz payload not shorter than [logical_len], or one
    that does not decompress to exactly [logical_len] bytes. A frame it
    accepts re-encodes ({!encode}) to exactly the bytes it read. *)

val reduction : t -> float
(** logical/stored ratio for this cblock (>= 1 unless data was
    incompressible, where the raw fallback caps expansion at the frame
    header). *)
