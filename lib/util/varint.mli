(** LEB128 variable-length integer encoding.

    Used for compact on-media framing (cblock headers, log-record lengths)
    where most values are small. *)

val write : Buffer.t -> int -> unit
(** Append the unsigned LEB128 encoding of a non-negative int. *)

val put : bytes -> pos:int -> int -> int
(** [put buf ~pos v] writes the same bytes as {!write} at [pos] and
    returns the position just past them ({!size}[ v] bytes on).
    @raise Invalid_argument if they do not fit. *)

val read : bytes -> pos:int -> int * int
(** [read buf ~pos] returns [(value, next_pos)]. Only the encoding
    {!write} produces is accepted, so a read value re-encodes to exactly
    the bytes it was read from.
    @raise Invalid_argument on truncated input, on a longer-than-shortest
    encoding, or on a value outside [0 .. max_int]. *)

val write_i64 : Buffer.t -> int64 -> unit
(** Unsigned LEB128 for a full 64-bit value. *)

val read_i64 : bytes -> pos:int -> int64 * int
(** As {!read}, for the full 64 bits {!write_i64} encodes.
    @raise Invalid_argument on truncated or longer-than-shortest input,
    or a tenth byte carrying more than bit 63. *)

val size : int -> int
(** Encoded length in bytes of a non-negative int. *)
