(* The signatures of facts and of the codecs that type them; see fact.mli. *)

(** The on-media form of a key or value. *)
module type CODEC = sig
  type t

  val equal : t -> t -> bool

  val size : t -> int
  (** Encoded length in bytes. *)

  val write : Buffer.t -> t -> unit
  (** Append exactly [size t] bytes. *)

  val read : bytes -> pos:int -> len:int -> t option
  (** Parse the [len] bytes at [pos]: [None] unless they are exactly
      what {!write} produces for some value, so a read value re-encodes
      to the bytes it came from. Never raises on in-bounds arguments. *)

  val pp : t Fmt.t
end

module type KEY = sig
  include CODEC

  val compare : t -> t -> int
  (** Must order keys exactly as their encodings compare bytewise:
      serialised patches are sorted, and the order is part of the format. *)

  val hash : t -> int
  (** For the memtable's hash table. *)

  val offset : t -> t -> int
  (** [offset lo k] is [o >= 0] when [k] is the key [o] steps after [lo]
      in key order (no key sorts strictly between a key and its next
      step), and a negative number otherwise. The batched lookup names
      a run of consecutive keys by its first key and a length with it,
      so it never builds the run's keys. *)

  val hash_at : t -> int -> int
  (** [hash_at lo o] is [hash] of the key [o] steps after [lo]; so
      [hash_at k 0 = hash k]. *)

  val least : t
  (** The first key in key order. *)
end

module type VALUE = sig
  include CODEC

  val retractable : bool
  (** Whether the table's facts may be tombstones. When [false],
      {!S.decode} rejects one. *)
end

module type S = sig
  type key
  type value
  type t = { key : key; value : value option; seq : int64 }

  module Key : KEY with type t = key
  module Value : VALUE with type t = value

  val make : key:key -> value:value -> seq:int64 -> t
  val tombstone : key:key -> seq:int64 -> t
  val is_tombstone : t -> bool

  val absent : t
  (** A tombstone of {!KEY.least}, older than every fact: the batched
      lookup's mark for a key the table holds no fact of, which callers
      test with [==]. *)

  val compare_key_seq : t -> t -> int
  (** Order by key ascending, then sequence number descending — the patch
      layout order, which puts the newest fact for a key first. *)

  val encode : Buffer.t -> t -> unit
  (** Append a self-framing binary encoding (used in NVRAM payloads, segment
      log records and patches): [seq . klen . key . tag . (vlen . value)],
      with LEB128 varints and [tag] ['\000'] for a tombstone, ['\001'] for
      a value. *)

  val decode : bytes -> pos:int -> t * int
  (** Parse one encoded fact; returns it and the offset just past it.
      @raise Invalid_argument on truncated input, on a key or value its
      codec rejects, and on a tombstone of a non-retractable table. *)
end
