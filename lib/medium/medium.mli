(** Mediums: Purity's coarse-grained storage virtualisation (paper §4.5,
    Figure 6).

    All user data lives in numbered {e mediums}; volumes are just names
    for a current RW medium. Each medium is described by extents mapping
    block ranges either to an underlying (medium, offset) — snapshots and
    clones — or to nothing (a base range). A block read resolves through
    the chain until a written block is found; writes land only in RW
    mediums, as a patch over whatever is underneath.

    Because mediums are only ever created, frozen (RO) and dropped, and
    their ids are a dense monotone sequence, dropping one is a single
    elide-table insert in the medium pyramid — they are "the motivating
    example for elision" (§4.10).

    Block addressing is in 512-byte logical blocks, matching the paper's
    minimum unit. The table itself is pure metadata: the owner maps each
    (medium, block) to actual cblocks elsewhere. *)

type status = RO | RW

type target =
  | Base  (** no underlying data: unwritten blocks read as zeros *)
  | Underlying of { medium : int; offset : int }
      (** block [b] of this extent maps to block [b - start + offset] of
          the underlying medium *)

type extent = {
  start_block : int;
  end_block : int;  (** inclusive, like the paper's "0:3999" *)
  target : target;
  status : status;
  skip_local : bool;
      (** flag: this medium certainly has no cblocks of its own in the
          range, so lookups skip straight to the target — one of the
          "flags that reduce the number of references" of §4.5 *)
}

type t

val create : ?first_id:int -> unit -> t
(** Medium ids count up from [first_id] (default 1) and are never
    reused. *)

val copy : t -> t
(** An independent table with the same mediums and id counter. *)

val create_base : t -> blocks:int -> int
(** A fresh RW medium of [blocks] blocks over nothing (a new volume). *)

val take_snapshot : t -> int -> int * int
(** [take_snapshot t m] freezes RW medium [m] (it becomes RO) and returns
    [(snap, successor)]: [snap] is the immutable snapshot handle and
    [successor] the new RW medium that now receives the volume's writes —
    both reference [m]. @raise Invalid_argument if [m] is not RW. *)

val clone : t -> int -> ?range:int * int -> unit -> int
(** [clone t m ~range:(lo, hi)] makes a new RW medium whose blocks 0..hi-lo
    map onto blocks lo..hi of [m] ([m] must be RO — snapshot first, as the
    real array does). Default range: all of [m]. *)

val extend : t -> int -> blocks:int -> unit
(** Grow a RW medium with a fresh base extent (e.g. resizing a volume; how
    Figure 6's medium 22 gets its 1000:1999 range). *)

val drop : t -> int -> unit
(** Forget a medium (volume/snapshot deletion). Its table rows vanish; the
    caller elides its data facts. @raise Invalid_argument if other
    mediums still reference it. *)

val exists : t -> int -> bool
val live_mediums : t -> int list

val count : t -> int
(** [List.length (live_mediums t)], without building the list. *)

val referenced_by : t -> int -> int list
(** Mediums with an extent targeting the given one. *)

val extent_of : t -> int -> block:int -> extent option
(** The extent of a medium covering [block], if any — lets batched
    resolution split a block range along extent boundaries and walk the
    chain one level at a time. *)

val resolve : t -> int -> block:int -> (int * int) list
(** Lookup chain for (medium, block): the (medium, block) pairs that may
    hold the data, nearest patch first, ending at the base layer. Skips
    [skip_local] levels. Empty when the block is out of range. *)

val resolve_depth : t -> int -> block:int -> int
(** Chain length — the "never more than three cblocks" metric (E4/GC). *)

val write_target : t -> int -> block:int -> (int, [ `Read_only | `Out_of_range | `No_such_medium ]) result
(** Where a write to (medium, block) must record its data: the medium
    itself when RW. *)

val shortcut : ?only:int list -> t -> owned:(int -> (int * int) list) -> unit
(** GC flattening (§4.5–4.6): for every extent, follow the underlying
    chain past immutable intermediate mediums that own no blocks in the
    mapped range and repoint (pieces of) the extent at the deepest such
    target — producing exactly Figure 6's "22 can refer directly to 12"
    shortcut, including the extent splitting its three-row form implies.
    [owned m] gives the ascending maximal runs [(lo, hi)] (inclusive) of
    blocks medium [m] owns; it is asked only of RO mediums, at most once
    each per call. Each extent's range is walked once, cut at owned runs
    and extent boundaries: owned blocks, a [Base] extent or a medium that
    is not RO stop the chase, a gap hops to the underlying medium. The
    resulting rows are maximal. Idempotent given the same runs.
    [only] restricts rewriting to the listed mediums — the garbage
    collector flattens medium trees incrementally, one medium at a time,
    which is why tables like Figure 6 show partially flattened states. *)

val rows : t -> (int * extent) list
(** All (medium, extent) rows, ordered by medium id then start block —
    Figure 6's table. *)

val pp_table : t Fmt.t
(** Render in the layout of Figure 6. *)

(** {1 Persistence} *)

val encode_extents : extent list -> string
(** Serialise one medium's extents (the value of its fact in the medium
    pyramid). *)

val decode_extents : string -> extent list option
(** The inverse of {!encode_extents}, total on arbitrary bytes: [None]
    unless the input is exactly some extent list's encoding, so whatever
    decodes re-encodes to it. *)

val restore : rows:(int * extent list) list -> next_id:int -> t
(** Rebuild a table at recovery from persisted rows. [next_id] must
    exceed every id ever issued (ids are never reused). *)

val extents : t -> int -> extent list
(** The raw extent rows of one medium (empty when absent). *)

val peek_next_id : t -> int
(** The next id that will be issued (for boot-region persistence). *)
