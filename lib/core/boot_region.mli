(** The boot region (paper §4.3, Figure 5).

    "The boot region is a tiny percentage of the total storage, and
    contains the locations of the relations and allocator state for the
    main region." It is the only piece of storage with a fixed location,
    so recovery can read it in O(1) before anything else is known.

    Modelled as a small mirrored blob with page-write latencies charged
    to the shared clock; its contents survive controller failover (they
    live in the shelf, not the controller). This module also owns the
    blob's format: {!encode} and {!decode} are its only codec. *)

(** {1 Contents} *)

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

(** {1 Device} *)

type t

val create : ?write_us:float -> clock:Purity_sim.Clock.t -> unit -> t
(** Defaults: 600 us per write (a few pages mirrored to two drives);
    250 us per read. *)

val write : t -> string -> (unit -> unit) -> unit
(** Atomically replace the blob; callback at durability. *)

val read : t -> (string option -> unit) -> unit
(** [None] before the first write (a factory-fresh array). *)

val writes : t -> Purity_telemetry.Registry.counter
(** Total boot-region writes — the "<1% of writes" bookkeeping: a cell
    the region owns (it outlives controllers), adopted as
    [array/boot_region_writes]. *)
