(** A shelf: the drive set, NVRAM and the boot region behind both
    controllers.

    Paper §4.1: shelves contain 11–24 MLC drives with SAS interposers
    connecting each drive to both controllers, plus the NVRAM devices.
    Because the shelf (not the controller) owns all persistent state, the
    controllers are stateless and failover is a pure software event. *)

type t

val create :
  ?drive_config:Drive.config ->
  ?nvram_capacity:int ->
  clock:Purity_sim.Clock.t ->
  rng:Purity_util.Rng.t ->
  drives:int ->
  unit ->
  t
(** [drives] must be at least the erasure-code width used above (the paper
    uses write groups of 11 for 7+2 coding). *)

val clock : t -> Purity_sim.Clock.t
val drive_count : t -> int
val drive : t -> int -> Drive.t
val drives : t -> Drive.t array
val nvram : t -> Nvram.t

val physical_bytes : t -> int
(** Raw capacity across all drives. *)

val pull_drive : t -> int -> unit
(** Simulate a human pulling drive [i] (the paper encourages evaluators to
    do exactly this). *)

val reinsert_drive : t -> int -> unit
val replace_drive : t -> int -> unit

(** {1 Boot region}

    The boot region's device (paper §4.3; its format is
    [Purity_core.Boot_region]'s): one blob, a write taking 600 us and a
    read 250 us, one after another. *)

val read_boot : t -> (string option -> unit) -> unit
(** [None] before the first write (a factory-fresh array). *)

val boot_writes : t -> Purity_telemetry.Registry.counter
(** Total boot-region writes: a cell the shelf owns, adopted as
    [array/boot_region_writes]. *)

(** {1 Reads}

    Not through a {!port}: a read takes no index and is never fenced. *)

val read_chunk :
  t -> drive:int -> au:int -> off:int -> len:int -> ((bytes, Drive.error) result -> unit) -> unit
(** {!Drive.read} on drive [drive]. *)

val nvram_records : t -> Nvram.record list
(** {!Nvram.records}: what recovery replays. *)

(** {1 Ports} *)

type port
(** One controller's attachment. *)

val attach : t -> port
(** A fresh, unfenced port; attaching fences no other port. *)

val fence : port -> unit
(** Cut the port off (controller crash). Submissions it accepted earlier
    complete as scheduled. *)

val fenced : port -> bool
val port_shelf : port -> t

(** The submissions: each is the device operation it names, dropped when
    the port is fenced; each one a live port accepts takes the next
    durable-write index ([shelf/durable_writes]). A chunk write an
    offline drive refuses and an NVRAM commit refused for space take no
    index. *)

val write_chunk :
  port ->
  drive:int ->
  au:int ->
  off:int ->
  data:bytes ->
  ((unit, Drive.error) result -> unit) ->
  unit

val trim_au : port -> drive:int -> au:int -> unit

val nvram_commit :
  port ->
  seq:int64 ->
  len:int ->
  (unit -> string) ->
  ((unit, [ `Full ]) result -> unit) ->
  unit

val nvram_refuses : port -> int -> bool
(** Whether {!nvram_commit} on this port would refuse a record of this
    payload length for space now: the port is live and the NVRAM does
    not fit it. A caller may then report the refusal itself, as
    {!nvram_commit} does, 1 us later, without an index. *)

val nvram_trim_upto : port -> int64 -> unit

val write_boot : port -> string -> (unit -> unit) -> unit
(** Atomically replace the boot blob; the callback fires at durability. *)

val register_telemetry : t -> Purity_telemetry.Registry.t -> unit
(** Register every drive's metrics ([ssd/drive<i>/...]), shelf-wide
    derived metrics ([ssd/online_drives], [ssd/pe_max]), the NVRAM fill
    ([nvram/used_bytes], [nvram/capacity]) and the durable-write index
    ([shelf/durable_writes]): like the drives' cells, the index is the
    shelf's, so it keeps counting across failover. *)
