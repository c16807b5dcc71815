(** A shelf: the drive set plus NVRAM behind both controllers.

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

val register_telemetry : t -> Purity_telemetry.Registry.t -> unit
(** Register every drive's metrics ([ssd/drive<i>/...]) plus shelf-wide
    derived metrics ([ssd/online_drives], [ssd/pe_max]) and the NVRAM
    fill ([nvram/used_bytes], [nvram/capacity]). *)
