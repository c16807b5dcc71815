(** ActiveCluster-style synchronous active-active replication: two
    arrays on one clock serve the same stretched volumes, mirror every
    write over the {!Link} and resolve partitions through the
    {!Mediator}. The pod's role changes only inside the implementation,
    each one bumping the fencing generation; see activecluster.ml's
    header for the protocol. *)

type side = Mediator.side = A | B

val side_name : side -> string

(** [Sync]: both sides serve and every write is mirrored. [Solo s]: [s]
    holds the pod and serves alone while the other side is fenced.
    [Frozen]: the mediator could not be reached, so nobody serves.
    [Down]: both arrays crashed. *)
type status = Sync | Solo of side | Frozen | Down

val status_name : status -> string

(** Planted-bug hooks for the checker's self-tests: each one breaks the
    contract in a way the two-array reference model must catch. *)
type chaos = {
  mutable skip_resync : bool;
      (** failback "forgets" to copy solo-era writes: divergence *)
  mutable ack_without_peer : bool;
      (** ack the host on local persist alone: a lost ack on failover *)
}

val chaos : chaos
[@@purity.lint.allow
  "unused_export: test_activecluster's planted skipped-resync and early-ack \
   tests switch the bugs on"]

type io_error =
  [ `Unavailable  (** fenced/frozen/offline beyond what failover can hide *)
  | `No_such_volume
  | `Out_of_range
  | `Unaligned
  | `No_space
  | `Backpressure ]

(** The pod's counter cells, registered as [activecluster/<name>] on both
    arrays' telemetry. *)
type counters = {
  mirror_writes : Purity_telemetry.Registry.counter;
  mirror_acked : Purity_telemetry.Registry.counter;
  mirror_timeouts : Purity_telemetry.Registry.counter;
  mirror_stale_drops : Purity_telemetry.Registry.counter;
      (** mirrors that arrived under an older generation *)
  mediation_requests : Purity_telemetry.Registry.counter;
  mediation_grants : Purity_telemetry.Registry.counter;
  mediation_denials : Purity_telemetry.Registry.counter;
  mediation_unreachable : Purity_telemetry.Registry.counter;
  solo_writes : Purity_telemetry.Registry.counter;
  redirects : Purity_telemetry.Registry.counter;
      (** front-door I/O moved to the other side *)
  fences : Purity_telemetry.Registry.counter;
  resyncs : Purity_telemetry.Registry.counter;
  resync_blocks : Purity_telemetry.Registry.counter;
}

type t

val create : a:Purity_core.Flash_array.t -> b:Purity_core.Flash_array.t -> unit -> t
(** A pod over two arrays, in [Sync] with no stretched volumes. Raises
    [Invalid_argument] unless both arrays share one clock. *)

val array : t -> side -> Purity_core.Flash_array.t
val link : t -> Link.t
val mediator : t -> Mediator.t
val status : t -> status
val counters : t -> counters

val stretched : t -> (string * int) list
(** Stretched volumes and their sizes in blocks, sorted by name. *)

val create_stretched :
  t -> string -> blocks:int -> (unit, [ Purity_core.Flash_array.vol_error | `Out_of_range ]) result
(** Create the volume on both arrays; [`Busy] unless the pod is in
    [Sync]. A create that B refuses is taken back off A. *)

val write :
  t ->
  ?prefer:side ->
  volume:string ->
  block:int ->
  string ->
  ((unit, io_error) result -> unit) ->
  unit
(** Write through [prefer]'s front door (default A), or the side that
    serves when it cannot. [Ok] once the write is durable on every side
    that serves; a partition mid-write is resolved by mediation and the
    write re-driven on the winner. *)

val read :
  t ->
  ?prefer:side ->
  volume:string ->
  block:int ->
  nblocks:int ->
  ((string * side, io_error) result -> unit) ->
  unit
(** Read through [prefer]'s front door (default A). The [Ok] carries the
    side that actually served the bytes. *)

(** {1 Faults and failback} *)

val cut_link : t -> unit
val heal_link : t -> unit
val lose_mediator : t -> unit
val restore_mediator : t -> unit

val crash_side : t -> side -> unit
(** Crash one array; crashing the second takes the pod [Down]. *)

val recover_side : ?mode:Purity_core.Recovery.mode -> t -> side -> (unit -> unit) -> unit
(** Fail the side's array over to a fresh controller (a no-op if it is
    online) and re-attach the pod's counters to its telemetry. *)

val settle : t -> (status * side option -> unit) -> unit
(** Drive the pod toward the best status the current faults allow:
    failback when both sides (and, unless both crashed, the link) are
    up, mediated solo service when one side lives. Reports the resulting
    status and, when content was reconciled, whose bytes won. *)
