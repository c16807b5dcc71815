(** Snapshot protection policies.

    The paper's arrays take snapshots and off-site copies on behalf of
    applications as a matter of course ("enterprise storage users
    frequently make clones, snapshots, and off-site copies of volumes to
    provide data resiliency", §1; automation is a selling point, §5.4).
    This scheduler snapshots protected volumes on a per-volume cadence
    and retains the newest [keep] snapshots — each expiry is a medium
    drop, i.e. one elide insert.

    Snapshots are named [<volume>.auto-<n>]; [n] never repeats.

    An active policy reschedules itself forever, so drive the clock with
    {!Purity_sim.Clock.run_until} — [Clock.run] would never return. *)

type policy = {
  every_us : float;  (** snapshot cadence in simulated microseconds *)
  keep : int;  (** retained snapshots (> 0) *)
}

type t

val create : Flash_array.t -> t

val protect : t -> volume:string -> policy -> (unit, [ `No_such_volume | `Already ]) result
(** Start snapshotting the volume on its cadence (first snapshot one
    period from now). *)

val stop : t -> unit
(** Stop all scheduling (the ticker also stops when nothing is
    protected); existing snapshots are kept. *)

val snapshots : t -> volume:string -> string list
(** Retained automatic snapshots, oldest first. *)

val taken : t -> int
(** Total automatic snapshots ever taken. *)
