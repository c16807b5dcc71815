(** Patches: the sorted immutable runs a pyramid is built from.

    Paper §4.8: "Patches are analogous to levels or components in other
    LSM-Tree implementations, and describe differences between the
    previous version of the pyramid and the new one. We track key ranges
    and sequence numbers for each patch."

    A patch is an immutable array of facts sorted by (key asc, seq desc).
    Duplicate (key, seq) facts collapse to one — re-inserting a fact is a
    no-op, the idempotence recovery relies on. *)

module type S = Patch_intf.S

module Make (F : Fact.S) : S with module Fact = F

include S with module Fact = Fact
