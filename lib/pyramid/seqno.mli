(** The array-wide sequence number source.

    Paper §3.2: sequence numbers are the single "controlled source of
    non-monotonicity" — the only thing in the system whose value changes
    over time. Every persisted fact carries one; writes become visible in
    sequence order; recovery re-derives the counter as the max over all
    rediscovered facts. Sequence numbers are never reused (§4.10), which
    is what bounds elide tables. *)

type t

val create : unit -> t
(** Counter starting at 1. *)

val next : t -> int64
(** Allocate one sequence number. *)

val current : t -> int64
(** Highest number allocated so far (0 if none). *)

val restore_at_least : t -> int64 -> unit
(** Recovery: advance the counter so it is strictly above every
    rediscovered sequence number. Never moves backwards. *)
