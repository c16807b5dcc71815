(** Polymorphic binary min-heap.

    Backs the discrete-event simulator's pending-event queue and the
    garbage collector's "emptiest segment first" victim selection. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit
val peek : 'a t -> 'a option
val pop : 'a t -> 'a option
(** Remove and return the minimum. The vacated slot is overwritten and
    the backing array shrunk at quarter occupancy, so retained memory is
    bounded by the live contents, not the high-water mark. *)
