(** Deterministic fixed-size domain pool.

    Work is split into contiguous per-lane chunks by pure arithmetic (no
    work stealing) and results join in submission order, so a parallel
    run produces byte-identical output to a serial run of the same code.
    The array's data plane is serial; the µ-par bench shards the segment
    fill over this pool.

    Lane 0 is the calling domain; a pool with [domains = 1] executes
    everything inline with zero synchronisation. *)

type t

val create : domains:int -> unit -> t
(** Spawn [domains - 1] worker domains ([1 <= domains <= 64]). *)

val lanes : t -> int
(** Number of parallel lanes, including the calling domain. *)

val shutdown : t -> unit
(** Join all worker domains. Idempotent; the pool is unusable after. *)

val chunk : lanes:int -> tasks:int -> int -> int * int
(** [chunk ~lanes ~tasks lane] is the [(lo, len)] contiguous slice of
    [0..tasks-1] owned by [lane] — pure arithmetic, exposed for tests
    and for callers sizing per-lane scratch. *)

val run : t -> tasks:int -> (lane:int -> lo:int -> len:int -> unit) -> unit
(** Execute one batch: each lane [l] runs [f ~lane:l ~lo ~len] on its
    static chunk; returns after every lane finished. If any lane raised,
    the lowest lane's exception is re-raised — deterministically. *)

val map : t -> tasks:int -> (lane:int -> int -> 'a) -> 'a array
(** [map t ~tasks f] computes [|f ~lane i|] for [i = 0..tasks-1] with
    each index on its statically-owned lane; result order is index
    order regardless of scheduling. *)
