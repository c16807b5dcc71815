(** Deterministic pseudo-random number generation (SplitMix64).

    All randomness in the simulator flows through explicitly-seeded [Rng.t]
    values so that every experiment is reproducible bit-for-bit. SplitMix64
    is small, fast, and passes BigCrush; it is also splittable, which lets
    independent subsystems derive non-overlapping streams from one seed. *)

type t
(** Mutable generator state. *)

val create : seed:int64 -> t
(** [create ~seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. *)

val next_int64 : t -> int64
(** Next 64-bit value, uniform over all 2^64 values. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val zipf : t -> n:int -> theta:float -> int
(** [zipf t ~n ~theta] samples a rank in [\[0, n)] under a Zipfian
    distribution with skew [theta] (0 = uniform), using the rejection
    method of Gray et al. as popularised by YCSB. *)

val bytes : t -> int -> bytes
(** [bytes t len] is a fresh buffer of [len] uniformly random bytes. *)

val fill_bytes : t -> bytes -> pos:int -> len:int -> unit
(** Fill a slice of an existing buffer with random bytes. *)
