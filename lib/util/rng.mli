(** Deterministic pseudo-random number generation (SplitMix64).

    All randomness in the simulator flows through explicitly-seeded [Rng.t]
    values so that every experiment is reproducible bit-for-bit. SplitMix64
    is small, fast, and passes BigCrush; it is also splittable, which lets
    independent subsystems derive non-overlapping streams from one seed.

    Draws allocate nothing: the state is stored unboxed, so [int], [bool],
    [hit], [skip] and [fill_bytes] run without touching the heap, and so
    does [zipf] once its constants for an [(n, theta)] pair exist. Only a
    boxed result ([next_int64]'s [int64], [float]'s [float]) or a new
    value ([split], [bytes], the first [zipf] at a new pair) is
    allocated. *)

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

type odds [@@immediate]
(** A Bernoulli probability, prepared once for {!hit}. *)

val odds : float -> odds
(** [odds p] prepares a draw that succeeds with probability [p]; [p <= 0]
    (or nan) never succeeds and [p >= 1] always does. *)

val hit : t -> odds -> bool
(** [hit t (odds p)] is [float t 1.0 < p], bit for bit, and consumes the
    same one draw; it compares the draw's 53 high bits with an integer
    threshold, so unlike a float-taking draw it boxes nothing. *)

val skip : t -> int -> unit
(** [skip t n] advances [t] past [n] draws without computing them: the
    stream continues as if [n] calls to [next_int64] had been made. *)

val zipf : t -> n:int -> theta:float -> int
(** [zipf t ~n ~theta] samples a rank in [\[0, n)] under a Zipfian
    distribution with skew [theta] (0 = uniform), using the rejection
    method of Gray et al. as popularised by YCSB. *)

val bytes : t -> int -> bytes
(** [bytes t len] is a fresh buffer of [len] uniformly random bytes. *)

val fill_bytes : t -> bytes -> pos:int -> len:int -> unit
(** Fill a slice of an existing buffer with random bytes: each 8 bytes
    are one draw, little-endian, and a shorter tail takes the low bytes of
    one more draw. *)
