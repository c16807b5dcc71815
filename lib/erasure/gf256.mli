(** GF(2^8) arithmetic for Reed–Solomon coding.

    The field is generated by the primitive polynomial
    x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the conventional choice for storage
    erasure codes. Multiplication and division use log/antilog tables, as
    in the SIMD Galois-field implementations the paper cites (Plank et
    al., FAST '13); here the table lookups stand in for the SIMD kernels. *)

val add : int -> int -> int
(** Addition = XOR. Arguments and results are field elements in 0–255. *)

val mul : int -> int -> int

val inv : int -> int
(** Multiplicative inverse. @raise Division_by_zero on 0. *)

val exp : int -> int
(** [exp i] is the generator raised to the [i]-th power (i taken mod 255). *)

val mul_slice : int -> src:bytes -> dst:bytes -> unit
(** [mul_slice c ~src ~dst] XORs [c · src] into [dst] elementwise; the
    inner loop of encoding. Processes 8 bytes per step through a cached
    per-coefficient product table ([c = 1] degenerates to a word-wide
    XOR, [c = 0] to a no-op).
    @raise Invalid_argument if the buffers differ in length. *)

val mul_slice_ref : int -> src:bytes -> dst:bytes -> unit
(** The original byte-at-a-time log/exp kernel, retained as the reference
    {!mul_slice} is property-tested against. Same semantics. *)
