(** Throughput counters for the word-at-a-time data-plane kernels.

    Every fast kernel (CRC32c, GF(256) multiply-accumulate, RS encode, LZ
    compress/decompress, dedup fingerprint) bumps its cell here, so a
    controller can export [kernels/<name>_bytes] / [kernels/<name>_ns]
    telemetry and the bench harness can report MB/s without wrapping the
    kernels in timing shims. [bytes]/[calls] are always counted;
    [ns] accumulates only while a clock is installed via {!set_clock}
    (the registry sits below [purity.telemetry] in the dependency order,
    so the bridge lives in [State.register_derived_telemetry]).

    The cells are plain counters; the array runs its kernels serially
    on its one domain. *)

type kernel = {
  name : string;
  mutable bytes : int;
  mutable calls : int;
  mutable ns : int;
}

val crc : kernel
val gf : kernel
val rs : kernel
val lz_compress : kernel
val lz_decompress : kernel
val fingerprint : kernel

val all : kernel list
(** Every kernel above, for telemetry registration loops. *)

val set_clock : (unit -> int) option -> unit
(** Install (or remove) a wall-clock nanosecond source. While installed,
    kernels also accumulate [ns]. *)

val tick : unit -> int
(** Read the clock (0 when none is installed); pair with {!tock}. *)

val tock : kernel -> bytes:int -> t0:int -> unit
(** Record one kernel invocation: [bytes] processed, started at [tick]
    result [t0]. *)

val reset : unit -> unit
(** Zero every cell (bench isolation). *)
