(** Throughput counters for the word-at-a-time data-plane kernels.

    Every fast kernel (CRC32c, GF(256) multiply-accumulate, RS encode, LZ
    compress/decompress, dedup fingerprint) bumps its cell here, so a
    controller can export [kernels/<name>_bytes] / [kernels/<name>_ns]
    telemetry and the bench harness can report MB/s without wrapping the
    kernels in timing shims. [bytes]/[calls] are always counted;
    [ns] accumulates only while a clock is installed via {!set_clock}
    (the registry sits below [purity.telemetry] in the dependency order,
    so the bridge lives in [State.register_derived_telemetry]).

    The named cells belong to the main domain. Kernels invoked on a
    [purity.par] pool worker accumulate into a domain-local shadow
    instead; the pool moves those shadows back via {!drain_shadow} (on
    the worker, after its chunk) and {!absorb} (on the submitter, after
    the join), so totals stay race-free and identical to a serial run. *)

type kernel = {
  name : string;
  index : int;  (** slot in the per-domain shadow array *)
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
    kernels also accumulate [ns]. The source must be safe to call from
    any domain. *)

val tick : unit -> int
(** Read the clock (0 when none is installed); pair with {!tock}. *)

val tock : kernel -> bytes:int -> t0:int -> unit
(** Record one kernel invocation: [bytes] processed, started at [tick]
    result [t0]. On the main domain this updates the kernel cell
    directly; on any other domain it updates the domain-local shadow. *)

val shadow_cells : int
(** Size of a shadow export array ([3 * number of kernels]). *)

val drain_shadow : into:int array -> unit
(** Add the calling domain's shadow into [into] (length
    {!shadow_cells}) and zero the shadow. Called by pool workers after
    each batch chunk. *)

val absorb : int array -> unit
(** Fold a drained shadow array into the main kernel cells and zero it.
    Main domain only. *)

val reset : unit -> unit
(** Zero every cell (bench isolation). *)
