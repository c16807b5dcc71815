(** Page-mapped FTL model — the baseline Purity's log structure avoids.

    Paper §2.1/§3.3: "flash translation layers behave erratically when
    exposed to random writes", and Purity therefore presents the drives
    with large sequential writes only. To quantify that motivation
    (experiment E11) this module models what happens *inside* a generic
    drive when a host issues page-granularity writes directly:

    - a logical→physical page map;
    - out-of-place writes into the currently open erase block;
    - greedy garbage collection (victim = fewest valid pages) when free
      blocks run low, relocating the victim's valid pages;
    - write amplification = total pages programmed / host pages written.

    The model is analytic over simulated time: each host write's latency
    includes any GC work it had to wait for, reproducing the erratic
    random-write latency the paper describes. *)

type config = {
  pages_per_block : int;
  num_blocks : int;
  overprovision : float;  (** fraction of physical space hidden from host *)
  program_us : float;
  read_us : float;
  erase_us : float;
  gc_low_watermark : int;  (** free blocks that trigger GC *)
}

type t

val create : ?config:config -> unit -> t

val host_pages : t -> int
(** Logical pages exposed to the host. *)

val write : t -> lpn:int -> float
(** Write one logical page; returns the latency in microseconds, including
    any garbage-collection relocations and erases this write stalled on. *)

val write_amplification : t -> float
(** [total_programs / host_writes]; 1.0 until GC starts. *)

val register_telemetry : ?prefix:string -> t -> Purity_telemetry.Registry.t -> unit
(** Attach the FTL's counters ([host_writes], [total_programs], [erases],
    [gc_relocations]) and derive its write-amplification gauge under
    [prefix/] (default [ftl/]), so several FTLs can share one registry.
    The FTL owns the counter cells. *)
