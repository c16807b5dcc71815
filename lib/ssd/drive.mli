(** Simulated consumer MLC SSD.

    This is the substrate substituting for the paper's physical drives
    (DESIGN.md). It models exactly the behaviours Purity's design reacts
    to (paper §2.1, §3.3, §4.4, §5.1):

    - dies that serve reads and programs in parallel, with reads stalling
      behind in-progress program/erase operations on the same die (the
      source of SSD read-latency spikes);
    - a serial host interface of bounded bandwidth;
    - erase-before-write at allocation-unit granularity, with per-AU
      program/erase (P/E) wear accounting;
    - retention loss: pages on worn flash leak charge and become unreadable
      with age, unless rewritten (motivating Purity's scrubber);
    - whole-drive failure (a pulled drive).

    The drive enforces Purity's contract: writes within an allocation unit
    are strictly append-only, and an AU must be trimmed (erased) before it
    is rewritten. Violations raise, so the storage engine's append-only
    discipline is machine-checked rather than assumed.

    All latencies are charged to the shared {!Purity_sim.Clock.t}; results
    are delivered by callback at the operation's simulated completion. *)

type config = {
  au_size : int;  (** allocation unit in bytes (paper: 8 MiB) *)
  num_aus : int;  (** drive capacity / [au_size] *)
  page_size : int;  (** flash page in bytes *)
  dies : int;  (** independent flash dies *)
  read_us : float;  (** flash array read latency per page *)
  program_us : float;  (** program latency per page *)
  erase_us : float;  (** erase latency per erase block *)
  channel_mb_s : float;  (** host interface bandwidth *)
  pe_rating : int;  (** rated P/E cycles before wear-out *)
  retention_mean_us : float;
      (** mean data-retention time of a page written at exactly the rated
          P/E count; retention shrinks in proportion to wear beyond the
          rating and is effectively infinite below ~80% of it *)
  vertical_parity : bool;
      (** §4.2: intra-drive parity pages let the FTL repair a single lost
          page per 16-page group internally (at extra read latency)
          without involving the other drives; default off *)
}

val default_config : config
(** 8 MiB AUs, 4 KiB pages, 8 dies, 90/250/2000 us read/program/erase,
    480 MB/s channel, 3000 P/E (consumer MLC), 1-simulated-year retention
    at rating. Sized at 256 AUs (2 GiB) so tests run in-memory. *)

type error = [ `Offline | `Corrupt of int (** first corrupted page index *) ]

type t

val create :
  ?config:config -> clock:Purity_sim.Clock.t -> rng:Purity_util.Rng.t -> id:int -> unit -> t
val id : t -> int
val config : t -> config

(** {1 Availability} *)

val fail : t -> unit
(** Pull the drive: every subsequent operation completes with [`Offline]. *)

val restore : t -> unit
(** Re-insert the drive with its contents intact (an interposer path flap,
    not a replacement). *)

val replace : t -> unit
(** Swap in a fresh drive: contents erased, wear reset. *)

val is_online : t -> bool

(** {1 Data path} *)

val write_chunk : t -> au:int -> off:int -> data:bytes -> ((unit, error) result -> unit) -> unit
(** Append [data] inside allocation unit [au] starting at byte [off].
    [off] must equal the AU's current fill (append-only contract) and the
    write must not overflow the AU. Completion fires when every die
    involved finishes programming. *)

val read : t -> au:int -> off:int -> len:int -> ((bytes, error) result -> unit) -> unit
(** Read a byte range of an AU. Unwritten ranges read as zeros. Reads that
    land on a die that is currently programming or erasing wait for it —
    the latency-spike behaviour Purity's scheduler works around. *)

val trim_au : t -> au:int -> unit
(** Erase the AU (instantaneous accounting, erase latency charged to the
    dies' busy windows): contents dropped, fill reset, P/E count bumped. *)

val au_fill : t -> au:int -> int
(** Bytes currently written in the AU. *)

val au_pe_count : t -> au:int -> int
[@@purity.lint.allow
  "unused_export: test_ssd's drive trim-resets-and-wears test reads one AU's wear"]

val busy_writing : t -> bool
(** True while any die is executing a program or erase — the scheduler
    treats such drives "as though they have failed" (paper §4.4). *)

(** {1 Wear & fault injection, statistics} *)

val wear_to : t -> pe:int -> unit
(** Set every AU's P/E count (building the "worn-out flash" array of
    paper §5.1 without simulating years of writes). *)

val inject_page_corruption : t -> au:int -> page:int -> unit
(** Mark one page as latently corrupt, exactly as if its charge had
    leaked: reads of the page surface [`Corrupt] (unless vertical parity
    repairs it), and an erase ({!trim_au} or {!replace}) clears the mark.
    The deterministic hook behind [purity.check]'s corruption faults. *)

val injected_corrupt_pages : t -> int
(** Injected marks still present (not yet erased away). *)

val pe_max : t -> int
(** Highest per-AU P/E count — the wear figure fleet telemetry tracks. *)

val register_telemetry : t -> Purity_telemetry.Registry.t -> unit
(** Attach this drive's counters under [ssd/drive<id>/]: [reads],
    [writes], [bytes_read], [bytes_written], [trims], [corrupt_reads] and
    [program_stalls] (reads that queued behind an in-progress program or
    erase on one of their dies — the §4.4 latency-spike events). The
    drive owns these cells, so they keep counting across a controller
    failover. Its wear gauges and [online] flag are derived. *)
