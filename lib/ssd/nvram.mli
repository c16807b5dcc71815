(** Shelf NVRAM: the low-latency commit device.

    The paper's "NVRAM" is an SLC flash part with bounded latency and a
    much higher P/E rating than the MLC data drives (§4.1). Purity commits
    application writes and index insertions here first; segios are flushed
    asynchronously and the NVRAM is trimmed once the corresponding sequence
    numbers are durable in segments (§4.2, Figure 4).

    The model is an append-only record log with fixed commit latency plus
    bandwidth, living in the shelf (so it survives controller failover). *)

type t

type record = { seq : int64; payload : string }

val create :
  ?latency_us:float ->
  ?mb_s:float ->
  ?capacity:int ->
  clock:Purity_sim.Clock.t ->
  unit ->
  t
(** Defaults: 15 us commit latency, 700 MB/s, 16 MiB capacity. *)

val commit :
  t ->
  seq:int64 ->
  len:int ->
  (unit -> string) ->
  ((unit, [ `Full ]) result -> unit) ->
  unit
(** [commit t ~seq ~len build k] durably appends the record
    [{seq; payload = build ()}]; [k] fires at simulated completion.
    Admission is decided on [len] before the payload exists: [build] is
    called only once the record is admitted, so a refused commit costs
    no encoding. [`Full] (reported 1 us later, with [build] never
    called) means the segment writer has fallen behind and the caller
    must stall (back-pressure, as in the real system).
    @raise Invalid_argument if [build] returns other than [len] bytes. *)

val admits : t -> int list -> bool
(** Whether {!commit} would admit records of these payload lengths,
    committed back to back from now on. *)

val trim_upto : t -> int64 -> unit
(** Drop records with [seq] <= the given sequence number: they are now
    persisted in segments. *)

val records : t -> record list
(** Surviving records in append order — what recovery replays. *)

val lose : t -> unit
(** Fault injection: drop every pending record (NVRAM content loss). The
    device keeps accepting commits afterwards, so only writes acked before
    the loss and not yet durable in flushed segments are exposed. *)

val losses : t -> int
(** How many times {!lose} has fired on this device. *)

val used_bytes : t -> int
val capacity : t -> int
