(** Segio: the segment write buffer (paper §4.2, Figure 3).

    "A horizontal stripe of write units across the segment, called a
    segio, accumulates compressed user data from the front, and
    accumulates log records from the back. When the two sections meet,
    the segio is completed and marked for flush to SSD." A segio may also
    hold only data or only log records.

    On {!finalize} the buffer is sealed: log records are packed
    immediately after the data region, per-row Reed–Solomon parity is
    computed, and header + rows are appended to the member AUs. Writes
    are staggered so that at most two member drives program
    simultaneously — the §4.4 discipline that keeps reconstruct-reads
    possible while a segment flushes. *)

type t

val create :
  layout:Layout.t ->
  port:Purity_ssd.Shelf.port ->
  rs:Purity_erasure.Reed_solomon.t ->
  members:Segment.member array ->
  id:int ->
  t
(** The writer programs its members through [port]. [rs] must match the
    layout's k and m. [members] length must be [k + m].
    @raise Invalid_argument otherwise. *)

val id : t -> int
val members : t -> Segment.member array

val data_len : t -> int
val log_len : t -> int

val remaining : t -> int
(** Free bytes between the data front and the log back. *)

val is_empty : t -> bool

val append_data : t -> string -> int
(** Append payload bytes; returns the payload offset they will occupy.
    The caller checks {!remaining} first (sealing and opening a new
    segment when it is short).
    @raise Invalid_argument if the bytes do not fit, or once sealed. *)

val append_buffer : t -> Buffer.t -> int
(** {!append_data} for a frame accumulated in a [Buffer.t]: the bytes
    blit straight from the buffer into the segio, so a caller reusing one
    frame buffer appends without building a string. *)

val append_log : t -> seq:int64 -> string -> unit [@@purity.lint.callers "State"]
(** Append one log record from the back. The record is length-framed so
    recovery can reparse the log region; the frame adds at most 16 bytes
    (two varints), so [String.length record + 16 <= remaining t] always
    fits. @raise Invalid_argument if it does not fit, or once sealed. *)

val append_log_buffer : t -> seq:int64 -> Buffer.t -> unit [@@purity.lint.callers "State"]
(** {!append_log} for a record framed in a [Buffer.t]: the put path
    reuses one buffer per controller, so logging a block-index fact
    builds no string. *)

val finalize :
  t ->
  ?remap:(replacing:Segment.member -> exclude:int list -> Segment.member option) ->
  ?tracer:Purity_telemetry.Span.tracer ->
  ?parent:Purity_telemetry.Span.t ->
  (Segment.t -> unit) ->
  unit
(** Seal and flush. The callback fires at simulated completion with the
    final segment description (as also persisted in every member header).
    Rows are RS-encoded one after another, before the first program.
    With [tracer], the flush is traced: an [rs_encode] span for parity
    computation and one [program] span per member shard (tagged with its
    final drive), all parented under [parent] so the whole multi-hop
    write is reconstructable from the trace.
    A member whose drive is offline (or fails mid-flush) is re-homed via
    [remap] — given the member being replaced ([replacing]) and the
    drives already in the stripe, return a fresh AU on a healthy drive,
    and free [replacing]'s AU only if one was found — and its shard
    restarts from the header; with no replacement available the member
    is skipped and parity absorbs it (up to [m]). Header copies written
    before a remap may list a stale member; the completion callback's
    description (also in the remapped member's own header) is final, so
    the segment-table fact written from it is authoritative.
    Once [port] is fenced (controller crash) the flush issues no further
    chunk write and no remap: it halts where it is, the completion
    callback never fires, and the torn segment is left for recovery to
    ignore (its header may or may not be on some members; partially
    written AUs are rediscovered via the frontier scan and reclaimed by
    GC). *)

val peek_payload : t -> off:int -> len:int -> string option
(** Read back payload bytes from the segio's RAM buffer (valid before and
    after sealing, until the writer is dropped): how the array serves
    reads of data that has not reached the drives yet. [None] outside the
    written data region. *)

val decode_log_region : bytes -> (int64 * string) list [@@purity.lint.callers "Recovery"]
(** Parse a log region read back from a segment into (seq, record)
    pairs, oldest first. Tolerates a truncated tail (torn write). *)
