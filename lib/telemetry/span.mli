(** Tracing spans over simulated time.

    A span is one timed hop of a request — NVRAM commit, memtable apply,
    segio flush, per-drive program — stamped against the shared
    {!Purity_sim.Clock}. Spans carry a parent link and free-form tags, so
    a multi-hop write can be reconstructed end to end from the trace.

    Finished spans land in the tracer's bounded ring buffer (oldest
    evicted first) and, when one is installed, are handed to a pluggable
    sink — the hook the phone-home exporter uses to stream spans out as
    JSONL. Start/finish are cheap enough for hot paths: a record
    allocation and two clock reads. *)

type tracer
type t

val create_tracer : ?capacity:int -> clock:Purity_sim.Clock.t -> unit -> tracer
(** [capacity] (default 1024, min 1) bounds the finished-span ring. *)

val start : tracer -> ?parent:t -> ?tags:(string * string) list -> string -> t
(** Open a span named [name] starting now (simulated time). *)

val finish : ?tags:(string * string) list -> t -> unit
(** Close the span at the current simulated time, append it to the ring
    buffer and feed the sink. Finishing twice is a no-op. *)

val tag : t -> string -> string -> unit
(** Attach a tag to a live or finished span. *)

(** {1 Accessors} *)

val id : t -> int
val name : t -> string
val parent_id : t -> int option
val start_us : t -> float
val end_us : t -> float option
(** [None] until finished. *)

val duration_us : t -> float option
val tags : t -> (string * string) list

(** {1 The ring buffer} *)

val drain : tracer -> t list
(** The finished spans still in the ring, oldest first, emptying it —
    what an exporter's sample calls. *)

val dropped : tracer -> Registry.counter
(** Finished spans evicted by ring overflow since creation: a cell the
    tracer owns, for a registry to adopt. *)

val set_sink : tracer -> (t -> unit) option -> unit
(** Called synchronously on every {!finish}; [None] uninstalls. *)

val to_json : t -> Json.t
(** [{"span":id,"name":...,"parent":...,"start_us":...,"end_us":...,
    "tags":{...}}] *)
