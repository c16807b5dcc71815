(** Phone-home exporter: JSONL snapshots of a registry.

    The paper's headline numbers (latency percentiles, 5.4× reduction,
    99.999% availability) come from logs phoned home by deployed arrays
    and aggregated fleet-wide (§1, §5). This exporter mirrors that
    methodology in the simulator: each {!sample} reads the metrics
    registry (and drains the span ring, if a tracer is attached) and
    emits one self-describing JSON object per line to a pluggable sink.

    Every line carries ["kind"], ["array"], ["seq"] and ["ts_us"] fields;
    metric snapshots are [kind = "phone_home"], spans [kind = "span"].
    {!row} exposes the same line format for other producers (the bench
    harness emits its result rows through it), so all JSONL artefacts in
    the repo share one schema. *)

type sink = string -> unit
(** Receives one complete JSONL line (no trailing newline). *)

type t

val create :
  ?array_id:string ->
  ?tracer:Span.tracer ->
  clock:Purity_sim.Clock.t ->
  registry:Registry.t ->
  sink:sink ->
  unit ->
  t
(** [array_id] (default ["array0"]) labels every line, standing in for
    the fleet's array serial number; [ts_us] is the clock's time. *)

val sample : t -> unit
(** Emit one snapshot line now (plus one line per drained span). *)

val emitted : t -> int
(** Total lines emitted (snapshots + spans). *)

(** {1 Line construction} *)

val json_of_value : Registry.value_snapshot -> Json.t

val row : kind:string -> ?array_id:string -> ?ts_us:float -> (string * Json.t) list -> string
(** One schema-conformant JSONL line with the given extra fields. *)

val buffer_sink : Buffer.t -> sink
(** Appends each line + ["\n"] to the buffer. *)
