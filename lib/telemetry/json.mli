(** Minimal JSON tree and serialiser.

    The phone-home exporter emits one JSON object per line (JSONL), the
    format the paper's fleet telemetry pipeline ingests. This module is
    deliberately tiny — encode only, no parser — so the telemetry layer
    stays dependency-free. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. Non-finite floats serialise as [null]
    (JSON has no NaN/Infinity); strings are escaped per RFC 8259. *)
