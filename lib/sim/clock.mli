(** Discrete-event simulation clock.

    The paper's performance results come from a physical appliance; this
    reproduction substitutes a simulated timeline (see DESIGN.md). Every
    device and scheduler in the repository charges latency against one
    [Clock.t]; experiments read percentiles of simulated microseconds.

    Time is a float in microseconds. Events scheduled for the same instant
    fire in insertion order, so models behave deterministically. *)

type t

val create : unit -> t
val now : t -> float
(** Current simulated time in microseconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Run a callback [delay] microseconds from now. Negative delays clamp to
    zero (fire on the next [run] step). *)

val schedule_at : t -> at:float -> (unit -> unit) -> unit
(** Run a callback at an absolute time; times in the past clamp to now. *)

val run : t -> unit
(** Dispatch events until the queue is empty. *)

val run_until : t -> float -> unit
(** Dispatch events with time <= the given instant, then set the clock to
    that instant. *)

val step : t -> bool
(** Dispatch the single earliest event. Returns false if none is queued. *)

val pending : t -> int
[@@purity.lint.allow
  "unused_export: test_sim's run_until counts the events left queued"]
(** Number of queued events. *)

val advance : t -> float -> unit
(** Move the clock forward by a duration with no event dispatch; used by
    synchronous models that compute a latency analytically. The clock never
    moves backwards. *)
