(** §5.2.1's transaction-rollback argument, as a small analytic model.

    "As latencies increase, so too does transaction concurrency and
    runtime, increasing the probability of transaction rollbacks. It is
    well known that these effects lead to non-linear increases in
    rollback rates [Gray et al. 96] ... Purity decreases request
    latencies by an order of magnitude, potentially reducing rollback
    rates by more than 10x."

    The classic model: a transaction holds its locks for a duration
    dominated by its storage waits; with [tps] transactions per second
    each touching [locks_per_txn] of [db_locks] lockable objects, the
    per-transaction conflict (rollback) probability is approximately
    1 - exp(-(tps × hold_s) × locks² / db_locks); rolled-back
    transactions retry, inflating the offered load, so the model solves
    the fixed point — that feedback is what makes rollback rates
    super-linear in storage latency. *)

type params = {
  tps : float;  (** offered transactions per second *)
  locks_per_txn : float;
  db_locks : float;  (** lockable objects in the database *)
  think_s : float;  (** CPU time per transaction (latency-independent) *)
  ios_per_txn : float;  (** synchronous storage waits per transaction *)
}

val default_params : params
(** 15k TPS, 10 locks over 1M objects, 0.1 ms CPU, 8 I/Os per txn — a
    busy I/O-bound OLTP system near its disk-era conflict ceiling. *)

val rollback_probability : params -> storage_latency_s:float -> float
[@@purity.lint.allow
  "unused_export: test_workload's rollback zero-latency-floor test probes 0 ms, \
   below the series"]
(** Per-transaction rollback probability at the given storage latency. *)

val series : params -> (float * float) list
(** (storage latency seconds, rollback probability) over 0.1–10 ms. *)

val improvement : params -> disk_latency_s:float -> flash_latency_s:float -> float
(** Rollback-rate ratio disk/flash — the paper's "more than 10x". *)
