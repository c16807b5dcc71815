(** Figure 7: the five-minute rule, recomputed for data-reducing flash.

    The cost of keeping a piece of data on a tier is the capacity it
    occupies plus the device time its accesses consume (Gray & Graefe's
    framing). For each tier the model computes cost per object as a
    function of access interval; dividing by the RAM cost gives the
    paper's "relative cost" curves, whose crossings yield the rules of
    thumb (data reduction moves flash's break-even with RAM from the
    five-minute range to roughly half an hour). *)

type tier = {
  name : string;
  dollars_per_gb : float;  (** effective $ per GB of usable capacity *)
  accesses_per_sec : float;  (** device op rate a $-unit of hardware buys *)
  dollars_per_device : float;  (** price of the unit delivering that rate *)
}

val purity : reduction:float -> tier
(** A Purity array at a given data-reduction factor (paper: 1x, 4x RDBMS,
    10x MongoDB) using Table 1's $5/GB and 200k IOPS figures. *)

val hard_disk : tier
(** Performance disk from Table 1: $18/GB usable, 65k IOPS array. *)

val ecc_dimm : tier
(** $1000 per 64 GiB LR-DIMM; accesses are free (no device time). *)

val relative_cost :
  tier -> baseline:tier -> object_bytes:int -> access_interval_s:float -> float
(** Figure 7's y-axis: cost on [tier] / cost on [baseline] (RAM). *)

val crossover_interval_s :
  tier -> baseline:tier -> object_bytes:int -> float option
(** Access interval at which the tier becomes cheaper than the baseline
    (binary search over 1 s – 1 year); [None] if never. *)

val figure7_series :
  unit -> (string * (float * float) list) list
(** The five curves of Figure 7: for each tier, (interval seconds,
    relative cost vs ECC DIMM) over the paper's 1 s – 1 yr x-axis, with
    55 KiB objects (the paper's mean I/O size). *)
