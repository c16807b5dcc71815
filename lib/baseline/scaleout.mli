(** Table 2's analytic consolidation model.

    The paper estimates how many FA-450 arrays replace published
    disk-based key-value deployments by dividing each service's design
    throughput or capacity by the array's. This module encodes the
    paper's published inputs and reproduces the table's ratios. *)

type deployment = {
  service : string;
  scale : string;  (** the paper's "Scale" column *)
  year : int;
  scope : string;
  apps : string;  (** the paper's "Apps" column, verbatim *)
  nodes : int;  (** deployment size in nodes (midpoint when a range) *)
  demand : [ `Ops_per_s of float | `Capacity_pb of float ];
}

type row = {
  deployment : deployment;
  arrays_needed : float;  (** the paper's "≈FA-450's" column *)
  nodes_per_array : float;  (** the consolidation ratio *)
}

val table : unit -> row list
(** PNUTS, Spanner, S3 and DynamoDB with the paper's numbers, against
    one FA-450 (200k x 32 KiB IOPS, 250 TB effective). *)

val pp_table : row list Fmt.t
