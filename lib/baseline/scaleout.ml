type deployment = {
  service : string;
  scale : string;
  year : int;
  scope : string;
  apps : string;
  nodes : int;
  demand : [ `Ops_per_s of float | `Capacity_pb of float ];
}

(* The paper's Table 2 inputs (nodes use the stated values; Spanner's
   10^3-10^4 range is represented by its geometric shape via 3000). *)
let paper_deployments =
  [
    {
      service = "PNUTS";
      scale = "1.6M op/s (design target)";
      year = 2010;
      scope = "Data center";
      apps = "1000";
      nodes = 1000;
      demand = `Ops_per_s 1.6e6;
    };
    {
      service = "Spanner";
      scale = "1-10 PB (design target)";
      year = 2010;
      scope = "Data center";
      apps = "300";
      nodes = 3000;
      demand = `Capacity_pb 5.5;
    };
    {
      service = "S3";
      scale = "1.5M op/s (peak)";
      year = 2013;
      scope = "Global";
      apps = "-";
      nodes = 900;
      demand = `Ops_per_s 1.5e6;
    };
    {
      service = "DynamoDB";
      scale = "2.6M op/s (mean)";
      year = 2014;
      scope = "Region";
      apps = "-";
      nodes = 1600;
      demand = `Ops_per_s 2.6e6;
    };
  ]

type fa450 = { ops_per_s : float; effective_tb : float }

let fa450 = { ops_per_s = 200_000.0; effective_tb = 250.0 }

type row = { deployment : deployment; arrays_needed : float; nodes_per_array : float }

let consolidate d =
  let arrays =
    match d.demand with
    | `Ops_per_s ops -> ops /. fa450.ops_per_s
    | `Capacity_pb pb -> pb *. 1000.0 /. fa450.effective_tb
  in
  let arrays = Float.max arrays 1.0 in
  { deployment = d; arrays_needed = arrays; nodes_per_array = float_of_int d.nodes /. arrays }

let table () = List.map consolidate paper_deployments

let pp_table ppf rows =
  Fmt.pf ppf "@[<v>%-10s %-28s %-6s %-12s %8s %10s %12s@,"
    "Service" "Scale" "Year" "Scope" "Nodes" "~FA-450s" "Nodes/array";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-10s %-28s %-6d %-12s %8d %10.1f %12.0f@," r.deployment.service
        r.deployment.scale r.deployment.year r.deployment.scope r.deployment.nodes
        r.arrays_needed r.nodes_per_array)
    rows;
  Fmt.pf ppf "@]"
