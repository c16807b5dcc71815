(* Database consolidation (paper §5.2): "it is much more common for
   customers to deploy dozens or even hundreds of independent database
   instances on top of each Purity array."

   This example provisions eight OLTP database volumes on one array,
   runs a mixed OLTP workload across all of them, and reports the
   aggregate IOPS, per-op latency percentiles, and the data reduction
   the relational page data achieves.

     dune exec examples/database_consolidation.exe *)

module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module Wl = Purity_workload.Workload

let await clock f = Option.get (Clock.await clock f)

let () =
  let clock = Clock.create () in
  let array = Fa.create ~clock () in

  (* eight "database instances", 8 MiB each at this simulation scale *)
  let volumes = List.init 8 (fun i -> (Printf.sprintf "pgdb%02d" i, 16384)) in
  Wl.provision array ~volumes;
  Printf.printf "provisioned %d database volumes on one array\n" (List.length volumes);

  (* OLTP mix: 70%% reads, Zipf-skewed pages, RDBMS page data *)
  let wl = Wl.oltp ~seed:42L ~volumes () in
  let report = await clock (Wl.run array wl ~ops:4000 ~concurrency:16) in
  Fmt.pr "@[<v>workload report:@,%a@]@." Wl.pp_report report;

  let s = Fa.stats array in
  let reduction =
    if s.Fa.stored_bytes_written = 0 then 1.0
    else float_of_int s.Fa.logical_bytes_written /. float_of_int s.Fa.stored_bytes_written
  in
  Printf.printf "\ndata reduction on relational pages: %.1fx (paper band: 3-8x)\n" reduction;
  Printf.printf "volumes served: %d; total provisioned: %d MiB; physical used: %d MiB\n"
    (List.length (Fa.list_volumes array))
    (s.Fa.provisioned_virtual_bytes / 1048576)
    (s.Fa.physical_bytes_used / 1048576);
  Printf.printf
    "\nThe paper's point: one array, many databases — no per-volume tuning\n\
     knobs, block sizes inferred from the I/O, reduction shared across all.\n"
