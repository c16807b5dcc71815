(* Asynchronous off-site replication and disaster recovery.

   Two arrays on one simulated timeline, linked by a 100 MB/s WAN: the
   production site replicates a database volume on a cadence; after a few
   cycles the production site is lost, and the replica site promotes its
   last consistent image.

     dune exec examples/disaster_recovery.exe *)

module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module Repl = Purity_replication.Replication
module Dg = Purity_workload.Datagen
module Rng = Purity_util.Rng

let await clock f = Option.get (Clock.await clock f)

let () =
  let clock = Clock.create () in
  let production = Fa.create ~clock () in
  let dr_site = Fa.create ~config:{ Fa.default_config with Fa.seed = 7L } ~clock () in
  let repl = Repl.create ~source:production ~target:dr_site () in
  let dg = Dg.create ~seed:99L in
  let rng = Rng.create ~seed:41L in

  (match Fa.create_volume production "orders" ~blocks:16384 with
  | Ok () -> ()
  | Error _ -> failwith "create failed");
  (match Repl.protect repl "orders" with Ok () -> () | Error _ -> failwith "protect");

  (* initial load + first sync *)
  let write block nblocks =
    match
      await clock (Fa.write production ~volume:"orders" ~block (Dg.rdbms_page dg (nblocks * 512)))
    with
    | Ok () -> ()
    | Error _ -> failwith "write failed"
  in
  for i = 0 to 15 do
    write (i * 512) 256
  done;
  let r = await clock (fun k -> Repl.replicate_once repl "orders" k) in
  Printf.printf "cycle %d: initial sync shipped %d blocks (%.1f ms on the WAN)\n"
    r.Repl.cycle r.Repl.changed_blocks (r.Repl.duration_us /. 1000.0);

  (* steady state: small updates, small deltas *)
  for cycle = 2 to 4 do
    for _ = 1 to 4 do
      write (Rng.int rng 40 * 256) 32
    done;
    let r = await clock (fun k -> Repl.replicate_once repl "orders" k) in
    Printf.printf "cycle %d: delta of %d blocks shipped in %.1f ms (RPO image %s)\n" cycle
      r.Repl.changed_blocks (r.Repl.duration_us /. 1000.0) r.Repl.rpo_snapshot
  done;

  (* disaster: production site gone *)
  Fa.crash production;
  print_endline "\nproduction site lost!";
  (match await clock (Fa.read dr_site ~volume:"orders" ~block:0 ~nblocks:64) with
  | Ok _ -> print_endline "DR site serves the replicated volume directly"
  | Error _ -> failwith "replica unreadable");
  (match await clock (Fa.write dr_site ~volume:"orders" ~block:0 (Dg.rdbms_page dg (32 * 512))) with
  | Ok () -> print_endline "DR site promoted to read-write: applications resume"
  | Error _ -> failwith "promotion failed");
  (* the replicator counts into the source array's registry *)
  let count key =
    Purity_telemetry.Registry.read_int (Fa.telemetry production) ("replication/" ^ key)
  in
  Printf.printf "\nlifetime replication: %d cycles, %d blocks, %d bytes over the wire\n"
    (count "cycles") (count "changed_blocks") (count "shipped_bytes")
