(* purity-cli: drive a simulated Purity array from the command line.

   Subcommands build an array, run a scenario against the simulation
   clock, and print the array's statistics — a quick way to poke at the
   system without writing OCaml:

     dune exec bin/purity_cli.exe -- smoke
     dune exec bin/purity_cli.exe -- workload --kind oltp --ops 2000
     dune exec bin/purity_cli.exe -- drill
     dune exec bin/purity_cli.exe -- reduction --kind vdi
     dune exec bin/purity_cli.exe -- replicate --cycles 4
     dune exec bin/purity_cli.exe -- protect --ticks 8 *)

open Cmdliner
module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module Wl = Purity_workload.Workload
module Dg = Purity_workload.Datagen
module Histogram = Purity_util.Histogram
module Registry = Purity_telemetry.Registry
module Export = Purity_telemetry.Export

let await clock f = Option.get (Clock.await clock f)

let make_array ~drives ~seed =
  let clock = Clock.create () in
  let config = { Fa.default_config with Fa.drives; seed = Int64.of_int seed } in
  (clock, Fa.create ~config ~clock ())

let print_stats a =
  let s = Fa.stats a in
  Printf.printf "\narray statistics:\n";
  Printf.printf "  app writes / reads   : %d / %d\n" s.Fa.app_writes s.Fa.app_reads;
  Printf.printf "  logical written      : %d bytes\n" s.Fa.logical_bytes_written;
  Printf.printf "  stored after reduce  : %d bytes (%.1fx)\n" s.Fa.stored_bytes_written
    (if s.Fa.stored_bytes_written = 0 then 1.0
     else float_of_int s.Fa.logical_bytes_written /. float_of_int s.Fa.stored_bytes_written);
  Printf.printf "  dedup blocks         : %d\n" s.Fa.dedup_blocks;
  Printf.printf "  physical used        : %d of %d bytes\n" s.Fa.physical_bytes_used
    s.Fa.physical_capacity;
  Printf.printf "  live segments        : %d\n" s.Fa.segments_live;
  Printf.printf "  boot-region writes   : %d\n" s.Fa.boot_region_writes;
  Printf.printf "  availability         : %.5f%%\n" (100.0 *. s.Fa.availability);
  Fmt.pr "  write latency (us)   : %a@." Histogram.pp_summary s.Fa.write_latency;
  Fmt.pr "  read latency (us)    : %a@." Histogram.pp_summary s.Fa.read_latency

(* ---- common options ---- *)

let drives =
  let doc = "Number of flash drives in the shelf (>= 9 for 7+2 coding)." in
  Arg.(value & opt int 11 & info [ "drives" ] ~doc)

let seed =
  let doc = "Simulation seed (runs are deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let ops =
  let doc = "Number of I/O operations to run." in
  Arg.(value & opt int 2000 & info [ "ops" ] ~doc)

let concurrency =
  let doc = "Outstanding operations (closed loop)." in
  Arg.(value & opt int 16 & info [ "concurrency" ] ~doc)

(* ---- smoke ---- *)

let smoke drives seed =
  let clock, a = make_array ~drives ~seed in
  (match Fa.create_volume a "vol" ~blocks:8192 with
  | Ok () -> ()
  | Error _ -> failwith "create_volume");
  let dg = Dg.create ~seed:(Int64.of_int seed) in
  let data = Dg.rdbms_page dg (64 * 512) in
  (match await clock (Fa.write a ~volume:"vol" ~block:0 data) with
  | Ok () -> ()
  | Error _ -> failwith "write");
  (match await clock (Fa.read a ~volume:"vol" ~block:0 ~nblocks:64) with
  | Ok got when got = data -> print_endline "smoke: write/read roundtrip OK"
  | _ -> failwith "read mismatch");
  (match Fa.snapshot a ~volume:"vol" ~snap:"vol@1" with
  | Ok () -> print_endline "smoke: snapshot OK"
  | Error _ -> failwith "snapshot");
  ignore (await clock (fun k -> Fa.failover a k));
  (match await clock (Fa.read a ~volume:"vol" ~block:0 ~nblocks:64) with
  | Ok got when got = data -> print_endline "smoke: failover preserved data OK"
  | _ -> failwith "post-failover read mismatch");
  (* an hour of simulated uptime so the availability figure is meaningful *)
  Clock.advance clock 3.6e9;
  print_stats a

let smoke_cmd =
  let doc = "Minimal end-to-end check: write, read, snapshot, failover." in
  Cmd.v (Cmd.info "smoke" ~doc) Term.(const smoke $ drives $ seed)

(* ---- workload ---- *)

let workload_kind =
  let kinds = [ ("uniform", `Uniform); ("oltp", `Oltp); ("docstore", `Docstore); ("vdi", `Vdi) ] in
  let doc = "Workload kind: uniform, oltp, docstore or vdi." in
  Arg.(value & opt (enum kinds) `Oltp & info [ "kind" ] ~doc)

let run_workload drives seed ops concurrency kind =
  let clock, a = make_array ~drives ~seed in
  let volumes = List.init 4 (fun i -> (Printf.sprintf "lun%d" i, 16384)) in
  Wl.provision a ~volumes;
  let s64 = Int64.of_int seed in
  let wl =
    match kind with
    | `Uniform -> Wl.uniform ~seed:s64 ~volumes ~read_fraction:0.7 ~io_blocks:64 ()
    | `Oltp -> Wl.oltp ~seed:s64 ~volumes ()
    | `Docstore -> Wl.docstore ~seed:s64 ~volumes ()
    | `Vdi -> Wl.vdi ~seed:s64 ~volumes ~datagen:(Dg.create ~seed:s64) ()
  in
  let report = await clock (Wl.run a wl ~ops ~concurrency) in
  Fmt.pr "%a@." Wl.pp_report report;
  print_stats a

let workload_cmd =
  let doc = "Run a synthetic workload and report IOPS, latency and reduction." in
  Cmd.v
    (Cmd.info "workload" ~doc)
    Term.(const run_workload $ drives $ seed $ ops $ concurrency $ workload_kind)

(* ---- drill ---- *)

let drill drives seed =
  let clock, a = make_array ~drives ~seed in
  (match Fa.create_volume a "prod" ~blocks:16384 with
  | Ok () -> ()
  | Error _ -> failwith "create_volume");
  let dg = Dg.create ~seed:(Int64.of_int seed) in
  let audit = ref [] in
  for i = 0 to 31 do
    let data = Dg.rdbms_page dg (128 * 512) in
    (match await clock (Fa.write a ~volume:"prod" ~block:(i * 256) data) with
    | Ok () -> audit := (i * 256, data) :: !audit
    | Error _ -> failwith "write")
  done;
  Fa.pull_drive a 1;
  Fa.pull_drive a 5;
  print_endline "pulled drives 1 and 5";
  Fa.crash a;
  let r = await clock (fun k -> Fa.failover a k) in
  Printf.printf "failover completed in %.1f simulated ms\n"
    (r.Purity_core.Recovery.duration_us /. 1000.0);
  let bad =
    List.fold_left
      (fun acc (block, data) ->
        match await clock (Fa.read a ~volume:"prod" ~block ~nblocks:128) with
        | Ok got when got = data -> acc
        | _ -> acc + 1)
      0 !audit
  in
  Printf.printf "audit: %d/%d writes intact\n" (List.length !audit - bad) (List.length !audit);
  print_stats a;
  if bad > 0 then exit 1

let drill_cmd =
  let doc = "The evaluation drill: pull drives, crash the controller, audit." in
  Cmd.v (Cmd.info "drill" ~doc) Term.(const drill $ drives $ seed)

(* ---- reduction ---- *)

let reduction drives seed kind =
  let clock, a = make_array ~drives ~seed in
  let dg = Dg.create ~seed:(Int64.of_int seed) in
  (match Fa.create_volume a "data" ~blocks:32768 with
  | Ok () -> ()
  | Error _ -> failwith "create_volume");
  let gen len =
    match kind with
    | `Uniform -> Dg.random dg len
    | `Oltp -> Dg.rdbms_page dg len
    | `Docstore -> Dg.document dg len
    | `Vdi -> Dg.vm_image dg ~blocks:(len / 512)
  in
  let rec fill b =
    if b < 24576 then begin
      (match await clock (Fa.write a ~volume:"data" ~block:b (gen (64 * 512))) with
      | Ok () -> ()
      | Error _ -> failwith "write");
      fill (b + 64)
    end
  in
  fill 0;
  print_stats a

let reduction_cmd =
  let doc = "Fill a volume with a data class and report the reduction ratio." in
  Cmd.v (Cmd.info "reduction" ~doc) Term.(const reduction $ drives $ seed $ workload_kind)

(* ---- replicate ---- *)

let replicate drives seed cycles =
  let clock = Clock.create () in
  let config = { Fa.default_config with Fa.drives; seed = Int64.of_int seed } in
  let source = Fa.create ~config ~clock () in
  let target = Fa.create ~config:{ config with Fa.seed = Int64.of_int (seed + 1) } ~clock () in
  let repl = Purity_replication.Replication.create ~source ~target () in
  let module Repl = Purity_replication.Replication in
  (match Fa.create_volume source "vol" ~blocks:16384 with
  | Ok () -> ()
  | Error _ -> failwith "create_volume");
  (match Repl.protect repl "vol" with Ok () -> () | Error _ -> failwith "protect");
  let dg = Dg.create ~seed:(Int64.of_int seed) in
  let rng = Purity_util.Rng.create ~seed:(Int64.of_int (seed + 7919)) in
  for c = 1 to cycles do
    for _ = 1 to 4 do
      ignore
        (await clock
           (Fa.write source ~volume:"vol" ~block:(Purity_util.Rng.int rng 60 * 256)
              (Dg.rdbms_page dg (64 * 512))))
    done;
    let r = await clock (fun k -> Repl.replicate_once repl "vol" k) in
    Printf.printf "cycle %d: %d changed blocks, %d bytes shipped, %.1f ms, RPO image %s\n" c
      r.Repl.changed_blocks r.Repl.shipped_bytes (r.Repl.duration_us /. 1000.0)
      r.Repl.rpo_snapshot
  done;
  let repl_count key = Registry.read_int (Fa.telemetry source) ("replication/" ^ key) in
  Printf.printf "total: %d cycles, %d blocks, %d bytes over the wire\n" (repl_count "cycles")
    (repl_count "changed_blocks") (repl_count "shipped_bytes");
  Printf.printf "target volumes: %s\n"
    (String.concat ", " (List.map (fun (n, _, _) -> n) (Fa.list_volumes target)))

let cycles =
  let doc = "Replication cycles to run." in
  Arg.(value & opt int 4 & info [ "cycles" ] ~doc)

let replicate_cmd =
  let doc = "Replicate a volume to a second array over a simulated WAN." in
  Cmd.v (Cmd.info "replicate" ~doc) Term.(const replicate $ drives $ seed $ cycles)

(* ---- stats ---- *)

let telemetry_stats drives seed ops concurrency kind export =
  let clock, a = make_array ~drives ~seed in
  let volumes = List.init 4 (fun i -> (Printf.sprintf "lun%d" i, 16384)) in
  Wl.provision a ~volumes;
  let s64 = Int64.of_int seed in
  let wl =
    match kind with
    | `Uniform -> Wl.uniform ~seed:s64 ~volumes ~read_fraction:0.7 ~io_blocks:64 ()
    | `Oltp -> Wl.oltp ~seed:s64 ~volumes ()
    | `Docstore -> Wl.docstore ~seed:s64 ~volumes ()
    | `Vdi -> Wl.vdi ~seed:s64 ~volumes ~datagen:(Dg.create ~seed:s64) ()
  in
  ignore (await clock (Wl.run a wl ~ops ~concurrency));
  (* exercise the maintenance paths so their counters have something to say *)
  ignore (await clock (fun k -> Fa.gc a k));
  ignore (await clock (fun k -> Fa.scrub a k));
  let snap = Registry.snapshot (Fa.telemetry a) in
  Fmt.pr "%a@." Registry.pp_snapshot snap;
  match export with
  | None -> ()
  | Some path ->
    let buf = Buffer.create 4096 in
    let exporter =
      Export.create ~tracer:(Fa.tracer a) ~clock ~registry:(Fa.telemetry a)
        ~sink:(Export.buffer_sink buf) ()
    in
    Export.sample exporter;
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "wrote %d phone-home lines to %s\n" (Export.emitted exporter) path

let export_path =
  let doc = "Write one phone-home JSONL sample (metrics + spans) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "export" ] ~doc ~docv:"FILE")

let stats_cmd =
  let doc =
    "Run a workload plus GC and scrub, then print the full telemetry registry: \
     latency percentiles, data reduction, GC/scrub counters, per-drive wear."
  in
  Cmd.v
    (Cmd.info "stats" ~doc)
    Term.(
      const telemetry_stats $ drives $ seed $ ops $ concurrency $ workload_kind
      $ export_path)

(* ---- protect ---- *)

let protect drives seed ticks =
  let clock = Clock.create () in
  let config = { Fa.default_config with Fa.drives; seed = Int64.of_int seed } in
  let a = Fa.create ~config ~clock () in
  let module P = Purity_core.Protection in
  (match Fa.create_volume a "vol" ~blocks:8192 with
  | Ok () -> ()
  | Error _ -> failwith "create_volume");
  let dg = Dg.create ~seed:(Int64.of_int seed) in
  ignore (await clock (Fa.write a ~volume:"vol" ~block:0 (Dg.rdbms_page dg (64 * 512))));
  let p = P.create a in
  (match P.protect p ~volume:"vol" { P.every_us = 60.0e6; keep = 3 } with
  | Ok () -> ()
  | Error _ -> failwith "protect");
  Printf.printf "policy: snapshot every simulated minute, keep 3\n";
  for _ = 1 to ticks do
    Clock.run_until clock (Clock.now clock +. 60.0e6);
    Printf.printf "t=%4.0f min  taken=%d  retained: %s\n"
      (Clock.now clock /. 60.0e6) (P.taken p)
      (String.concat ", " (P.snapshots p ~volume:"vol"))
  done;
  P.stop p

let ticks =
  let doc = "Simulated minutes to run the snapshot policy for." in
  Arg.(value & opt int 8 & info [ "ticks" ] ~doc)

let protect_cmd =
  let doc = "Run an automatic snapshot policy (cadence + retention)." in
  Cmd.v (Cmd.info "protect" ~doc) Term.(const protect $ drives $ seed $ ticks)

let main =
  let doc = "Simulated Purity all-flash array (SIGMOD 2015 reproduction)" in
  Cmd.group
    (Cmd.info "purity-cli" ~doc ~version:"1.0.0")
    [
      smoke_cmd;
      workload_cmd;
      drill_cmd;
      reduction_cmd;
      replicate_cmd;
      protect_cmd;
      stats_cmd;
    ]

let () = exit (Cmd.eval main)
