(* E14 (§4.3 in-text claim) — secondary cache warming.

   "The primary controller asynchronously warms the cache of the
   secondary, reducing the total amount of I/O required for failover."

   Two identical arrays build the same hot working set; one fails over
   with warming enabled, the other with a cold spare. We compare the
   post-failover latency of re-reading the working set and the drive I/O
   it costs. *)

open Bench_util
module Fa = Purity_core.Flash_array
module Clock = Purity_sim.Clock
module Histogram = Purity_util.Histogram
module Dg = Purity_workload.Datagen
module Registry = Purity_telemetry.Registry

let hot_blocks = 8192

let run_one ~secondary_warming =
  let clock = Clock.create () in
  let config = { (bench_config ()) with Fa.secondary_warming } in
  let a = Fa.create ~config ~clock () in
  ok (Fa.create_volume a "db" ~blocks:(hot_blocks * 2));
  let dg = Dg.create ~seed:141L in
  let rec fill b =
    if b < hot_blocks then begin
      write_ok clock a ~volume:"db" ~block:b (Dg.compressible dg (1024 * 512) ~target_ratio:2.0);
      fill (b + 1024)
    end
  in
  fill 0;
  ignore (await clock (fun k -> Fa.checkpoint a k));
  (* the primary serves the hot set, warming its cache (and, per the
     paper, the secondary's) *)
  let rec touch b =
    if b < hot_blocks then begin
      ignore (await clock (Fa.read a ~volume:"db" ~block:b ~nblocks:64));
      touch (b + 64)
    end
  in
  touch 0;
  Fa.crash a;
  ignore (await clock (fun k -> Fa.failover a k));
  (* post-failover: re-serve the hot set and measure *)
  let hist = Histogram.create () in
  (* the drives own their read counters, so they span the failover *)
  let drive_reads () =
    Array.fold_left
      (fun acc d ->
        acc
        + Registry.read_int (Fa.telemetry a)
            (Printf.sprintf "ssd/drive%d/reads" (Purity_ssd.Drive.id d)))
      0
      (Purity_ssd.Shelf.drives (Fa.shelf a))
  in
  let drive_reads_before = drive_reads () in
  let rec reread b =
    if b < hot_blocks then begin
      let t0 = Clock.now clock in
      (match await clock (Fa.read a ~volume:"db" ~block:b ~nblocks:64) with
      | Ok _ -> Histogram.record hist (Clock.now clock -. t0)
      | Error _ -> ());
      reread (b + 64)
    end
  in
  reread 0;
  (hist, drive_reads () - drive_reads_before, (Fa.stats a).Fa.cache_hits)

let run () =
  section "E14 / §4.3 — secondary cache warming (ablation)";
  let warm, warm_drive_reads, warm_hits = run_one ~secondary_warming:true in
  let cold, cold_drive_reads, cold_hits = run_one ~secondary_warming:false in
  Printf.printf "  4 MiB hot set, failover, then re-serve the hot set:\n\n";
  Printf.printf "  %-28s %14s %14s\n" "" "warm spare" "cold spare";
  Printf.printf "  %-28s %14.0f %14.0f\n" "post-failover p50 (us)"
    (Histogram.percentile warm 50.0) (Histogram.percentile cold 50.0);
  Printf.printf "  %-28s %14.0f %14.0f\n" "post-failover p99 (us)"
    (Histogram.percentile warm 99.0) (Histogram.percentile cold 99.0);
  Printf.printf "  %-28s %14d %14d\n" "drive reads issued" warm_drive_reads cold_drive_reads;
  Printf.printf "  %-28s %14d %14d\n" "controller cache hits" warm_hits cold_hits;
  Printf.printf
    "\n  Paper: warming reduces the I/O required after failover (it is what\n\
    \  keeps the secondary a fast 'live spare').\n";
  Printf.printf "  Shape check: warm spare issues far fewer drive reads -> %s\n"
    (if warm_drive_reads * 2 < cold_drive_reads then "HOLDS" else "DIVERGES");
  Printf.printf "  Shape check: warm p50 below cold p50 -> %s (%.0f vs %.0f us)\n"
    (if Histogram.percentile warm 50.0 < Histogram.percentile cold 50.0 then "HOLDS"
     else "DIVERGES")
    (Histogram.percentile warm 50.0) (Histogram.percentile cold 50.0)
