(* E7 — §1/§2.2: throughput through drive failures.

   "A single Purity appliance can provide over 7 GiB/s ... even through
   multiple device failures." We pull 0, 1 and 2 drives and measure
   random 32 KiB read throughput; the shape claim is that degraded reads
   cost only the reconstruction amplification, not availability. *)

open Bench_util
module Fa = Purity_core.Flash_array
module Wl = Purity_workload.Workload
module Registry = Purity_telemetry.Registry

let run_with_failures failures =
  let clock, a = make_array () in
  let volumes = [ ("lun", 32768) ] in
  Wl.provision a ~volumes;
  let dg = Purity_workload.Datagen.create ~seed:71L in
  let rec fill b =
    if b < 32768 then begin
      write_ok clock a ~volume:"lun" ~block:b
        (Purity_workload.Datagen.compressible dg (2048 * 512) ~target_ratio:2.0);
      fill (b + 2048)
    end
  in
  fill 0;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  List.iter (Fa.pull_drive a) failures;
  let wl = Wl.uniform ~seed:72L ~volumes ~read_fraction:1.0 ~io_blocks:64 () in
  let r = await clock (Wl.run a wl ~ops:2500 ~concurrency:32) in
  (r, Registry.read_int (Fa.telemetry a) "sched/reconstruct_reads")

let run () =
  section "E7 — random-read throughput through 0 / 1 / 2 drive failures";
  Printf.printf "  %-16s %12s %14s %10s %14s %14s\n" "failed drives" "IOPS" "MB/s (sim)"
    "errors" "p99.9 (us)" "reconstructs";
  let results =
    List.map
      (fun failures ->
        let r, reconstructs = run_with_failures failures in
        Printf.printf "  %-16s %12.0f %14.1f %10d %14.0f %14d\n"
          (match failures with
          | [] -> "none"
          | l -> String.concat "," (List.map string_of_int l))
          r.Wl.iops r.Wl.throughput_mb_s r.Wl.errors
          (Purity_util.Histogram.percentile r.Wl.read_lat 99.9)
          reconstructs;
        r)
      [ []; [ 3 ]; [ 3; 8 ] ]
  in
  match results with
  | [ healthy; _one; two ] ->
    Printf.printf
      "\n  Paper: full service through two device failures (they encourage\n\
      \  customers to pull drives during evaluations).\n";
    Printf.printf "  Shape check: zero errors with two drives out -> %s\n"
      (if two.Wl.errors = 0 then "HOLDS" else "DIVERGES");
    (* expected analytically: 2/11 of reads amplify 7x over the 9
       surviving drives -> roughly half of healthy throughput *)
    Printf.printf "  Shape check: degraded throughput >= 40%% of healthy -> %s (%.0f%%)\n"
      (if two.Wl.iops >= 0.4 *. healthy.Wl.iops then "HOLDS" else "DIVERGES")
      (100.0 *. two.Wl.iops /. healthy.Wl.iops)
  | _ -> ()
