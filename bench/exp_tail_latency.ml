(* E6 — §4.4: read-around-write scheduling and its costs.

   Mixed 32 KiB workload; with the scheduler ON, reads landing on drives
   that are programming segios are served by Reed-Solomon reconstruction
   from idle drives, cutting the read tail; the cost is extra peer reads
   (paper: <= 7 x 2/11 ~ 1.3x for write-heavy workloads). The ablation
   runs the identical workload with the policy off. *)

open Bench_util
module Fa = Purity_core.Flash_array
module Wl = Purity_workload.Workload
module Registry = Purity_telemetry.Registry
module Histogram = Purity_util.Histogram

let run_one ?(read_fraction = 0.5) ?(ops = 2500) ?(concurrency = 24) ~read_around_write () =
  let clock, a = make_array ~read_around_write () in
  let volumes = [ ("lun", 32768) ] in
  Wl.provision a ~volumes;
  let dg = Purity_workload.Datagen.create ~seed:61L in
  let rec fill b =
    if b < 32768 then begin
      write_ok clock a ~volume:"lun" ~block:b
        (Purity_workload.Datagen.compressible dg (2048 * 512) ~target_ratio:2.0);
      fill (b + 2048)
    end
  in
  fill 0;
  let wl = Wl.uniform ~seed:62L ~volumes ~read_fraction ~io_blocks:64 () in
  let r = await clock (Wl.run a wl ~ops ~concurrency) in
  let sched key = Registry.read_int (Fa.telemetry a) ("sched/" ^ key) in
  (r, (sched "reconstruct_reads", sched "chunk_reads"))

let run () =
  section "E6 / §4.4 — tail latency: read-around-write scheduling (ablation)";
  (* stress mix: 50% writes keep segios flushing while reads arrive *)
  let on, io_on = run_one ~read_around_write:true () in
  let off, io_off = run_one ~read_around_write:false () in
  (* typical mix: the paper's "typical installations" are read-mostly *)
  (* typical installations run well below saturation: a moderate queue *)
  let typ, _ = run_one ~read_fraction:0.9 ~concurrency:8 ~read_around_write:true () in
  Printf.printf "  32 KiB ops, 24 outstanding; identical op streams per pair.\n\n";
  Printf.printf "  stress mix (50%% writes):\n";
  pp_lat "scheduler ON:  reads" on.Wl.read_lat;
  pp_lat "scheduler OFF: reads" off.Wl.read_lat;
  Printf.printf "  typical mix (10%% writes, moderate queue depth):\n";
  pp_lat "scheduler ON:  reads" typ.Wl.read_lat;
  let frac stats =
    let reconstructs, chunks = stats in
    if chunks = 0 then 0.0 else float_of_int reconstructs /. float_of_int chunks
  in
  (* the paper's accounting: each dodged read costs k=7 peer reads, so the
     total read cost rises by 7 x (fraction reconstructed) ~ 7 x 2/11 = 1.3 *)
  let cost stats = 7.0 *. frac stats in
  Printf.printf
    "\n  reconstruct-reads ON:  %d of %d chunks (fraction %.2f; 7 x fraction = %.2fx, paper ~1.3x)\n"
    (fst io_on) (snd io_on) (frac io_on) (cost io_on);
  Printf.printf "  reconstruct-reads OFF: %d of %d chunks\n" (fst io_off) (snd io_off);
  let p999_on = Histogram.percentile on.Wl.read_lat 99.9 in
  let p999_off = Histogram.percentile off.Wl.read_lat 99.9 in
  let p999_typ = Histogram.percentile typ.Wl.read_lat 99.9 in
  Printf.printf
    "\n  Paper: reads dodge the <=2 drives writing per group (cost 7 x 2/11 ~ 1.3x\n\
    \  for write-heavy workloads); typical installations see p99.9 < 1 ms.\n";
  Printf.printf "  Shape check: p99.9 ON (%.0f us) < p99.9 OFF (%.0f us) -> %s\n" p999_on
    p999_off
    (if p999_on < p999_off then "HOLDS" else "DIVERGES");
  Printf.printf "  Shape check: reconstruct cost 7 x fraction in [0.9, 1.8] -> %s (%.2fx)\n"
    (if cost io_on >= 0.9 && cost io_on <= 1.8 then "HOLDS" else "DIVERGES")
    (cost io_on);
  Printf.printf "  Shape check: typical-mix p99.9 under 1 ms -> %s (%.0f us)\n"
    (if p999_typ < 1000.0 then "HOLDS" else "DIVERGES")
    p999_typ
