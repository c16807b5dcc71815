(* The array benchmark. One run: set the workload's array up several
   times (reporting the median set-up time), run the timed phase, then the
   failover tail (flush, back-to-back crash + frontier failover cycles, a
   durability re-read). Untraced runs (--trace 0) print the end-to-end
   metrics; a traced run (--trace 1) repeats the workload untraced and
   then traced, and prints the per-layer metrics. The last line of
   standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}. *)

module Fa = Purity_core.Flash_array
module State = Purity_core.State
module Recovery = Purity_core.Recovery
module Pgc = Purity_core.Gc
module Clock = Purity_sim.Clock
module Registry = Purity_telemetry.Registry
module Kernel_stats = Purity_util.Kernel_stats
module Medium = Purity_medium.Medium
module Dedup = Purity_dedup.Dedup
module Wl = Purity_workload.Workload
module Rng = Purity_util.Rng

(* Host times are medians: of [setups] set-ups, of [failover_cycles]
   failovers, and of [slices] equal sub-phases of the timed phase (for a
   workload with GC, of its GC batches). A sub-phase is long enough to
   hold several segment flushes, so it carries its share of the periodic
   work, and a burst of host noise moves only the sub-phases it hits.

   The failover count is fixed, not stretched to fill a time window:
   back-to-back cycles are not identical. The NVRAM records a recovery
   replays grow geometrically from one back-to-back failover to the next
   (ingest, seed 1: 25, 39, 67, 123, ... 907 at the seventh), and the host
   cost of a failover starts to climb after about ten cycles. *)
let setups = 3
let failover_cycles = 7

(* The tail percentile of every latency, reads and writes alike. No
   workload writes 10000 times. vdi reads ~36000 times, enough for p99.9,
   but all but ~2.5% of its reads are DRAM hits: p99.9 falls among the few
   dozen reads that meet one of the timed phase's handful of segment
   flushes and moves +-30% with the seed, while p99 sits inside the cache
   misses and holds steady. *)
let tail_pct = 99.0
let durability_reads_per_volume = 64
let slices = 10

(* ---------- the timed phase ---------- *)

type phase = {
  c : Loop.counters;
  ops : int;
  wall_ns : int;
  slice_us_per_op : float list;
  sim_us : float;
  reg0 : Registry.snapshot;
  reg1 : Registry.snapshot;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  gc_passes : (Pgc.report * float) list;  (** report, host ms *)
}

let timed_phase (spec : Spec.t) (ctx : Loop.ctx) ~seed ~ops =
  let c = Loop.fresh_counters () in
  ctx.c <- c;
  let gen = spec.gen ~seed in
  let batch = if spec.gc_every > 0 then spec.gc_every else ops in
  ctx.slice <- (if spec.gc_every > 0 then spec.gc_every else max 1 (ops / slices));
  Gc.compact ();
  let reg0 = Registry.snapshot (Fa.telemetry ctx.fa) in
  let gc0 = Gc.quick_stat () in
  let sim0 = Clock.now ctx.clock in
  let t0 = Wall.now_ns () in
  c.marks <- [ t0 ];
  let passes = ref [] in
  let done_ = ref 0 in
  while !done_ < ops do
    let n = min batch (ops - !done_) in
    Loop.run_ops ctx ~n ~gen;
    done_ := !done_ + n;
    if spec.gc_every > 0 then begin
      let w0 = Wall.now_ns () in
      let r = Loop.await ctx (Fa.gc ~max_victims:spec.gc_max_victims ctx.fa) in
      passes := (r, Wall.us_since w0 /. 1e3) :: !passes
    end
  done;
  let t1 = Wall.now_ns () in
  let gc1 = Gc.quick_stat () in
  let sim_us = Clock.now ctx.clock -. sim0 in
  let reg1 = Registry.snapshot (Fa.telemetry ctx.fa) in
  let slice = ctx.slice in
  let rec per_slice = function
    | b :: (a :: _ as rest) -> (float_of_int (b - a) /. 1e3 /. float_of_int slice) :: per_slice rest
    | _ -> []
  in
  ctx.slice <- 0;
  {
    c;
    ops;
    wall_ns = t1 - t0;
    slice_us_per_op = per_slice c.marks;
    sim_us;
    reg0;
    reg1;
    gc0;
    gc1;
    gc_passes = List.rev !passes;
  }

(* ---------- the failover tail ---------- *)

type tail = {
  flushed : Registry.snapshot;  (** once the timed phase's writes are all on the drives *)
  fo_sim_ms : float list;
  fo_wall_ms : float list;
  reports : Recovery.report list;
  t : Loop.counters;  (** the durability re-read *)
}

let failover_tail ?on_failover (ctx : Loop.ctx) ~seed =
  ctx.c <- Loop.fresh_counters ();
  Loop.await ctx (Fa.flush ctx.fa);
  let flushed = Registry.snapshot (Fa.telemetry ctx.fa) in
  let sims = ref [] and walls = ref [] and reports = ref [] in
  for _ = 1 to failover_cycles do
    (* every failover starts from a compacted heap, so the cycles are
       comparable and the old controller's garbage does not pile up *)
    Gc.compact ();
    Fa.crash ctx.fa;
    let s0 = Clock.now ctx.clock and t0 = Wall.now_ns () in
    let r = Loop.await ctx (Fa.failover ctx.fa) in
    walls := (Wall.us_since t0 /. 1e3) :: !walls;
    sims := ((Clock.now ctx.clock -. s0) /. 1e3) :: !sims;
    reports := r :: !reports;
    Option.iter (fun f -> f ()) on_failover
  done;
  let rng = Rng.create ~seed:(Spec.sub_seed ~seed 9) in
  let picks =
    Array.to_list ctx.shadow.Shadow.vols
    |> List.concat_map (fun (v : Shadow.vol) ->
           List.init durability_reads_per_volume (fun _ -> (v, Rng.int rng (Shadow.slots v))))
  in
  let queue = ref picks in
  let gen () =
    match !queue with
    | ((v : Shadow.vol), s) :: rest ->
      queue := rest;
      Wl.Read { volume = v.name; block = s * v.slot_blocks; nblocks = v.slot_blocks }
    | [] -> invalid_arg "durability: exhausted"
  in
  Loop.run_ops ctx ~n:(List.length picks) ~gen;
  { flushed; fo_sim_ms = !sims; fo_wall_ms = !walls; reports = !reports; t = ctx.c }

(* ---------- registry helpers ---------- *)

let reg_float snap key =
  match Registry.find snap key with
  | Some (Registry.Int n) -> float_of_int n
  | Some (Registry.Float f) -> f
  | _ -> 0.0

let reg_delta (p : phase) key = reg_float p.reg1 key -. reg_float p.reg0 key

(* Sum of a per-drive counter over the shelf ([ssd/driveN/<field>]). *)
let drives_total snap field =
  List.fold_left
    (fun acc (k, v) ->
      let is_drive =
        String.length k > 9 && String.sub k 0 9 = "ssd/drive" && Filename.basename k = field
      in
      match v with Registry.Int n when is_drive -> acc + n | _ -> acc)
    0 snap
  |> float_of_int

let drives_delta (p : phase) field = drives_total p.reg1 field -. drives_total p.reg0 field

let ratio a b = if b = 0.0 then 0.0 else a /. b

let hist_delta_p50 (p : phase) key =
  match (Registry.find p.reg0 key, Registry.find p.reg1 key) with
  | Some base, Some cur -> (
    match Registry.find (Registry.diff ~base:[ (key, base) ] ~current:[ (key, cur) ]) key with
    | Some (Registry.Hist h) -> Samples.hist_p50 h
    | _ -> 0.0)
  | _ -> 0.0

(* ---------- workload self-checks ---------- *)

let cache_hit_ratio p =
  let h = reg_delta p "read_path/cache_hits" and m = reg_delta p "read_path/cache_misses" in
  ratio h (h +. m)

let dedup_hit_ratio p =
  ratio (reg_delta p "dedup/inline_blocks") (float_of_int p.c.bytes_written /. 512.0)

(* Mean medium-chain depth over a fixed sample of every volume's slots. *)
let sampled_depth (ctx : Loop.ctx) ~seed =
  let st = Fa.state ctx.fa in
  let rng = Rng.create ~seed:(Spec.sub_seed ~seed 10) in
  let n = ref 0 and sum = ref 0 in
  Array.iter
    (fun (v : Shadow.vol) ->
      match State.Stbl.find_opt st.State.volumes v.name with
      | None -> ()
      | Some vol ->
        for _ = 1 to 64 do
          let block = Rng.int rng (Shadow.slots v) * v.slot_blocks in
          sum := !sum + Medium.resolve_depth st.State.medium_table vol.State.medium ~block;
          incr n
        done)
    ctx.shadow.Shadow.vols;
  ratio (float_of_int !sum) (float_of_int !n)

let self_checks (spec : Spec.t) p ~depth =
  let tail_check label lat pct =
    let b = Samples.beyond lat pct in
    (Printf.sprintf "%s p%g has >= 10 samples beyond it (%d of %d)" label pct b (Samples.count lat), b >= 10)
  in
  let common =
    [ tail_check "sim read latency" p.c.read_lat tail_pct;
      tail_check "sim write latency" p.c.write_lat tail_pct ]
  in
  let specific =
    match spec.name with
    | "rand-rw" ->
      let h = cache_hit_ratio p in
      [ (Printf.sprintf "read-cache hit ratio well below 1 (%.3f < 0.5)" h, h < 0.5) ]
    | "ingest" ->
      let reclaiming =
        List.length (List.filter (fun ((r : Pgc.report), _) -> r.reclaimed_bytes > 0) p.gc_passes)
      in
      let vol_bytes = List.fold_left (fun acc (_, blocks) -> acc + (blocks * 512)) 0 Spec.ing_volumes in
      let over = ratio (float_of_int p.c.bytes_written) (float_of_int vol_bytes) in
      [
        (Printf.sprintf "completed GC passes that reclaimed space >= 3 (%d)" reclaiming, reclaiming >= 3);
        (Printf.sprintf "volumes overwritten >= 2x (%.2fx)" over, over >= 2.0);
      ]
    | "vdi" ->
      let h = dedup_hit_ratio p in
      [
        (Printf.sprintf "dedup hit ratio >= 0.5 (%.3f)" h, h >= 0.5);
        (Printf.sprintf "medium resolve depth >= 2 (%.2f)" depth, depth >= 2.0);
      ]
    | _ -> []
  in
  common @ specific

(* ---------- metrics ---------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value = (if Float.is_finite value then value else 0.0) }

let end_to_end p tl ~setup_s ~failed ~attempted =
  let c = p.c in
  let pct lat q = Samples.percentile lat q in
  [
    m "wall_us_per_op" "us" (Samples.median_of p.slice_us_per_op);
    m "alloc_words_per_op" "words" ((p.gc1.minor_words -. p.gc0.minor_words) /. float_of_int p.ops);
    m "peak_heap_mb" "MiB"
      (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
    m "setup_s" "s" setup_s;
    m "sim_iops" "1/s" (float_of_int p.ops /. (p.sim_us /. 1e6));
    m "sim_read_p50_us" "us" (pct c.read_lat 50.0);
    m "sim_read_trimmed_mean_us" "us" (Samples.mean_upto c.read_lat tail_pct);
    m "sim_read_tail_us" "us" (pct c.read_lat tail_pct);
    m "sim_write_p50_us" "us" (pct c.write_lat 50.0);
    m "sim_write_tail_us" "us" (pct c.write_lat tail_pct);
    m "data_reduction" "ratio" (reg_float p.reg1 "array/data_reduction");
    m "write_amp" "ratio"
      (ratio
         (drives_total tl.flushed "bytes_written" -. drives_total p.reg0 "bytes_written")
         (float_of_int c.bytes_written));
    m "failover_sim_ms" "ms" (Samples.median_of tl.fo_sim_ms);
    m "failover_wall_ms" "ms" (Samples.median_of tl.fo_wall_ms);
    m "failed_ops" "ratio" (ratio (float_of_int failed) (float_of_int attempted));
  ]

(* Replays of the timed phase's op stream after the run, regenerated
   from the seed: write chunks through a fresh Dedup index, read extents
   through State.resolve_range and Medium.resolve_depth on the final
   state. *)
type replay = {
  find_ns : int;
  find_writes : int;
  resolve_ns : int;
  resolve_blocks : int;
  depth_sum : int;
  depth_reads : int;
}

let replay (spec : Spec.t) (ctx : Loop.ctx) ~seed ~ops =
  let gen = spec.gen ~seed in
  let d = Dedup.create () in
  let st = Fa.state ctx.fa in
  let find_ns = ref 0 and find_writes = ref 0 and resolve_ns = ref 0 in
  let resolve_blocks = ref 0 and depth_sum = ref 0 and depth_reads = ref 0 in
  for _ = 1 to ops do
    match gen () with
    | Wl.Write { data; _ } ->
      let t0 = Wall.now_ns () in
      ignore (Dedup.find_duplicates d data);
      ignore (Dedup.register d data);
      find_ns := !find_ns + (Wall.now_ns () - t0);
      incr find_writes
    | Wl.Read { volume; block; nblocks } -> (
      match State.Stbl.find_opt st.State.volumes volume with
      | None -> ()
      | Some v ->
        let medium = v.State.medium in
        let t0 = Wall.now_ns () in
        ignore (State.resolve_range st ~medium ~block ~nblocks);
        resolve_ns := !resolve_ns + (Wall.now_ns () - t0);
        resolve_blocks := !resolve_blocks + nblocks;
        depth_sum := !depth_sum + Medium.resolve_depth st.State.medium_table medium ~block;
        incr depth_reads)
  done;
  {
    find_ns = !find_ns;
    find_writes = !find_writes;
    resolve_ns = !resolve_ns;
    resolve_blocks = !resolve_blocks;
    depth_sum = !depth_sum;
    depth_reads = !depth_reads;
  }

type kernel_totals = (string * int * int) list (* name, bytes, ns *)

let read_kernels () : kernel_totals =
  List.map (fun (k : Kernel_stats.kernel) -> (k.name, k.bytes, k.ns)) Kernel_stats.all

let per_layer p tl (tr : Trace.t) (rp : replay) (kernels : kernel_totals) ~gc_probe ~untraced_wall_ns =
  let c = p.c in
  let ops = float_of_int p.ops in
  let fl = float_of_int in
  let kernel name =
    match List.find_opt (fun (n, _, _) -> n = name) kernels with
    | Some (_, bytes, ns) -> ratio (fl ns) (fl bytes /. 1024.0)
    | None -> 0.0
  in
  let written_mib = fl c.bytes_written /. 1048576.0 in
  let spans n = Trace.durations tr n in
  let gc_reports = List.map fst p.gc_passes in
  let sum_gc f = List.fold_left (fun acc r -> acc + f r) 0 gc_reports in
  let med_report f = Samples.median_of (List.map (fun r -> fl (f r)) tl.reports) in
  let chunk_reads = reg_delta p "sched/chunk_reads" in
  let probes = reg_delta p "pyramid/blocks_probes" in
  let map_h = reg_delta p "read_path/map_cache_hits" and map_m = reg_delta p "read_path/map_cache_misses" in
  let drive_reads = drives_delta p "reads" in
  let gc0 = p.gc0 and gc1 = p.gc1 in
  let passes = if p.gc_passes = [] then gc_probe else p.gc_passes in
  [
    m "flash_array.read_submit_us" "us" (ratio (fl c.read_submit_ns /. 1e3) (fl c.reads));
    m "flash_array.write_submit_us" "us" (ratio (fl c.write_submit_ns /. 1e3) (fl c.write_attempts));
    m "write_path.apply_host_us" "us" (ratio (fl tr.apply_ns /. 1e3) (fl tr.applies));
    m "nvram.commit_p50_us" "us" (Samples.percentile (Trace.durations ~ok_only:true tr "nvram_commit") 50.0);
    m "nvram.backpressure_per_write" "ratio" (ratio (fl c.backpressure) (fl c.writes));
    m "dedup.hit_ratio" "ratio" (dedup_hit_ratio p);
    m "dedup.find_us_per_write" "us" (ratio (fl rp.find_ns /. 1e3) (fl rp.find_writes));
    m "kernels.fingerprint_ns_per_kib" "ns/KiB" (kernel "fingerprint");
    m "kernels.lz_compress_ns_per_kib" "ns/KiB" (kernel "lz_compress");
    m "kernels.lz_decompress_ns_per_kib" "ns/KiB" (kernel "lz_decompress");
    m "compress.stored_ratio" "ratio"
      (ratio (reg_delta p "write_path/stored_bytes") (reg_delta p "write_path/logical_bytes"));
    m "kernels.crc_ns_per_kib" "ns/KiB" (kernel "crc");
    m "kernels.rs_ns_per_kib" "ns/KiB" (kernel "rs");
    m "kernels.gf_ns_per_kib" "ns/KiB" (kernel "gf");
    m "segment.flush_sim_p50_us" "us" (Samples.percentile (spans "segio_flush") 50.0);
    m "segment.program_sim_us_per_mib" "us/MiB" (ratio (Samples.sum (spans "program")) written_mib);
    m "segment.segios_per_mib" "ratio" (ratio (fl (Samples.count (spans "segio_flush"))) written_mib);
    m "sched.read_amplification" "ratio"
      (ratio (reg_delta p "sched/direct_reads" +. reg_delta p "sched/peer_reads") chunk_reads);
    m "sched.reconstruct_share" "ratio" (ratio (reg_delta p "sched/reconstruct_reads") chunk_reads);
    m "sched.segment_read_p50_us" "us" (hist_delta_p50 p "sched/segment_read_us");
    m "sched.backup_reads" "count" (reg_delta p "sched/backup_reads");
    m "drive.program_stalls_per_kread" "ratio"
      (ratio (drives_delta p "program_stalls") (drive_reads /. 1000.0));
    m "drive.reads_per_op" "ratio" (drive_reads /. ops);
    m "read_path.cache_hit_ratio" "ratio" (cache_hit_ratio p);
    m "read_path.map_cache_hit_ratio" "ratio" (ratio map_h (map_h +. map_m));
    m "pyramid.probes_per_lookup" "ratio" (ratio probes map_m);
    m "pyramid.skip_ratio" "ratio"
      (ratio (reg_delta p "pyramid/blocks_fence_skips" +. reg_delta p "pyramid/blocks_bloom_skips") probes);
    m "pyramid.patches" "count" (reg_float p.reg1 "pyramid/blocks_patches");
    m "pyramid.facts" "count" (reg_float p.reg1 "pyramid/blocks_facts");
    m "pyramid.resolve_ns_per_block" "ns" (ratio (fl rp.resolve_ns) (fl rp.resolve_blocks));
    m "medium.resolve_depth" "ratio" (ratio (fl rp.depth_sum) (fl rp.depth_reads));
    m "gc.passes" "count" (fl (List.length gc_reports));
    m "gc.relocated_per_user_byte" "ratio"
      (ratio (fl (sum_gc (fun r -> r.Pgc.relocated_bytes))) (fl c.bytes_written));
    m "gc.reclaimed_mib" "MiB" (fl (sum_gc (fun r -> r.Pgc.reclaimed_bytes)) /. 1048576.0);
    m "gc.pass_sim_ms" "ms" (Samples.median_of (List.map (fun (r, _) -> r.Pgc.duration_us /. 1e3) passes));
    m "gc.pass_wall_ms" "ms" (Samples.median_of (List.map snd passes));
    m "recovery.headers_scanned" "count" (med_report (fun r -> r.Recovery.headers_scanned));
    m "recovery.log_records" "count" (med_report (fun r -> r.Recovery.log_records));
    m "recovery.nvram_records" "count" (med_report (fun r -> r.Recovery.nvram_records));
    m "recovery.checkpoint_bytes" "bytes" (med_report (fun r -> r.Recovery.checkpoint_bytes));
    m "recovery.failover_wall_ms" "ms" (Samples.median_of tl.fo_wall_ms);
    m "clock.events_per_op" "ratio" (fl c.events /. ops);
    m "clock.dispatch_us_per_op" "us" (fl c.dispatch_ns /. 1e3 /. ops);
    m "trace.spans_per_op" "ratio" (fl tr.count /. ops);
    m "trace.overhead_pct" "%" (100.0 *. (ratio (fl p.wall_ns) (fl untraced_wall_ns) -. 1.0));
    m "runtime.minor_gcs_per_kop" "ratio"
      (fl (gc1.minor_collections - gc0.minor_collections) /. (ops /. 1000.0));
    m "runtime.major_gcs" "count" (fl (gc1.major_collections - gc0.major_collections));
    m "runtime.major_words_per_op" "words" ((gc1.major_words -. gc0.major_words) /. ops);
    m "harness.gen_us_per_op" "us" (fl c.gen_ns /. 1e3 /. ops);
    m "harness.verify_us_per_op" "us" (fl c.verify_ns /. 1e3 /. ops);
  ]

(* The end-to-end metrics BENCHMARK.json gates on. Printed but not gated:
   - sim_read_p50_us: on vdi most reads are DRAM cache hits with a fixed
     simulated latency, so its median is the same constant on every run;
     the trimmed mean carries the hit/miss mix instead, without the rare
     flush-stalled reads that sim_read_tail_us reports;
   - failover_wall_ms: a failover is short and allocation-heavy, and its
     host time swings ~1.5x between the host's fast and slow spells (the
     10-seed spread reached 0.28-0.38, past the largest bound a gate may
     have); it is reported per layer, as recovery.failover_wall_ms;
   - failed_ops: the JSON result's failed/attempted. *)
let gated =
  [
    "wall_us_per_op"; "alloc_words_per_op"; "peak_heap_mb"; "setup_s"; "sim_iops";
    "sim_read_trimmed_mean_us"; "sim_read_tail_us"; "sim_write_p50_us"; "sim_write_tail_us";
    "data_reduction"; "write_amp"; "failover_sim_ms";
  ]

(* ---------- output ---------- *)

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-36s %16.6g %s\n" x.name x.value x.unit_) ms

let print_checks checks =
  Printf.printf "workload self-checks:\n";
  List.iter (fun (label, ok) -> Printf.printf "  [%s] %s\n" (if ok then "ok" else "FAIL") label) checks

let json_result ~correct ~attempted ~failed ms =
  let metric x = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_ in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric ms))

(* ---------- main ---------- *)

let usage = "perfbench --workload (rand-rw|ingest|vdi) --seed N --seconds S --trace (0|1)"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME rand-rw, ingest or vdi");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S run length (sets the op count)");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let spec =
    match Spec.find !workload with
    | Some s -> s
    | None ->
      prerr_endline usage;
      exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let seed = Int64.of_int !seed in
  let ops = spec.ops_per_second * !seconds in
  Printf.printf "perfbench %s: seed %Ld, %d ops, %d outstanding, trace %d\n%!" spec.name seed ops
    Loop.outstanding !trace;
  let setup () =
    Gc.compact ();
    let t0 = Wall.now_ns () in
    let ctx = spec.setup ~seed ~ops in
    (ctx, float_of_int (Wall.now_ns () - t0) /. 1e9)
  in
  let finish ~correct ~attempted ~failed ms =
    print_endline (json_result ~correct ~attempted ~failed ms);
    exit (if correct then 0 else 1)
  in
  if !trace = 0 then begin
    let rec setup_n i acc =
      let ctx, s = setup () in
      if i = 1 then (ctx, s :: acc) else setup_n (i - 1) (s :: acc)
    in
    let ctx, setup_times = setup_n setups [] in
    let p = timed_phase spec ctx ~seed ~ops in
    Gc.compact ();
    let tl = failover_tail ctx ~seed in
    let failed = p.c.errors + p.c.wrong + tl.t.errors + tl.t.wrong in
    let attempted = p.ops + tl.t.completed in
    let ms =
      end_to_end p tl ~setup_s:(Samples.median_of setup_times) ~failed ~attempted
    in
    Printf.printf "timed phase: %d ops (%d reads, %d writes) in %.2f s host, %.3f s simulated\n"
      p.ops p.c.reads p.c.writes (float_of_int p.wall_ns /. 1e9) (p.sim_us /. 1e6);
    Printf.printf "tail percentile: p%g\n" tail_pct;
    let summary label lat =
      Printf.printf "  sim %s latency (us, %d samples): %s\n" label (Samples.count lat)
        (String.concat " "
           (List.map
              (fun q -> Printf.sprintf "p%g=%.1f" q (Samples.percentile lat q))
              [ 50.0; 90.0; 95.0; 99.0; 99.9 ]))
    in
    summary "read" p.c.read_lat;
    summary "write" p.c.write_lat;
    Printf.printf "space at the end of the timed phase: %.1f MiB live logical, %.1f MiB physical used\n"
      (reg_float p.reg1 "array/live_logical_bytes" /. 1048576.0)
      (reg_float p.reg1 "array/physical_bytes_used" /. 1048576.0);
    Printf.printf "failover tail: %d cycles (host ms: %s), %d durability re-reads\n"
      (List.length tl.fo_wall_ms)
      (String.concat " " (List.rev_map (Printf.sprintf "%.1f") tl.fo_wall_ms))
      tl.t.completed;
    print_metrics "end-to-end metrics:" ms;
    let checks = self_checks spec p ~depth:(sampled_depth ctx ~seed) in
    print_checks checks;
    let correct = failed = 0 && List.for_all snd checks in
    finish ~correct ~attempted ~failed (List.filter (fun x -> List.mem x.name gated) ms)
  end
  else begin
    (* the untraced reference for trace.overhead_pct, then the traced run *)
    let untraced_wall_ns =
      let ctx, _ = setup () in
      (timed_phase spec ctx ~seed ~ops).wall_ns
    in
    let ctx, _ = setup () in
    let tr = Trace.create () in
    Trace.install tr (Fa.tracer ctx.fa);
    Kernel_stats.reset ();
    Kernel_stats.set_clock (Some Wall.now_ns);
    ctx.time_steps <- true;
    let p = timed_phase spec ctx ~seed ~ops in
    ctx.time_steps <- false;
    Kernel_stats.set_clock None;
    let kernels = read_kernels () in
    Purity_telemetry.Span.set_sink (Fa.tracer ctx.fa) None;
    let tl = failover_tail ctx ~seed ~on_failover:(fun () -> Trace.absorb tr (Fa.tracer ctx.fa)) in
    let r0 = Wall.now_ns () in
    let rp = replay spec ctx ~seed ~ops in
    let replay_ns = Wall.now_ns () - r0 in
    (* a workload whose timed phase runs no GC gets one pass over its
       final state, so the GC pass costs are measured on every workload *)
    let gc_probe =
      if p.gc_passes <> [] then []
      else begin
        let w0 = Wall.now_ns () in
        let r = Loop.await ctx (Fa.gc ctx.fa) in
        [ (r, Wall.us_since w0 /. 1e3) ]
      end
    in
    let rolls = Trace.rollup tr in
    let ms = per_layer p tl tr rp kernels ~gc_probe ~untraced_wall_ns in
    let failed = p.c.errors + p.c.wrong + tl.t.errors + tl.t.wrong in
    let attempted = p.ops + tl.t.completed in
    Printf.printf "span roll-up (simulated us):\n";
    Printf.printf "  %-16s %10s %16s %16s\n" "span" "count" "total" "self";
    List.iter
      (fun (r : Trace.roll) ->
        Printf.printf "  %-16s %10d %16.1f %16.1f\n" r.name r.n r.total_us r.self_us)
      rolls;
    let out_dir = Filename.concat "perfbench" "out" in
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    let path =
      Filename.concat out_dir (Printf.sprintf "trace-%s-seed%Ld.jsonl" spec.name seed)
    in
    Trace.write_jsonl tr rolls ~array_id:spec.name ~path;
    Printf.printf "spans: %d written to %s\n" (List.length tr.spans) path;
    print_metrics "per-layer metrics:" ms;
    let kernel_ns = List.fold_left (fun acc (_, _, ns) -> acc + ns) 0 kernels in
    let submit_ns = p.c.read_submit_ns + p.c.write_submit_ns in
    let budget_ok = kernel_ns + submit_ns + rp.find_ns + rp.resolve_ns <= p.wall_ns + replay_ns in
    let checks =
      self_checks spec p ~depth:(ratio (float_of_int rp.depth_sum) (float_of_int rp.depth_reads))
      @ [
          ( Printf.sprintf
              "kernel %.3f s + submit %.3f s + replay %.3f s <= traced wall %.3f s"
              (float_of_int kernel_ns /. 1e9) (float_of_int submit_ns /. 1e9)
              (float_of_int (rp.find_ns + rp.resolve_ns) /. 1e9)
              (float_of_int (p.wall_ns + replay_ns) /. 1e9),
            budget_ok );
        ]
    in
    print_checks checks;
    let correct = failed = 0 && List.for_all snd checks in
    finish ~correct ~attempted ~failed ms
  end
