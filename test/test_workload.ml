module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module Wl = Purity_workload.Workload
module Dg = Purity_workload.Datagen
module Lz = Purity_compress.Lz
module Disk = Purity_baseline.Disk_array
module Scaleout = Purity_baseline.Scaleout
module Fm = Purity_baseline.Five_minute
module Rb = Purity_baseline.Rollback

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

module Rng = Purity_util.Rng

(* The generators here take scalar seeds; [seeded] makes a failing test
   print the seed it ran under so the run can be reproduced. *)
let seeded seed f = Testkit.with_seed_report ~seed (fun _ -> f ())

(* ---------- Datagen ---------- *)

let dg = Dg.create ~seed:77L

let test_random_incompressible () =
  seeded 77L (fun () ->
    let s = Dg.random dg 8192 in
    check bool "ratio ~1" true (Testkit.lz_ratio s < 1.2))

let test_compressible_hits_target () =
  seeded 77L (fun () ->
    let s = Dg.compressible dg 16384 ~target_ratio:4.0 in
    let r = Testkit.lz_ratio s in
    check bool (Printf.sprintf "ratio %.1f in band" r) true (r > 2.0 && r < 8.0))

let test_rdbms_page_band () =
  seeded 77L (fun () ->
    let s = Dg.rdbms_page dg 16384 in
    let r = Testkit.lz_ratio s in
    check bool (Printf.sprintf "rdbms ratio %.1f in 3-8x" r) true (r >= 2.5 && r <= 10.0))

let test_document_band () =
  seeded 77L (fun () ->
    let s = Dg.document dg 16384 in
    let r = Testkit.lz_ratio s in
    check bool (Printf.sprintf "docstore ratio %.1f ~10x" r) true (r >= 5.0))

let test_vm_images_share_blocks () =
  seeded 77L (fun () ->
    let a = Dg.vm_image dg ~blocks:128 in
    let b = Dg.vm_image dg ~blocks:128 in
    (* count identical 512B blocks at the same offsets across two images *)
    let same = ref 0 in
    for i = 0 to 127 do
      if String.sub a (i * 512) 512 = String.sub b (i * 512) 512 then incr same
    done;
    check bool (Printf.sprintf "%d/128 shared" !same) true (!same > 64))

(* MD5 of every generator's output at odd lengths, in call order on one
   generator so a call's leftover draws show in the next one's bytes. The
   digests were taken from the Buffer-built, boxed-int64 generators; a
   change to how payloads are filled must leave them where they are. *)
let digest_of parts =
  Digest.to_hex
    (Digest.string
       (String.concat "" (List.map (fun s -> Printf.sprintf "%d:%s;" (String.length s) s) parts)))

let golden_datagen =
  [
    ( "random",
      (fun dg -> List.map (Dg.random dg) [ 0; 1; 7; 33; 4099; 32768 ]),
      "7ee03a94a5c951d3f4ae42bb75046740" );
    ( "compressible",
      (fun dg ->
        List.concat_map
          (fun ratio ->
            List.map
              (fun len -> Dg.compressible dg len ~target_ratio:ratio)
              [ 1; 31; 33; 1001; 4097; 32767; 32768 ])
          [ 1.0; 3.0; 1.5; 0.5; 10.0 ]),
      "f2bcd93970f9f103100749746ba6558d" );
    ( "ingest alternation",
      (fun dg ->
        List.init 8 (fun i ->
            if i land 1 = 0 then Dg.random dg 32768
            else Dg.compressible dg 32768 ~target_ratio:3.0)),
      "72c8497b52b56902ea8b850b8b548f8c" );
    ( "vm_image",
      (fun dg -> [ Dg.vm_image dg ~blocks:37; Dg.vm_image dg ~blocks:300 ]),
      "351982c854083b3df7941af7919d0eeb" );
    ( "os_image_block",
      (fun dg -> List.map (Dg.os_image_block dg) [ 0; 17; 255; 256; 1000; -3 ]),
      "898f9daf414b3a1cfc2176fa1731a968" );
    ( "rdbms_page",
      (fun dg -> [ Dg.rdbms_page dg 8192; Dg.rdbms_page dg 16385 ]),
      "ebf6cff9bdff7ac43953b94f517889ca" );
    ( "document",
      (fun dg -> [ Dg.document dg 4099; Dg.document dg 16384 ]),
      "8d8d5f911d66aa32a3d372ab03a80081" );
  ]

let test_datagen_golden () =
  List.iter
    (fun (name, gen, want) ->
      check Alcotest.string name want (digest_of (gen (Dg.create ~seed:2026L))))
    golden_datagen

(* The op streams of the built-in workloads, 2,000 ops each: offsets,
   read/write choice and payload digests. *)
let op_stream_digest wl =
  digest_of
    (List.init 2000 (fun _ ->
         match Wl.next_op wl with
         | Wl.Read { volume; block; nblocks } -> Printf.sprintf "R %s %d %d" volume block nblocks
         | Wl.Write { volume; block; data } ->
           Printf.sprintf "W %s %d %s" volume block (Digest.to_hex (Digest.string data))))

let golden_volumes = [ ("a", 4096); ("b", 1000); ("c", 65536) ]

let golden_workloads =
  [
    ( "uniform 70% reads",
      (fun () ->
        Wl.uniform ~seed:5L ~volumes:golden_volumes ~read_fraction:0.7 ~io_blocks:64 ()),
      "fed58fd7971c86d2e97cd8b7c8ce7c0a" );
    ( "uniform odd io",
      (fun () ->
        Wl.uniform ~seed:6L ~volumes:golden_volumes ~read_fraction:0.25 ~io_blocks:7 ()),
      "7ab11cb28fc830fa54946dbb6b039c09" );
    ( "oltp",
      (fun () -> Wl.oltp ~seed:7L ~volumes:golden_volumes ()),
      "5c51a92ae5cd7a4f3888dc89b6af5e2b" );
    ( "docstore",
      (fun () -> Wl.docstore ~seed:8L ~volumes:golden_volumes ()),
      "bdfd64c81d5e3d7b2a268901a3133e05" );
    ( "vdi",
      (fun () ->
        Wl.vdi ~seed:9L ~volumes:golden_volumes ~datagen:(Dg.create ~seed:10L) ()),
      "21c0e9fc544bfa4137ed468cb4f6104f" );
  ]

let test_workload_golden () =
  List.iter
    (fun (name, make, want) -> check Alcotest.string name want (op_stream_digest (make ())))
    golden_workloads

(* A 32 KiB payload is past the minor heap's size limit, so its buffer
   goes straight to the major heap and what the minor heap sees is the
   generator's own garbage: 6 words per 8 random bytes (24,576 per
   32 KiB) when its state boxed, and a Buffer plus a copy per span. *)
let test_payload_allocation () =
  let dg = Dg.create ~seed:3L in
  List.iter
    (fun (name, gen) ->
      let w = Testkit.words_per_call 20 (fun () -> ignore (Sys.opaque_identity (gen ()))) in
      if w > 16. then Alcotest.failf "Datagen.%s allocates %.1f minor words per 32 KiB" name w)
    [
      ("random", fun () -> Dg.random dg 32768);
      ("compressible", fun () -> Dg.compressible dg 32768 ~target_ratio:3.0);
    ]

(* ---------- Workload runner ---------- *)

let small_config =
  {
    Fa.default_config with
    Fa.drives = 6;
    k = 3;
    m = 2;
    write_unit = 8 * 1024;
    drive_config =
      {
        Purity_ssd.Drive.default_config with
        Purity_ssd.Drive.au_size = 64 * 1024 + 4096;
        num_aus = 512;
        dies = 4;
      };
    memtable_flush = 1_000_000;
  }

let run_workload wl_of ~ops =
  let clock = Clock.create () in
  let a = Fa.create ~config:small_config ~clock () in
  let volumes = [ ("wl0", 4096); ("wl1", 4096) ] in
  Wl.provision a ~volumes;
  let wl = wl_of volumes in
  (a, Testkit.await clock (Wl.run a wl ~ops ~concurrency:8))

let test_uniform_completes_all_ops () =
  seeded 1L (fun () ->
    let _a, r =
      run_workload (fun volumes -> Wl.uniform ~seed:1L ~volumes ~read_fraction:0.5 ~io_blocks:64 ())
        ~ops:200
    in
    check int "all ops" 200 r.Wl.ops;
    check int "no errors" 0 r.Wl.errors;
    check int "split" 200 (r.Wl.read_ops + r.Wl.write_ops);
    check bool "simulated time advanced" true (r.Wl.elapsed_us > 0.0);
    check bool "iops computed" true (r.Wl.iops > 0.0))

let test_oltp_mix () =
  seeded 2L (fun () ->
    let _a, r = run_workload (fun volumes -> Wl.oltp ~seed:2L ~volumes ()) ~ops:400 in
    check int "no errors" 0 r.Wl.errors;
    let read_frac = float_of_int r.Wl.read_ops /. float_of_int r.Wl.ops in
    check bool (Printf.sprintf "read fraction %.2f ~0.7" read_frac) true
      (read_frac > 0.6 && read_frac < 0.8))

let test_oltp_reduces () =
  seeded 3L (fun () ->
    let a, _r = run_workload (fun volumes -> Wl.oltp ~seed:3L ~volumes ()) ~ops:400 in
    let s = Fa.stats a in
    if s.Fa.logical_bytes_written > 0 then
      check bool "rdbms data compresses >2x" true
        (s.Fa.stored_bytes_written * 2 < s.Fa.logical_bytes_written))

let test_vdi_dedups () =
  seeded 9L (fun () ->
    let clock = Clock.create () in
    let a = Fa.create ~config:small_config ~clock () in
    let volumes = [ ("desk0", 4096); ("desk1", 4096); ("desk2", 4096) ] in
    Wl.provision a ~volumes;
    let datagen = Dg.create ~seed:9L in
    let wl = Wl.vdi ~seed:9L ~volumes ~datagen () in
    let r = Testkit.await clock (Wl.run a wl ~ops:300 ~concurrency:4) in
    check int "no errors" 0 r.Wl.errors;
    check bool "vdi writes deduplicate" true ((Fa.stats a).Fa.dedup_blocks > 0))

(* A uniform write op is its op record and a payload filled in place;
   the generator's draws box nothing. *)
let test_uniform_write_allocation () =
  let wl = Wl.uniform ~seed:4L ~volumes:golden_volumes ~read_fraction:0.0 ~io_blocks:64 () in
  let w = Testkit.words_per_call 20 (fun () -> ignore (Sys.opaque_identity (Wl.next_op wl))) in
  if w > 16. then Alcotest.failf "Workload.uniform allocates %.1f minor words per write op" w

(* ---------- Disk array baseline ---------- *)

let test_disk_read_latency_ms () =
  seeded 4L (fun () ->
    let clock = Clock.create () in
    let d = Disk.create ~clock ~seed:4L () in
    let done_ = ref 0 in
    for _ = 1 to 200 do
      Disk.read d ~bytes:32768 (fun () -> incr done_)
    done;
    Clock.run clock;
    check int "all reads" 200 !done_;
    let p50 = Purity_util.Histogram.percentile (Disk.read_lat d) 50.0 in
    (* the paper's Table 1: ~5 ms disk latency *)
    check bool (Printf.sprintf "p50 %.0f us in ms range" p50) true (p50 > 2000.0 && p50 < 15000.0))

let test_disk_writes_cached_then_stall () =
  seeded 5L (fun () ->
    let clock = Clock.create () in
    let d = Disk.create ~clock ~seed:5L () in
    (* the slowest ack so far, timed from submit to completion *)
    let worst_ack = ref 0.0 in
    let write () =
      let t0 = Clock.now clock in
      Disk.write d ~bytes:32768 (fun () ->
          worst_ack := Float.max !worst_ack (Clock.now clock -. t0))
    in
    (* first writes are RAM-speed *)
    write ();
    Clock.run clock;
    let fast = !worst_ack in
    check bool "cached write fast" true (fast < 1000.0);
    (* sustained flood eventually exceeds destage bandwidth *)
    for _ = 1 to 200_000 do
      write ()
    done;
    Clock.run clock;
    let worst = !worst_ack in
    check bool "flooded writes stall" true (worst > 10.0 *. fast))

(* ---------- Scale-out model ---------- *)

let test_scaleout_ratios_match_paper () =
  let rows = Scaleout.table () in
  check int "four deployments" 4 (List.length rows);
  List.iter
    (fun r ->
      (* the paper's estimate: 100-250:1 consolidation ratios *)
      check bool
        (Printf.sprintf "%s ratio %.0f in band" r.Scaleout.deployment.Scaleout.service
           r.Scaleout.nodes_per_array)
        true
        (r.Scaleout.nodes_per_array >= 75.0 && r.Scaleout.nodes_per_array <= 300.0))
    rows;
  (* PNUTS: 1.6M op/s / 200k = 8 arrays, 1000 nodes -> 125:1 *)
  let pnuts = List.hd rows in
  check (Alcotest.float 0.01) "pnuts arrays" 8.0 pnuts.Scaleout.arrays_needed

(* ---------- Five-minute rule ---------- *)

let test_five_minute_shapes () =
  let obj = 55 * 1024 in
  let dimm = Fm.ecc_dimm in
  (* hot data: RAM wins against everything *)
  List.iter
    (fun tier ->
      check bool (tier.Fm.name ^ " loses for 1s data") true
        (Fm.relative_cost tier ~baseline:dimm ~object_bytes:obj ~access_interval_s:1.0 > 1.0))
    [ Fm.purity ~reduction:1.0; Fm.purity ~reduction:10.0; Fm.hard_disk ];
  (* cold data: reduced flash is much cheaper than RAM *)
  check bool "cold 10x flash ≪ RAM" true
    (Fm.relative_cost (Fm.purity ~reduction:10.0) ~baseline:dimm ~object_bytes:obj
       ~access_interval_s:86400.0
    < 0.2)

let test_five_minute_crossovers () =
  let obj = 55 * 1024 in
  let cross tier = Fm.crossover_interval_s tier ~baseline:Fm.ecc_dimm ~object_bytes:obj in
  let c10 = Option.get (cross (Fm.purity ~reduction:10.0)) in
  let c4 = Option.get (cross (Fm.purity ~reduction:4.0)) in
  let c1 = Option.get (cross (Fm.purity ~reduction:1.0)) in
  (* paper's rules of thumb: with reduction, the break-even is minutes to
     half an hour; ordering must hold: more reduction -> earlier *)
  check bool "ordering" true (c10 < c4 && c4 < c1);
  check bool (Printf.sprintf "10x crossover %.0fs under 30min" c10) true (c10 < 1800.0);
  check bool (Printf.sprintf "4x crossover %.0fs under 1h" c4) true (c4 < 3600.0)

let test_five_minute_reduction_monotone () =
  let obj = 55 * 1024 in
  let at tier = Fm.relative_cost tier ~baseline:Fm.ecc_dimm ~object_bytes:obj ~access_interval_s:3600.0 in
  check bool "more reduction = cheaper" true
    (at (Fm.purity ~reduction:10.0) < at (Fm.purity ~reduction:4.0)
    && at (Fm.purity ~reduction:4.0) < at (Fm.purity ~reduction:1.0))

let test_figure7_series_shape () =
  let series = Fm.figure7_series () in
  check int "five curves" 5 (List.length series);
  List.iter
    (fun (_, points) ->
      (* relative cost is non-increasing in access interval *)
      let rec mono = function
        | (_, a) :: ((_, b) :: _ as rest) -> a >= b -. 1e-9 && mono rest
        | _ -> true
      in
      check bool "monotone curves" true (mono points))
    series

(* ---------- Rollback model (5.2.1) ---------- *)

let test_rollback_monotone_in_latency () =
  let p = Rb.default_params in
  let probs = List.map snd (Rb.series p) in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  check bool "monotone" true (mono probs);
  List.iter (fun pr -> check bool "valid probability" true (pr >= 0.0 && pr <= 1.0)) probs

let test_rollback_superlinear () =
  (* 10x latency improvement must buy at least 10x fewer rollbacks *)
  let p = Rb.default_params in
  let imp = Rb.improvement p ~disk_latency_s:0.005 ~flash_latency_s:0.0005 in
  check bool (Printf.sprintf "improvement %.1fx >= 10x" imp) true (imp >= 10.0)

let test_rollback_zero_latency_floor () =
  let p = Rb.default_params in
  let pr = Rb.rollback_probability p ~storage_latency_s:0.0 in
  (* CPU-only hold time still conflicts occasionally, but rarely *)
  check bool "tiny but positive" true (pr > 0.0 && pr < 0.01)

let () =
  Alcotest.run "workload+baseline"
    [
      ( "datagen",
        [
          Alcotest.test_case "random incompressible" `Quick test_random_incompressible;
          Alcotest.test_case "compressible target" `Quick test_compressible_hits_target;
          Alcotest.test_case "rdbms band" `Quick test_rdbms_page_band;
          Alcotest.test_case "document band" `Quick test_document_band;
          Alcotest.test_case "vm images share" `Quick test_vm_images_share_blocks;
          Alcotest.test_case "golden outputs" `Quick test_datagen_golden;
          Alcotest.test_case "payload allocation" `Quick test_payload_allocation;
        ] );
      ( "runner",
        [
          Alcotest.test_case "uniform completes" `Quick test_uniform_completes_all_ops;
          Alcotest.test_case "oltp mix" `Quick test_oltp_mix;
          Alcotest.test_case "oltp reduces" `Quick test_oltp_reduces;
          Alcotest.test_case "vdi dedups" `Quick test_vdi_dedups;
          Alcotest.test_case "golden op streams" `Quick test_workload_golden;
          Alcotest.test_case "uniform write allocation" `Quick test_uniform_write_allocation;
        ] );
      ( "disk_array",
        [
          Alcotest.test_case "read latency ms-class" `Quick test_disk_read_latency_ms;
          Alcotest.test_case "write cache then stall" `Quick test_disk_writes_cached_then_stall;
        ] );
      ( "scaleout",
        [ Alcotest.test_case "paper ratios" `Quick test_scaleout_ratios_match_paper ] );
      ( "five_minute",
        [
          Alcotest.test_case "shapes" `Quick test_five_minute_shapes;
          Alcotest.test_case "crossovers" `Quick test_five_minute_crossovers;
          Alcotest.test_case "reduction monotone" `Quick test_five_minute_reduction_monotone;
          Alcotest.test_case "figure7 series" `Quick test_figure7_series_shape;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "monotone in latency" `Quick test_rollback_monotone_in_latency;
          Alcotest.test_case "superlinear improvement" `Quick test_rollback_superlinear;
          Alcotest.test_case "zero-latency floor" `Quick test_rollback_zero_latency_floor;
        ] );
    ]
