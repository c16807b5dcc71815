module Clock = Purity_sim.Clock
module Drive = Purity_ssd.Drive
module Nvram = Purity_ssd.Nvram
module Ftl = Purity_ssd.Ftl
module Shelf = Purity_ssd.Shelf
module Rng = Purity_util.Rng
module Registry = Purity_telemetry.Registry

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let small_config =
  {
    Drive.default_config with
    Drive.au_size = 64 * 1024;
    num_aus = 32;
    page_size = 4096;
    dies = 4;
  }

let make_drive ?(config = small_config) () =
  let clock = Clock.create () in
  let rng = Rng.create ~seed:123L in
  let d = Drive.create ~config ~clock ~rng ~id:0 () in
  (clock, d)

(* Run the clock and return the result delivered by an async op. *)
let await clock f =
  let result = ref None in
  f (fun r -> result := Some r);
  Clock.run clock;
  match !result with Some r -> r | None -> Alcotest.fail "operation never completed"

let test_drive_write_read_roundtrip () =
  let clock, d = make_drive () in
  let data = Bytes.of_string (String.init 8192 (fun i -> Char.chr (i mod 256))) in
  (match await clock (Drive.write_chunk d ~au:0 ~off:0 ~data) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write failed");
  match await clock (fun k -> Drive.read d ~au:0 ~off:0 ~len:8192 k) with
  | Ok got -> check Alcotest.bytes "data back" data got
  | Error _ -> Alcotest.fail "read failed"

let test_drive_unwritten_reads_zero () =
  let clock, d = make_drive () in
  match await clock (fun k -> Drive.read d ~au:5 ~off:100 ~len:64 k) with
  | Ok got -> check Alcotest.bytes "zeros" (Bytes.make 64 '\000') got
  | Error _ -> Alcotest.fail "read failed"

let test_drive_append_only_enforced () =
  let clock, d = make_drive () in
  let data = Bytes.make 4096 'a' in
  ignore (await clock (Drive.write_chunk d ~au:0 ~off:0 ~data));
  (* Rewriting offset 0 without a trim must raise. *)
  match Drive.write_chunk d ~au:0 ~off:0 ~data ignore with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "in-place overwrite accepted"

let test_drive_append_continues () =
  let clock, d = make_drive () in
  let a = Bytes.make 4096 'a' and b = Bytes.make 4096 'b' in
  ignore (await clock (Drive.write_chunk d ~au:0 ~off:0 ~data:a));
  ignore (await clock (Drive.write_chunk d ~au:0 ~off:4096 ~data:b));
  check int "fill" 8192 (Drive.au_fill d ~au:0);
  match await clock (fun k -> Drive.read d ~au:0 ~off:4096 ~len:4096 k) with
  | Ok got -> check Alcotest.bytes "second chunk" b got
  | Error _ -> Alcotest.fail "read failed"

let test_drive_trim_resets_and_wears () =
  let clock, d = make_drive () in
  ignore (await clock (Drive.write_chunk d ~au:0 ~off:0 ~data:(Bytes.make 4096 'x')));
  check int "pe before" 0 (Drive.au_pe_count d ~au:0);
  Drive.trim_au d ~au:0;
  check int "fill reset" 0 (Drive.au_fill d ~au:0);
  check int "pe bumped" 1 (Drive.au_pe_count d ~au:0);
  (* AU is writable again from offset 0. *)
  ignore (await clock (Drive.write_chunk d ~au:0 ~off:0 ~data:(Bytes.make 4096 'y')))

let test_drive_offline_errors () =
  let clock, d = make_drive () in
  Drive.fail d;
  (match await clock (fun k -> Drive.read d ~au:0 ~off:0 ~len:16 k) with
  | Error `Offline -> ()
  | _ -> Alcotest.fail "expected Offline");
  Drive.restore d;
  match await clock (fun k -> Drive.read d ~au:0 ~off:0 ~len:16 k) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "restored drive should serve"

let test_drive_replace_clears () =
  let clock, d = make_drive () in
  ignore (await clock (Drive.write_chunk d ~au:0 ~off:0 ~data:(Bytes.make 4096 'x')));
  Drive.wear_to d ~pe:5000;
  Drive.replace d;
  check int "fill cleared" 0 (Drive.au_fill d ~au:0);
  check int "wear cleared" 0 (Drive.au_pe_count d ~au:0)

let test_drive_read_latency_vs_write_stall () =
  (* A read issued while the drive is programming must take much longer
     than an idle-drive read: the latency-spike behaviour of paper 4.4. *)
  let clock, d = make_drive () in
  (* idle read latency *)
  let t0 = Clock.now clock in
  ignore (await clock (fun k -> Drive.read d ~au:1 ~off:0 ~len:4096 k));
  let idle_latency = Clock.now clock -. t0 in
  (* now read while a large write is in flight on the same dies *)
  let data = Bytes.make (64 * 1024) 'w' in
  let t1 = Clock.now clock in
  let write_done = ref false and read_done_at = ref 0.0 in
  Drive.write_chunk d ~au:2 ~off:0 ~data (fun _ -> write_done := true);
  check bool "busy while writing" true (Drive.busy_writing d);
  (* Touch every die by reading the AU being written. *)
  Drive.read d ~au:2 ~off:0 ~len:4096 (fun _ -> read_done_at := Clock.now clock);
  Clock.run clock;
  let stalled_latency = !read_done_at -. t1 in
  check bool "write completed" true !write_done;
  check bool "stalled read at least 3x slower" true (stalled_latency > 3.0 *. idle_latency)

let test_drive_wear_out_corrupts_after_aging () =
  let config = { small_config with Drive.retention_mean_us = 1e6 } in
  let clock, d = make_drive ~config () in
  Drive.wear_to d ~pe:(2 * config.Drive.pe_rating);
  ignore (await clock (Drive.write_chunk d ~au:0 ~off:0 ~data:(Bytes.make 65536 'd')));
  (* age the data far beyond the (shrunken) retention mean *)
  Clock.advance clock 1e9;
  let corrupt = ref 0 in
  for au_off = 0 to 15 do
    match await clock (fun k -> Drive.read d ~au:0 ~off:(au_off * 4096) ~len:4096 k) with
    | Error (`Corrupt _) -> incr corrupt
    | _ -> ()
  done;
  check bool "worn, aged flash loses pages" true (!corrupt > 0)

let test_drive_fresh_flash_never_corrupts () =
  let clock, d = make_drive () in
  ignore (await clock (Drive.write_chunk d ~au:0 ~off:0 ~data:(Bytes.make 65536 'd')));
  Clock.advance clock 1e12;
  let corrupt = ref 0 in
  for au_off = 0 to 15 do
    match await clock (fun k -> Drive.read d ~au:0 ~off:(au_off * 4096) ~len:4096 k) with
    | Error (`Corrupt _) -> incr corrupt
    | _ -> ()
  done;
  check int "no corruption below rating" 0 !corrupt

let test_drive_stats () =
  let clock, d = make_drive () in
  ignore (await clock (Drive.write_chunk d ~au:0 ~off:0 ~data:(Bytes.make 4096 'x')));
  ignore (await clock (fun k -> Drive.read d ~au:0 ~off:0 ~len:4096 k));
  let reg = Registry.create () in
  Drive.register_telemetry d reg;
  let count name = Registry.read_int reg ("ssd/drive0/" ^ name) in
  check int "writes" 1 (count "writes");
  check int "reads" 1 (count "reads");
  check int "bytes written" 4096 (count "bytes_written");
  check int "bytes read" 4096 (count "bytes_read");
  (* the drive owns its cells: a second registry adopts the same counts *)
  let reg' = Registry.create () in
  Drive.register_telemetry d reg';
  check int "adopted by a second registry" 1 (Registry.read_int reg' "ssd/drive0/reads");
  Registry.reset reg;
  check int "reset" 0 (count "reads");
  check int "reset zeroes the shared cell" 0 (Registry.read_int reg' "ssd/drive0/reads")

(* Minor words per counted drive op (a write or a read, each delivered by
   a clock event), after a warm-up op. *)
let drive_op_words f =
  let clock, d = make_drive () in
  f clock d 0;
  let ops = 8 in
  let w0 = Gc.minor_words () in
  for i = 1 to ops do
    f clock d i
  done;
  (Gc.minor_words () -. w0) /. float_of_int ops

let test_drive_counting_allocation () =
  let data = Bytes.make 4096 'c' in
  let write clock d i =
    Drive.write_chunk d ~au:0 ~off:(i * 4096) ~data ignore;
    Clock.run clock
  in
  let read clock d i =
    if i = 0 then write clock d 0;
    Drive.read d ~au:0 ~off:0 ~len:512 ignore;
    Clock.run clock
  in
  (* 47 and 112 words on OCaml 5.1 x86-64: the data copy, the die
     table, the clock event and its closure; counting adds nothing *)
  let w = drive_op_words write and r = drive_op_words read in
  if w > 51. then Alcotest.failf "a counted Drive.write_chunk allocates %.1f words" w;
  if r > 116. then Alcotest.failf "a counted Drive.read allocates %.1f words" r

let test_vertical_parity_repairs_single_page_losses () =
  (* identical wear and age; the parity-equipped drive hides losses the
     plain drive surfaces (single pages per 16-page group), at extra
     latency *)
  let run ~vertical_parity =
    let config = { small_config with Drive.retention_mean_us = 1e6; vertical_parity } in
    let clock, d = make_drive ~config () in
    Drive.wear_to d ~pe:config.Drive.pe_rating;
    ignore (await clock (Drive.write_chunk d ~au:0 ~off:0 ~data:(Bytes.make 65536 'd')));
    (* age for a ~6% per-page loss rate: mostly single losses per group *)
    Clock.advance clock 6e4;
    let corrupt = ref 0 in
    for off = 0 to 15 do
      match await clock (fun k -> Drive.read d ~au:0 ~off:(off * 4096) ~len:4096 k) with
      | Error (`Corrupt _) -> incr corrupt
      | _ -> ()
    done;
    !corrupt
  in
  let plain = run ~vertical_parity:false in
  let protected_ = run ~vertical_parity:true in
  check bool
    (Printf.sprintf "parity hides losses (%d -> %d)" plain protected_)
    true
    (plain > 0 && protected_ < plain)

(* ---------- NVRAM ---------- *)

let commit nv ~seq payload k =
  Nvram.commit nv ~seq ~len:(String.length payload) (fun () -> payload) k

let test_nvram_commit_replay () =
  let clock = Clock.create () in
  let nv = Nvram.create ~clock () in
  let committed = ref 0 in
  for i = 1 to 10 do
    commit nv ~seq:(Int64.of_int i) (Printf.sprintf "record-%d" i)
      (function Ok () -> incr committed | Error `Full -> Alcotest.fail "full")
  done;
  Clock.run clock;
  check int "all committed" 10 !committed;
  check int "all replayable" 10 (List.length (Nvram.records nv))

let test_nvram_trim () =
  let clock = Clock.create () in
  let nv = Nvram.create ~clock () in
  for i = 1 to 10 do
    commit nv ~seq:(Int64.of_int i) "x" ignore
  done;
  Clock.run clock;
  Nvram.trim_upto nv 7L;
  let left = Nvram.records nv in
  check int "three left" 3 (List.length left);
  check Alcotest.int64 "first surviving" 8L (List.hd left).Nvram.seq

let test_nvram_full_backpressure () =
  let clock = Clock.create () in
  let nv = Nvram.create ~capacity:100 ~clock () in
  let full = ref false in
  commit nv ~seq:1L (String.make 80 'a') ignore;
  commit nv ~seq:2L (String.make 80 'b')
    (function Error `Full -> full := true | Ok () -> ());
  Clock.run clock;
  check bool "backpressure" true !full

(* Admission is decided before the payload exists: a refused commit
   never builds it, leaves the log as it was, and reports [`Full] 1 us
   later; an admitted one builds it exactly once. *)
let test_nvram_refusal_skips_builder () =
  let clock = Clock.create () in
  let nv = Nvram.create ~capacity:100 ~clock () in
  let built = ref 0 in
  let build payload () =
    incr built;
    payload
  in
  Nvram.commit nv ~seq:1L ~len:80 (build (String.make 80 'a')) ignore;
  check int "admitted record built once" 1 !built;
  Clock.run clock;
  let used = Nvram.used_bytes nv in
  let records = Nvram.records nv in
  (* 96 of 100 bytes used: even a 4-byte payload (+16) does not fit *)
  let t0 = Clock.now clock in
  let refused_at = ref nan in
  Nvram.commit nv ~seq:2L ~len:4
    (fun () -> Alcotest.fail "refused commit built its payload")
    (function
      | Error `Full -> refused_at := Clock.now clock
      | Ok () -> Alcotest.fail "over-capacity commit admitted");
  check int "used bytes unchanged" used (Nvram.used_bytes nv);
  Clock.run clock;
  check (Alcotest.float 1e-9) "refused 1 us later" (t0 +. 1.0) !refused_at;
  check int "used bytes unchanged after refusal" used (Nvram.used_bytes nv);
  check bool "records unchanged" true (Nvram.records nv = records);
  check int "builder not called again" 1 !built;
  (* a record that exactly fills the device is still admitted *)
  Nvram.trim_upto nv 1L;
  Nvram.commit nv ~seq:3L ~len:84 (build (String.make 84 'c')) ignore;
  check int "exact fit admitted" 100 (Nvram.used_bytes nv);
  check int "exact fit built" 2 !built

let test_nvram_builder_length_checked () =
  let clock = Clock.create () in
  let nv = Nvram.create ~clock () in
  Alcotest.check_raises "declared length must match"
    (Invalid_argument "Nvram.commit: payload length mismatch") (fun () ->
      Nvram.commit nv ~seq:1L ~len:3 (fun () -> "four") ignore);
  check int "nothing appended" 0 (List.length (Nvram.records nv))

let test_nvram_bounded_latency () =
  let clock = Clock.create () in
  let nv = Nvram.create ~latency_us:15.0 ~clock () in
  let t0 = Clock.now clock in
  let done_at = ref 0.0 in
  commit nv ~seq:1L (String.make 512 'p')
    (fun _ -> done_at := Clock.now clock);
  Clock.run clock;
  let latency = !done_at -. t0 in
  check bool "low latency commit" true (latency < 100.0)

(* ---------- FTL baseline ---------- *)

let test_ftl_sequential_no_amplification () =
  let ftl = Ftl.create () in
  let n = Ftl.host_pages ftl in
  for lpn = 0 to n - 1 do
    ignore (Ftl.write ftl ~lpn)
  done;
  check (Alcotest.float 0.01) "first fill WA=1" 1.0 (Ftl.write_amplification ftl)

let test_ftl_random_writes_amplify () =
  Testkit.with_seed_report ~seed:99L (fun rng ->
      let ftl = Ftl.create () in
      let n = Ftl.host_pages ftl in
      (* fill once sequentially, then hammer with random overwrites *)
      for lpn = 0 to n - 1 do
        ignore (Ftl.write ftl ~lpn)
      done;
      for _ = 1 to 3 * n do
        ignore (Ftl.write ftl ~lpn:(Rng.int rng n))
      done;
      let wa = Ftl.write_amplification ftl in
      check bool (Printf.sprintf "random overwrites amplify (wa=%.2f)" wa) true (wa > 1.3))

let test_ftl_gc_latency_spikes () =
  Testkit.with_seed_report ~seed:100L (fun rng ->
      let ftl = Ftl.create () in
      let n = Ftl.host_pages ftl in
      for lpn = 0 to n - 1 do
        ignore (Ftl.write ftl ~lpn)
      done;
      let base = ref 0.0 and worst = ref 0.0 in
      for _ = 1 to 2 * n do
        let l = Ftl.write ftl ~lpn:(Rng.int rng n) in
        base := Float.min (if !base = 0.0 then l else !base) l;
        worst := Float.max !worst l
      done;
      check bool "GC causes >10x latency spikes" true (!worst > 10.0 *. !base))

let test_ftl_stats_consistent () =
  let ftl = Ftl.create () in
  for lpn = 0 to 99 do
    ignore (Ftl.write ftl ~lpn)
  done;
  let reg = Registry.create () in
  Ftl.register_telemetry ftl reg;
  let count name = Registry.read_int reg ("ftl/" ^ name) in
  check int "host writes" 100 (count "host_writes");
  check bool "programs >= host writes" true (count "total_programs" >= count "host_writes")

(* ---------- Shelf ---------- *)

let online shelf =
  List.length
    (List.filter
       (fun i -> Drive.is_online (Shelf.drive shelf i))
       (List.init (Shelf.drive_count shelf) Fun.id))

let test_shelf_basics () =
  Testkit.with_seed_report ~seed:5L (fun rng ->
      let clock = Clock.create () in
      let shelf = Shelf.create ~drive_config:small_config ~clock ~rng ~drives:11 () in
      check int "drive count" 11 (Shelf.drive_count shelf);
      check int "online" 11 (online shelf);
      check int "physical bytes" (11 * 32 * 64 * 1024) (Shelf.physical_bytes shelf))

let test_shelf_pull_and_reinsert () =
  Testkit.with_seed_report ~seed:6L (fun rng ->
      let clock = Clock.create () in
      let shelf = Shelf.create ~drive_config:small_config ~clock ~rng ~drives:11 () in
      Shelf.pull_drive shelf 3;
      Shelf.pull_drive shelf 7;
      check int "two pulled" 9 (online shelf);
      check bool "3 offline" false (Drive.is_online (Shelf.drive shelf 3));
      Shelf.reinsert_drive shelf 3;
      check int "back online" 10 (online shelf))

let test_shelf_distinct_drive_salts () =
  (* Drives must get independent rngs (different corruption draws). *)
  Testkit.with_seed_report ~seed:7L (fun rng ->
      let clock = Clock.create () in
      let shelf = Shelf.create ~drive_config:small_config ~clock ~rng ~drives:3 () in
      check bool "distinct ids" true
        (Drive.id (Shelf.drive shelf 0) <> Drive.id (Shelf.drive shelf 1)
        && Drive.id (Shelf.drive shelf 1) <> Drive.id (Shelf.drive shelf 2)))

let () =
  Alcotest.run "ssd"
    [
      ( "drive",
        [
          Alcotest.test_case "write/read roundtrip" `Quick test_drive_write_read_roundtrip;
          Alcotest.test_case "unwritten reads zero" `Quick test_drive_unwritten_reads_zero;
          Alcotest.test_case "append-only enforced" `Quick test_drive_append_only_enforced;
          Alcotest.test_case "append continues" `Quick test_drive_append_continues;
          Alcotest.test_case "trim resets and wears" `Quick test_drive_trim_resets_and_wears;
          Alcotest.test_case "offline errors" `Quick test_drive_offline_errors;
          Alcotest.test_case "replace clears" `Quick test_drive_replace_clears;
          Alcotest.test_case "read stalls behind writes" `Quick test_drive_read_latency_vs_write_stall;
          Alcotest.test_case "worn flash corrupts with age" `Quick test_drive_wear_out_corrupts_after_aging;
          Alcotest.test_case "fresh flash never corrupts" `Quick test_drive_fresh_flash_never_corrupts;
          Alcotest.test_case "stats" `Quick test_drive_stats;
          Alcotest.test_case "counting allocation" `Quick test_drive_counting_allocation;
          Alcotest.test_case "vertical parity" `Quick
            test_vertical_parity_repairs_single_page_losses;
        ] );
      ( "nvram",
        [
          Alcotest.test_case "commit & replay" `Quick test_nvram_commit_replay;
          Alcotest.test_case "trim" `Quick test_nvram_trim;
          Alcotest.test_case "full backpressure" `Quick test_nvram_full_backpressure;
          Alcotest.test_case "refusal skips builder" `Quick
            test_nvram_refusal_skips_builder;
          Alcotest.test_case "builder length checked" `Quick
            test_nvram_builder_length_checked;
          Alcotest.test_case "bounded latency" `Quick test_nvram_bounded_latency;
        ] );
      ( "ftl",
        [
          Alcotest.test_case "sequential WA=1" `Quick test_ftl_sequential_no_amplification;
          Alcotest.test_case "random writes amplify" `Quick test_ftl_random_writes_amplify;
          Alcotest.test_case "GC latency spikes" `Quick test_ftl_gc_latency_spikes;
          Alcotest.test_case "stats consistent" `Quick test_ftl_stats_consistent;
        ] );
      ( "shelf",
        [
          Alcotest.test_case "basics" `Quick test_shelf_basics;
          Alcotest.test_case "pull and reinsert" `Quick test_shelf_pull_and_reinsert;
          Alcotest.test_case "distinct drives" `Quick test_shelf_distinct_drive_salts;
        ] );
    ]
