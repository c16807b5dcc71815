module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module Recovery = Purity_core.Recovery
module Rng = Purity_util.Rng

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let bs = Fa.block_size

(* Small geometry: 6 drives, 3+2, 64 KiB AUs, 8 KiB write units. *)
let test_config =
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
        num_aus = 256;
        dies = 4;
      };
    memtable_flush = 100_000;
  }

let make_array ?(config = test_config) () =
  let clock = Clock.create () in
  let a = Fa.create ~config ~clock () in
  (clock, a)

let await clock f =
  let result = ref None in
  f (fun r -> result := Some r);
  Clock.run clock;
  match !result with Some r -> r | None -> Alcotest.fail "operation never completed"

let ok = function Ok v -> v | Error _ -> Alcotest.fail "unexpected error"

let write_ok clock a ~volume ~block data =
  match await clock (Fa.write a ~volume ~block data) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write failed"

let read_ok clock a ~volume ~block ~nblocks =
  match await clock (Fa.read a ~volume ~block ~nblocks) with
  | Ok data -> data
  | Error _ -> Alcotest.fail "read failed"

let rng = Rng.create ~seed:0xC0DEL
let random_data nblocks = Bytes.to_string (Rng.bytes rng (nblocks * bs))

(* compressible but non-trivial data *)
let textish nblocks =
  let unit = "all work and no play makes jack a dull boy. " in
  let need = nblocks * bs in
  let b = Buffer.create need in
  while Buffer.length b < need do
    Buffer.add_string b unit
  done;
  Buffer.sub b 0 need

(* ---------- volume management ---------- *)

let test_volume_lifecycle () =
  let _clock, a = make_array () in
  ok (Fa.create_volume a "db" ~blocks:256);
  check bool "exists" true (Fa.volume_exists a "db");
  (match Fa.create_volume a "db" ~blocks:10 with
  | Error `Exists -> ()
  | _ -> Alcotest.fail "duplicate accepted");
  check (Alcotest.list (Alcotest.triple Alcotest.string Alcotest.bool int)) "list"
    [ ("db", true, 256) ]
    (List.map (fun (n, k, b) -> (n, k = `Volume, b)) (Fa.list_volumes a));
  ok (Fa.delete_volume a "db");
  check bool "gone" false (Fa.volume_exists a "db")

let test_write_read_roundtrip () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:256);
  let data = random_data 16 in
  write_ok clock a ~volume:"v" ~block:10 data;
  let got = read_ok clock a ~volume:"v" ~block:10 ~nblocks:16 in
  check bool "data back" true (got = data)

let test_unwritten_blocks_read_zero () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:64);
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:8 in
  check bool "zeros" true (got = String.make (8 * bs) '\000')

(* A write NVRAM refuses returns [`Backpressure] without encoding its
   intent: the shelf never sees it, the attempt still consumes its
   sequence number, and the call's major-heap allocation stays far below
   one 32 KiB payload (4096 words), which building the intent would have
   copied straight into the major heap. The refusal still pushes the open
   segio out (it holds the 'S' fact logged at the set-up flush's
   completion), whose own commit record takes the next number. *)
let test_backpressure_write_skips_intent () =
  let module Nvram = Purity_ssd.Nvram in
  let module Seqno = Purity_pyramid.Seqno in
  let config = { test_config with Fa.nvram_capacity = 16 * 1024 } in
  let clock, a = make_array ~config () in
  ok (Fa.create_volume a "v" ~blocks:256);
  await clock (Fa.flush a);
  let nv = Purity_ssd.Shelf.nvram (Fa.shelf a) in
  let seqno = (Fa.state a).Purity_core.State.seqno in
  let seq0 = Seqno.current seqno in
  let used = Nvram.used_bytes nv in
  let records = Nvram.records nv in
  let data = random_data 64 in
  let result = ref None in
  (* this domain's live counters: OCaml 5's [Gc.quick_stat] folds direct
     major allocations in only at minor collections, and sums every
     domain's last sample, so pool lanes' earlier work would leak in *)
  let _, _, major0 = Gc.counters () in
  Fa.write a ~volume:"v" ~block:0 data (fun r -> result := Some r);
  let _, _, major1 = Gc.counters () in
  let major_words = major1 -. major0 in
  check int "NVRAM bytes untouched" used (Nvram.used_bytes nv);
  check bool "NVRAM records untouched" true (Nvram.records nv = records);
  check Alcotest.int64 "intent seqno taken" (Int64.add seq0 1L) (Seqno.current seqno);
  Clock.run clock;
  check bool "backpressure" true (!result = Some (Error `Backpressure));
  check bool "intent never committed" true
    (List.for_all
       (fun (r : Nvram.record) -> r.Nvram.seq <> Int64.add seq0 1L)
       (Nvram.records nv));
  check Alcotest.int64 "then the sealed segio's commit record" (Int64.add seq0 2L)
    (Seqno.current seqno);
  check bool
    (Printf.sprintf "major words %.0f << 4096" major_words)
    true (major_words < 512.0)

(* A namespace op is acknowledged when it returns, and its NVRAM stashes
   are what makes it durable until its segio log records reach the
   drives. With NVRAM filled by writes (the clock never runs, so nothing
   drains), every create either survives a crash and failover or is
   refused [`Busy] without a trace. *)
let test_namespace_op_durable_or_busy () =
  let module Nvram = Purity_ssd.Nvram in
  let module Seqno = Purity_pyramid.Seqno in
  let config = { test_config with Fa.nvram_capacity = 64 * 1024 } in
  let clock, a = make_array ~config () in
  ok (Fa.create_volume a "v" ~blocks:4096);
  await clock (Fa.flush a);
  let nv = Purity_ssd.Shelf.nvram (Fa.shelf a) in
  let block = ref 0 and last = ref (-1) in
  while Nvram.used_bytes nv > !last do
    last := Nvram.used_bytes nv;
    Fa.write a ~volume:"v" ~block:!block (random_data 1) (fun _ -> ());
    incr block
  done;
  let seqno = (Fa.state a).Purity_core.State.seqno in
  let results =
    List.init 10 (fun i ->
        let name = Printf.sprintf "n%d" i in
        let seq0 = Seqno.current seqno and used0 = Nvram.used_bytes nv in
        let listed0 = Fa.list_volumes a in
        let r = Fa.create_volume a name ~blocks:64 in
        (match r with
        | Error `Busy ->
          check Alcotest.int64 "Busy draws no seq" seq0 (Seqno.current seqno);
          check int "Busy stashes nothing" used0 (Nvram.used_bytes nv);
          check bool "Busy lists nothing new" true (Fa.list_volumes a = listed0)
        | _ -> ());
        (name, r))
  in
  Fa.crash a;
  ignore (await clock (Fa.failover a));
  List.iter
    (fun (name, r) ->
      match r with
      | Ok () -> check bool (name ^ " acknowledged, so it survives") true (Fa.volume_exists a name)
      | Error _ -> check bool (name ^ " refused, so it is absent") false (Fa.volume_exists a name))
    results;
  check bool "some create fit in what the writes left" true
    (List.exists (fun (_, r) -> r = Ok ()) results);
  check bool "NVRAM filled up, so some create was refused" true
    (List.exists (fun (_, r) -> r = Error `Busy) results)

let test_overwrite_latest_wins () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:64);
  write_ok clock a ~volume:"v" ~block:0 (String.make (4 * bs) 'a');
  write_ok clock a ~volume:"v" ~block:0 (String.make (4 * bs) 'b');
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:4 in
  check bool "second write wins" true (got = String.make (4 * bs) 'b')

let test_partial_overwrite () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:64);
  let base = random_data 16 in
  write_ok clock a ~volume:"v" ~block:0 base;
  let patch = random_data 2 in
  write_ok clock a ~volume:"v" ~block:5 patch;
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:16 in
  let expect =
    String.sub base 0 (5 * bs) ^ patch ^ String.sub base (7 * bs) (9 * bs)
  in
  check bool "patched view" true (got = expect)

let test_large_write_spans_segments () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:4096);
  (* 512 KiB write: many cblocks, several segios at this geometry *)
  let data = random_data 1024 in
  write_ok clock a ~volume:"v" ~block:0 data;
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:1024 in
  check bool "large roundtrip" true (got = data)

let test_write_errors () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:16);
  (match await clock (Fa.write a ~volume:"nope" ~block:0 (String.make bs 'x')) with
  | Error `No_such_volume -> ()
  | _ -> Alcotest.fail "missing volume");
  (match await clock (Fa.write a ~volume:"v" ~block:0 "short") with
  | Error `Unaligned -> ()
  | _ -> Alcotest.fail "unaligned accepted");
  (match await clock (Fa.write a ~volume:"v" ~block:15 (String.make (2 * bs) 'x')) with
  | Error `Out_of_range -> ()
  | _ -> Alcotest.fail "overflow accepted");
  match await clock (Fa.read a ~volume:"v" ~block:0 ~nblocks:17) with
  | Error `Out_of_range -> ()
  | _ -> Alcotest.fail "read overflow accepted"

(* ---------- snapshots & clones ---------- *)

let test_snapshot_isolation () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:64);
  let original = random_data 8 in
  write_ok clock a ~volume:"v" ~block:0 original;
  ok (Fa.snapshot a ~volume:"v" ~snap:"v@1");
  (* overwrite after snapshot *)
  write_ok clock a ~volume:"v" ~block:0 (String.make (8 * bs) 'n');
  let snap_view = read_ok clock a ~volume:"v@1" ~block:0 ~nblocks:8 in
  let live_view = read_ok clock a ~volume:"v" ~block:0 ~nblocks:8 in
  check bool "snapshot frozen" true (snap_view = original);
  check bool "volume sees new data" true (live_view = String.make (8 * bs) 'n')

let test_snapshot_read_only () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:16);
  ok (Fa.snapshot a ~volume:"v" ~snap:"s");
  match await clock (Fa.write a ~volume:"s" ~block:0 (String.make bs 'x')) with
  | Error `Read_only -> ()
  | _ -> Alcotest.fail "snapshot writable"

let test_clone_shares_then_diverges () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "gold" ~blocks:64);
  let image = textish 32 in
  write_ok clock a ~volume:"gold" ~block:0 image;
  ok (Fa.snapshot a ~volume:"gold" ~snap:"gold@1");
  ok (Fa.clone a ~snapshot:"gold@1" ~volume:"vm1");
  (* the clone reads the shared image *)
  let v = read_ok clock a ~volume:"vm1" ~block:0 ~nblocks:32 in
  check bool "clone sees image" true (v = image);
  (* divergence is private *)
  write_ok clock a ~volume:"vm1" ~block:0 (String.make (2 * bs) 'z');
  let gold = read_ok clock a ~volume:"gold" ~block:0 ~nblocks:2 in
  check bool "gold untouched" true (gold = String.sub image 0 (2 * bs))

let test_many_snapshots_chain () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:16);
  let versions =
    List.init 5 (fun i ->
        let d = String.make (4 * bs) (Char.chr (Char.code 'a' + i)) in
        write_ok clock a ~volume:"v" ~block:0 d;
        ok (Fa.snapshot a ~volume:"v" ~snap:(Printf.sprintf "v@%d" i));
        d)
  in
  List.iteri
    (fun i d ->
      let got = read_ok clock a ~volume:(Printf.sprintf "v@%d" i) ~block:0 ~nblocks:4 in
      check bool (Printf.sprintf "snapshot %d intact" i) true (got = d))
    versions

let test_delete_snapshot_keeps_volume () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:16);
  let data = random_data 4 in
  write_ok clock a ~volume:"v" ~block:0 data;
  ok (Fa.snapshot a ~volume:"v" ~snap:"s");
  ok (Fa.delete_snapshot a "s");
  check bool "snapshot gone" false (Fa.volume_exists a "s");
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:4 in
  check bool "volume data intact" true (got = data)

(* ---------- data reduction ---------- *)

let test_compression_reduces_stored_bytes () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  write_ok clock a ~volume:"v" ~block:0 (textish 512);
  let s = Fa.stats a in
  check bool "stored << logical" true
    (s.Fa.stored_bytes_written * 3 < s.Fa.logical_bytes_written)

let test_dedup_absorbs_identical_writes () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:4096);
  let image = random_data 64 in
  write_ok clock a ~volume:"v" ~block:0 image;
  let stored_after_first = (Fa.stats a).Fa.stored_bytes_written in
  (* the same image at 9 more places (VDI-style) *)
  for i = 1 to 9 do
    write_ok clock a ~volume:"v" ~block:(i * 64) image
  done;
  let s = Fa.stats a in
  check bool "dedup found blocks" true (s.Fa.dedup_blocks >= 9 * 56);
  check bool "stored grew sub-linearly" true
    (s.Fa.stored_bytes_written < 3 * stored_after_first);
  (* and the data is still correct everywhere *)
  for i = 0 to 9 do
    let got = read_ok clock a ~volume:"v" ~block:(i * 64) ~nblocks:64 in
    check bool (Printf.sprintf "copy %d intact" i) true (got = image)
  done

let test_dedup_disabled_config () =
  let clock, a =
    make_array ~config:{ test_config with Fa.inline_dedup = false } ()
  in
  ok (Fa.create_volume a "v" ~blocks:1024);
  let image = random_data 64 in
  write_ok clock a ~volume:"v" ~block:0 image;
  write_ok clock a ~volume:"v" ~block:64 image;
  check int "no dedup" 0 (Fa.stats a).Fa.dedup_blocks

(* ---------- fault tolerance ---------- *)

let test_reads_through_two_drive_failures () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  let data = random_data 256 in
  write_ok clock a ~volume:"v" ~block:0 data;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  Fa.pull_drive a 0;
  Fa.pull_drive a 3;
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:256 in
  check bool "all data through double failure" true (got = data)

let test_writes_continue_after_drive_pull () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  Fa.pull_drive a 2;
  let data = random_data 64 in
  write_ok clock a ~volume:"v" ~block:0 data;
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:64 in
  check bool "degraded write ok" true (got = data)

let test_rebuild_drive () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  let data = random_data 128 in
  write_ok clock a ~volume:"v" ~block:0 data;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  Fa.pull_drive a 1;
  let rebuilt = await clock (fun k -> Fa.rebuild_drive a 1 (fun n -> k n)) in
  check bool "segments rebuilt" true (rebuilt > 0);
  (* now pull two MORE drives: data must still be served because nothing
     depends on drive 1 anymore *)
  Fa.pull_drive a 2;
  Fa.pull_drive a 4;
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:128 in
  check bool "redundancy restored" true (got = data)

(* ---------- recovery & failover ---------- *)

let test_failover_preserves_acked_writes () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:256);
  let d1 = random_data 32 and d2 = random_data 8 in
  write_ok clock a ~volume:"v" ~block:0 d1;
  write_ok clock a ~volume:"v" ~block:100 d2;
  (* crash with data still in NVRAM/open segio *)
  Fa.crash a;
  (match await clock (Fa.read a ~volume:"v" ~block:0 ~nblocks:1) with
  | Error `Offline -> ()
  | _ -> Alcotest.fail "crashed array served a read");
  let report = await clock (fun k -> Fa.failover a k) in
  check bool "came back" true (Fa.is_online a);
  check bool "not cold" true (not report.Recovery.cold);
  let got1 = read_ok clock a ~volume:"v" ~block:0 ~nblocks:32 in
  let got2 = read_ok clock a ~volume:"v" ~block:100 ~nblocks:8 in
  check bool "write 1 survived" true (got1 = d1);
  check bool "write 2 survived" true (got2 = d2)

let test_failover_after_checkpoint () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  let d1 = random_data 128 in
  write_ok clock a ~volume:"v" ~block:0 d1;
  ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r)));
  (* more writes after the checkpoint *)
  let d2 = random_data 16 in
  write_ok clock a ~volume:"v" ~block:512 d2;
  Fa.crash a;
  ignore (await clock (fun k -> Fa.failover a k));
  check bool "pre-checkpoint data" true (read_ok clock a ~volume:"v" ~block:0 ~nblocks:128 = d1);
  check bool "post-checkpoint data" true
    (read_ok clock a ~volume:"v" ~block:512 ~nblocks:16 = d2)

let test_failover_preserves_snapshots_and_volumes () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:64);
  let original = random_data 8 in
  write_ok clock a ~volume:"v" ~block:0 original;
  ok (Fa.snapshot a ~volume:"v" ~snap:"v@1");
  write_ok clock a ~volume:"v" ~block:0 (String.make (8 * bs) 'n');
  ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r)));
  Fa.crash a;
  ignore (await clock (fun k -> Fa.failover a k));
  check bool "volumes restored" true (Fa.volume_exists a "v" && Fa.volume_exists a "v@1");
  let snap_view = read_ok clock a ~volume:"v@1" ~block:0 ~nblocks:8 in
  check bool "snapshot content survived failover" true (snap_view = original)

let test_double_failover () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:64);
  let d = random_data 8 in
  write_ok clock a ~volume:"v" ~block:0 d;
  ignore (await clock (fun k -> Fa.failover a k));
  write_ok clock a ~volume:"v" ~block:8 d;
  ignore (await clock (fun k -> Fa.failover a k));
  check bool "both writes alive after two failovers" true
    (read_ok clock a ~volume:"v" ~block:0 ~nblocks:8 = d
    && read_ok clock a ~volume:"v" ~block:8 ~nblocks:8 = d)

(* A boot region that no longer decodes must not be mistaken for a
   factory-fresh array (which would skip the scan and lose everything):
   recovery falls back to a full header scan with no checkpoint, and
   every durably stored write comes back via log replay. *)
let test_corrupt_boot_region_falls_back_to_full_scan () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  let d1 = random_data 128 in
  write_ok clock a ~volume:"v" ~block:0 d1;
  ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r)));
  let d2 = random_data 16 in
  write_ok clock a ~volume:"v" ~block:512 d2;
  Fa.crash a;
  Purity_core.Boot_region.write
    (Fa.state a).Purity_core.State.boot "not a boot blob" (fun () -> ());
  Clock.run clock;
  let report = await clock (fun k -> Fa.failover a k) in
  check bool "not treated as factory-fresh" true (not report.Recovery.cold);
  check bool "fell back to scanning headers" true (report.Recovery.headers_scanned > 0);
  check bool "checkpointed data survived via log replay" true
    (read_ok clock a ~volume:"v" ~block:0 ~nblocks:128 = d1);
  check bool "post-checkpoint data survived" true
    (read_ok clock a ~volume:"v" ~block:512 ~nblocks:16 = d2)

let test_frontier_recovery_faster_than_full () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:2048);
  write_ok clock a ~volume:"v" ~block:0 (random_data 512);
  ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r)));
  write_ok clock a ~volume:"v" ~block:1024 (random_data 16);
  Fa.crash a;
  let r_frontier = await clock (fun k -> Fa.failover ~mode:Recovery.Frontier_scan a k) in
  Fa.crash a;
  let r_full = await clock (fun k -> Fa.failover ~mode:Recovery.Full_scan a k) in
  check bool
    (Printf.sprintf "frontier %.0fus vs full %.0fus" r_frontier.Recovery.duration_us
       r_full.Recovery.duration_us)
    true
    (r_frontier.Recovery.duration_us *. 2.0 < r_full.Recovery.duration_us);
  check bool "frontier scanned far fewer headers" true
    (r_frontier.Recovery.headers_scanned * 4 < r_full.Recovery.headers_scanned)

let test_availability_accounting () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:64);
  write_ok clock a ~volume:"v" ~block:0 (random_data 8);
  Clock.advance clock 1e7;
  Fa.crash a;
  ignore (await clock (fun k -> Fa.failover a k));
  Clock.advance clock 1e7;
  let s = Fa.stats a in
  check bool "high availability" true (s.Fa.availability > 0.99 && s.Fa.availability <= 1.0)

(* ---------- GC ---------- *)

let test_gc_reclaims_overwritten_space () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:2048);
  (* write then overwrite everything, twice: most early segments are dead *)
  for _ = 1 to 3 do
    let d = random_data 1024 in
    write_ok clock a ~volume:"v" ~block:0 d
  done;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let used_before = (Fa.stats a).Fa.physical_bytes_used in
  let report = await clock (fun k -> Fa.gc ~min_dead_ratio:0.2 ~max_victims:64 a (fun r -> k r)) in
  check bool "victims found" true (report.Purity_core.Gc.victims <> []);
  let used_after = (Fa.stats a).Fa.physical_bytes_used in
  check bool
    (Printf.sprintf "space reclaimed (%d -> %d)" used_before used_after)
    true (used_after < used_before);
  (* data still correct after GC *)
  let s = Fa.stats a in
  check bool "reduction sane" true (s.Fa.data_reduction > 0.0)

let test_gc_preserves_data () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:512);
  let keep = random_data 64 in
  write_ok clock a ~volume:"v" ~block:0 keep;
  (* churn elsewhere to create dead segments *)
  for _ = 1 to 4 do
    write_ok clock a ~volume:"v" ~block:128 (random_data 128)
  done;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  ignore (await clock (fun k -> Fa.gc ~min_dead_ratio:0.1 ~max_victims:64 a (fun r -> k r)));
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:64 in
  check bool "live data survived GC" true (got = keep)

let test_delete_volume_then_gc_reclaims () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "temp" ~blocks:2048);
  write_ok clock a ~volume:"temp" ~block:0 (random_data 2048);
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let used_full = (Fa.stats a).Fa.physical_bytes_used in
  ok (Fa.delete_volume a "temp");
  (* elision makes the facts dead; GC reclaims the segments *)
  ignore (await clock (fun k -> Fa.gc ~min_dead_ratio:0.5 ~max_victims:128 a (fun r -> k r)));
  let used_after = (Fa.stats a).Fa.physical_bytes_used in
  (* the volume's data segments come back; a handful of segments of GC /
     checkpoint bookkeeping remain *)
  check bool
    (Printf.sprintf "deleted volume reclaimed (%d -> %d)" used_full used_after)
    true
    (used_after * 2 < used_full)

let test_gc_after_failover () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:256);
  for _ = 1 to 3 do
    write_ok clock a ~volume:"v" ~block:0 (random_data 128)
  done;
  ignore (await clock (fun k -> Fa.failover a k));
  ignore (await clock (fun k -> Fa.gc ~min_dead_ratio:0.2 ~max_victims:32 a (fun r -> k r)));
  let s = Fa.stats a in
  check bool "array functional after failover+gc" true (s.Fa.segments_live > 0)

(* ---------- scrub ---------- *)

let test_scrub_clean_array () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:256);
  write_ok clock a ~volume:"v" ~block:0 (random_data 128);
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let r = await clock (fun k -> Fa.scrub a (fun r -> k r)) in
  check bool "segments checked" true (r.Purity_core.Scrub.segments_checked > 0);
  check int "no corruption on fresh flash" 0 r.Purity_core.Scrub.corrupt_members

let test_scrub_repairs_worn_flash () =
  let config =
    {
      test_config with
      Fa.drive_config =
        { test_config.Fa.drive_config with Purity_ssd.Drive.retention_mean_us = 5e8 };
    }
  in
  let clock, a = make_array ~config () in
  ok (Fa.create_volume a "v" ~blocks:512);
  let data = random_data 256 in
  write_ok clock a ~volume:"v" ~block:0 data;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  (* wear the flash to its rating, then age it enough that a noticeable
     fraction of pages leak but rows remain reconstructable *)
  Array.iter
    (fun d -> Purity_ssd.Drive.wear_to d ~pe:3000)
    (Purity_ssd.Shelf.drives (Fa.shelf a));
  Clock.advance clock 3e7;
  let r = await clock (fun k -> Fa.scrub a (fun r -> k r)) in
  check bool "scrub found corruption" true (r.Purity_core.Scrub.corrupt_members > 0);
  check bool "scrub relocated" true (r.Purity_core.Scrub.segments_relocated > 0);
  (* the data survives because scrub rewrote it before total loss *)
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:256 in
  check bool "data repaired" true (got = data)

(* ---------- data reduction stats ---------- *)

let test_data_reduction_ratio_vdi_like () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "gold" ~blocks:256);
  write_ok clock a ~volume:"gold" ~block:0 (textish 256);
  ok (Fa.snapshot a ~volume:"gold" ~snap:"gold@1");
  for i = 1 to 8 do
    ok (Fa.clone a ~snapshot:"gold@1" ~volume:(Printf.sprintf "vm%d" i))
  done;
  (* clones share everything: provisioned virtual space is ~9x physical *)
  let s = Fa.stats a in
  check bool "provisioning ratio" true
    (s.Fa.provisioned_virtual_bytes > 5 * s.Fa.live_logical_bytes)

(* ---------- read cache & secondary warming (paper 4.3) ---------- *)

let test_cache_hits_speed_up_rereads () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:256);
  let d = random_data 64 in
  write_ok clock a ~volume:"v" ~block:0 d;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  (* first read fills the cache, second hits it *)
  ignore (read_ok clock a ~volume:"v" ~block:0 ~nblocks:64);
  let t0 = Clock.now clock in
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:64 in
  let hit_latency = Clock.now clock -. t0 in
  check bool "cached read correct" true (got = d);
  let s = Fa.stats a in
  check bool "cache hits recorded" true (s.Fa.cache_hits > 0);
  check bool (Printf.sprintf "hit is DRAM speed (%.1f us)" hit_latency) true
    (hit_latency < 50.0)

(* The cache keeps decoded cblocks: a hit copies slices out of one, with
   no CRC and no decompression. Compressible data, so the cblocks are
   stored Lz and a decode would show in the LZ counter. *)
let test_cache_hit_skips_decode () =
  let module Ks = Purity_util.Kernel_stats in
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:256);
  let d = textish 64 in
  write_ok clock a ~volume:"v" ~block:0 d;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let lz0 = Ks.lz_decompress.Ks.bytes in
  check bool "miss read correct" true (read_ok clock a ~volume:"v" ~block:0 ~nblocks:64 = d);
  check bool "miss decompressed" true (Ks.lz_decompress.Ks.bytes > lz0);
  let lz1 = Ks.lz_decompress.Ks.bytes and crc1 = Ks.crc.Ks.bytes in
  let s1 = Fa.stats a in
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:64 in
  let s2 = Fa.stats a in
  check bool "hit read correct" true (got = d);
  check bool "served by hits" true (s2.Fa.cache_hits > s1.Fa.cache_hits);
  check int "no misses" s1.Fa.cache_misses s2.Fa.cache_misses;
  check int "no decompression on a hit" lz1 Ks.lz_decompress.Ks.bytes;
  check int "no CRC on a hit" crc1 Ks.crc.Ks.bytes

let test_cache_disabled () =
  let clock, a = make_array ~config:{ test_config with Fa.read_cache_entries = 0 } () in
  ok (Fa.create_volume a "v" ~blocks:64);
  write_ok clock a ~volume:"v" ~block:0 (random_data 16);
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  ignore (read_ok clock a ~volume:"v" ~block:0 ~nblocks:16);
  ignore (read_ok clock a ~volume:"v" ~block:0 ~nblocks:16);
  check int "no hits when disabled" 0 (Fa.stats a).Fa.cache_hits

let test_cache_serves_fresh_data_after_overwrite () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:64);
  write_ok clock a ~volume:"v" ~block:0 (random_data 16);
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  ignore (read_ok clock a ~volume:"v" ~block:0 ~nblocks:16);
  (* overwrite: new facts point at a new cblock, so the stale cache entry
     is unreachable *)
  let fresh = random_data 16 in
  write_ok clock a ~volume:"v" ~block:0 fresh;
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:16 in
  check bool "overwrite wins over cache" true (got = fresh)

let test_secondary_warming_preserves_hits () =
  let module Ks = Purity_util.Kernel_stats in
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:512);
  (* Raw and Lz cblocks both reach the spare's cache *)
  let d = random_data 128 ^ textish 128 in
  write_ok clock a ~volume:"v" ~block:0 d;
  ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r)));
  (* warm the working set *)
  ignore (read_ok clock a ~volume:"v" ~block:0 ~nblocks:256);
  Fa.crash a;
  ignore (await clock (fun k -> Fa.failover a k));
  let lz0 = Ks.lz_decompress.Ks.bytes in
  let t0 = Clock.now clock in
  let got = read_ok clock a ~volume:"v" ~block:0 ~nblocks:256 in
  let warm_latency = Clock.now clock -. t0 in
  check bool "data intact" true (got = d);
  let s = Fa.stats a in
  check bool "spare took over warm" true (s.Fa.cache_hits > 0);
  check int "every fetch a warm hit" 0 s.Fa.cache_misses;
  check int "hits decompress nothing" lz0 Ks.lz_decompress.Ks.bytes;
  check bool (Printf.sprintf "warm post-failover read fast (%.1f us)" warm_latency) true
    (warm_latency < 100.0)

let test_cold_failover_without_warming () =
  let clock, a =
    make_array ~config:{ test_config with Fa.secondary_warming = false } ()
  in
  ok (Fa.create_volume a "v" ~blocks:512);
  write_ok clock a ~volume:"v" ~block:0 (random_data 256);
  ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r)));
  ignore (read_ok clock a ~volume:"v" ~block:0 ~nblocks:256);
  Fa.crash a;
  ignore (await clock (fun k -> Fa.failover a k));
  ignore (read_ok clock a ~volume:"v" ~block:0 ~nblocks:256);
  let s = Fa.stats a in
  check int "cold spare misses" 0 s.Fa.cache_hits

(* ---------- 4.6: inferred transfer sizes ---------- *)

let test_inference_tracks_write_size () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "db" ~blocks:4096);
  check (Alcotest.option int) "default before evidence" (Some 64)
    (Fa.inferred_io_blocks a "db");
  (* an 8 KiB-page database *)
  for i = 0 to 39 do
    write_ok clock a ~volume:"db" ~block:(i * 16) (random_data 16)
  done;
  check (Alcotest.option int) "inferred 16-block pages" (Some 16)
    (Fa.inferred_io_blocks a "db")

let test_inference_sizes_cblocks_for_single_fetch_reads () =
  let config = { test_config with Fa.read_cache_entries = 0 } in
  let clock, a = make_array ~config () in
  ok (Fa.create_volume a "db" ~blocks:4096);
  (* train the observer, then write the block we will measure *)
  for i = 0 to 39 do
    write_ok clock a ~volume:"db" ~block:(i * 16) (random_data 16)
  done;
  write_ok clock a ~volume:"db" ~block:2048 (random_data 16);
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let st = Fa.state a in
  let before = (Purity_sched.Io.stats st.Purity_core.State.io).Purity_sched.Io.chunk_reads in
  ignore (read_ok clock a ~volume:"db" ~block:2048 ~nblocks:16);
  let after = (Purity_sched.Io.stats st.Purity_core.State.io).Purity_sched.Io.chunk_reads in
  (* a page-sized read retrieves a single page-sized cblock (at most two
     write-unit chunks when the frame straddles a boundary) — not the
     4+ chunks a 32 KiB cblock would cost *)
  check bool (Printf.sprintf "page read cost %d chunks" (after - before)) true
    (after - before <= 2)

let test_inference_per_volume () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "small" ~blocks:4096);
  ok (Fa.create_volume a "large" ~blocks:4096);
  for i = 0 to 19 do
    write_ok clock a ~volume:"small" ~block:(i * 8) (random_data 8);
    write_ok clock a ~volume:"large" ~block:(i * 64) (random_data 64)
  done;
  check (Alcotest.option int) "small volume" (Some 8) (Fa.inferred_io_blocks a "small");
  check (Alcotest.option int) "large volume" (Some 64) (Fa.inferred_io_blocks a "large")

let test_gc_segregates_shared_cblocks () =
  (* two volumes holding the same image (deduped) plus unique churn; GC
     must report the multiply-referenced cblocks it segregates *)
  let clock, a = make_array () in
  ok (Fa.create_volume a "a" ~blocks:512);
  ok (Fa.create_volume a "b" ~blocks:512);
  let image = random_data 128 in
  write_ok clock a ~volume:"a" ~block:0 image;
  write_ok clock a ~volume:"b" ~block:0 image;
  (* unique churn to create dead space *)
  for _ = 1 to 3 do
    write_ok clock a ~volume:"a" ~block:256 (random_data 128)
  done;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let r = await clock (fun k -> Fa.gc ~min_dead_ratio:0.05 ~max_victims:64 a (fun x -> k x)) in
  check bool "shared cblocks recognised" true (r.Purity_core.Gc.shared_cblocks > 0);
  (* both volumes still read the image *)
  check bool "a intact" true (read_ok clock a ~volume:"a" ~block:0 ~nblocks:128 = image);
  check bool "b intact" true (read_ok clock a ~volume:"b" ~block:0 ~nblocks:128 = image)

(* ---------- p95 hedged reads (4.4) ---------- *)

let test_p95_backup_reads () =
  let config = { test_config with Fa.p95_backup = true; read_cache_entries = 0 } in
  let clock, a = make_array ~config () in
  ok (Fa.create_volume a "v" ~blocks:2048);
  write_ok clock a ~volume:"v" ~block:0 (random_data 1024);
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  (* train the p95 estimator with plenty of reads, then keep reading while
     a flush keeps drives slow; backup reconstructions may fire *)
  for i = 0 to 127 do
    ignore (read_ok clock a ~volume:"v" ~block:(i * 8) ~nblocks:8)
  done;
  (* a concurrent write makes some direct reads slow *)
  let done_w = ref false in
  Fa.write a ~volume:"v" ~block:1024 (random_data 512) (fun _ -> done_w := true);
  for i = 0 to 63 do
    ignore (read_ok clock a ~volume:"v" ~block:(i * 8) ~nblocks:8)
  done;
  Clock.run clock;
  check bool "write completed" true !done_w;
  let io = Purity_sched.Io.stats (Fa.state a).Purity_core.State.io in
  (* the hedge must never lose data and is allowed to fire *)
  check bool "reads all served" true (io.Purity_sched.Io.failures = 0);
  check bool "hedge plumbing alive" true (io.Purity_sched.Io.backup_reads >= 0)

(* ---------- whole-array consistency property ---------- *)

let prop_array_matches_model =
  (* random overlapping writes + reads against a naive byte-array model,
     with periodic flush/gc; every read must match the model exactly *)
  QCheck.Test.make ~name:"array agrees with naive model (no faults)" ~count:12
    QCheck.(int_bound 10_000)
    (fun seed ->
      let clock, a = make_array () in
      (match Fa.create_volume a "v" ~blocks:1024 with Ok () -> () | Error _ -> assert false);
      Rng.with_seed_report ~seed:(Int64.of_int (seed + 77)) @@ fun rng ->
      let model = Bytes.make (1024 * bs) '\000' in
      let okay = ref true in
      for step = 1 to 60 do
        let block = Rng.int rng 960 in
        let nblocks = 1 + Rng.int rng 64 in
        if Rng.int rng 100 < 55 then begin
          let data = Bytes.to_string (Rng.bytes rng (nblocks * bs)) in
          match await clock (Fa.write a ~volume:"v" ~block data) with
          | Ok () -> Bytes.blit_string data 0 model (block * bs) (String.length data)
          | Error `Backpressure -> ()
          | Error _ -> okay := false
        end
        else begin
          match await clock (Fa.read a ~volume:"v" ~block ~nblocks) with
          | Ok got ->
            if got <> Bytes.sub_string model (block * bs) (nblocks * bs) then okay := false
          | Error _ -> okay := false
        end;
        if step mod 20 = 0 then
          ignore (await clock (fun k -> Fa.gc ~min_dead_ratio:0.3 ~max_victims:8 a (fun r -> k r)))
      done;
      !okay)

(* Batched range resolution must equal the per-block chain walk on any
   sub-range [b, b+n) of any view, whatever mix of writes, snapshots,
   clones, deletes, GC, checkpoints and failovers built the medium
   chains and the block index underneath. *)
let prop_resolve_range_matches_per_block =
  let module State = Purity_core.State in
  QCheck.Test.make ~name:"resolve_range = per-block resolve_block on random sub-ranges"
    ~count:25 QCheck.(int_bound 10_000)
    (fun seed ->
      let clock, a = make_array () in
      Rng.with_seed_report ~seed:(Int64.of_int (seed + 191)) @@ fun rng ->
      ok (Fa.create_volume a "v0" ~blocks:384);
      let next_name = ref 0 in
      let fresh () =
        incr next_name;
        Printf.sprintf "n%d" !next_name
      in
      let pick l = List.nth l (Rng.int rng (List.length l)) in
      let views kind = List.filter (fun (_, k, _) -> k = kind) (Fa.list_volumes a) in
      let sub_range_agrees st ~medium ~blocks =
        let block = Rng.int rng blocks in
        let nblocks = 1 + Rng.int rng (blocks - block) in
        let batched = State.resolve_range st ~medium ~block ~nblocks in
        Array.for_all Fun.id
          (Array.mapi (fun i r -> r = State.resolve_block st ~medium ~block:(block + i)) batched)
      in
      (* three random sub-ranges of every view *)
      let agrees () =
        let st = Fa.state a in
        List.for_all
          (fun (name, _, blocks) ->
            let medium = (State.Stbl.find st.State.volumes name).State.medium in
            List.for_all (fun _ -> sub_range_agrees st ~medium ~blocks) [ 1; 2; 3 ])
          (Fa.list_volumes a)
      in
      let okay = ref true in
      for _ = 1 to 40 do
        (match views `Volume with
        | [] -> ok (Fa.create_volume a (fresh ()) ~blocks:(64 + Rng.int rng 320))
        | vols -> (
          let name, _, blocks = pick vols in
          match Rng.int rng 100 with
          | r when r < 50 ->
            let block = Rng.int rng blocks in
            let nblocks = 1 + Rng.int rng (min 64 (blocks - block)) in
            (* half incompressible, half a repeated pattern that dedups *)
            let data =
              if Rng.int rng 2 = 0 then Bytes.to_string (Rng.bytes rng (nblocks * bs))
              else String.make (nblocks * bs) (Char.chr (Rng.int rng 4))
            in
            ignore (await clock (Fa.write a ~volume:name ~block data))
          | r when r < 60 -> ignore (Fa.snapshot a ~volume:name ~snap:(fresh ()))
          | r when r < 68 -> (
            match views `Snapshot with
            | [] -> ()
            | snaps ->
              let snap, _, _ = pick snaps in
              ignore (Fa.clone a ~snapshot:snap ~volume:(fresh ())))
          | r when r < 72 -> ignore (Fa.resize_volume a name ~blocks:(blocks + Rng.int rng 64))
          | r when r < 78 -> (
            match pick (Fa.list_volumes a) with
            | victim, `Volume, _ -> ignore (Fa.delete_volume a victim)
            | victim, `Snapshot, _ -> ignore (Fa.delete_snapshot a victim))
          | r when r < 86 ->
            ignore
              (await clock (fun k -> Fa.gc ~min_dead_ratio:0.1 ~max_victims:16 a (fun r -> k r)))
          | r when r < 92 -> ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r)))
          | _ ->
            Fa.crash a;
            ignore (await clock (fun k -> Fa.failover a k))));
        if not (agrees ()) then okay := false
      done;
      !okay)

(* ---------- protection policies (automatic snapshots) ---------- *)

module Protection = Purity_core.Protection

let test_protection_cadence_and_retention () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "db" ~blocks:256);
  (* note: a protection policy reschedules itself forever, so these tests
     drive the clock with run_until, never Clock.run *)
  write_ok clock a ~volume:"db" ~block:0 (random_data 8);
  let p = Protection.create a in
  (match Protection.protect p ~volume:"db" { Protection.every_us = 1000.0; keep = 3 } with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "protect failed");
  Clock.run_until clock (Clock.now clock +. 7_500.0);
  (* 7 ticks, keep 3 *)
  check int "seven taken" 7 (Protection.taken p);
  let snaps = Protection.snapshots p ~volume:"db" in
  check (Alcotest.list Alcotest.string) "newest three retained"
    [ "db.auto-5"; "db.auto-6"; "db.auto-7" ] snaps;
  (* expired snapshots are gone; retained ones exist *)
  check bool "auto-1 expired" false (Fa.volume_exists a "db.auto-1");
  check bool "auto-7 exists" true (Fa.volume_exists a "db.auto-7");
  Protection.stop p

let test_protection_snapshot_content () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "db" ~blocks:64);
  let v1 = random_data 8 in
  write_ok clock a ~volume:"db" ~block:0 v1;
  let p = Protection.create a in
  ignore (Protection.protect p ~volume:"db" { Protection.every_us = 1000.0; keep = 2 });
  Clock.run_until clock (Clock.now clock +. 1_500.0);
  (* overwrite after the first automatic snapshot *)
  let wrote = ref false in
  Fa.write a ~volume:"db" ~block:0 (random_data 8) (fun r -> wrote := r = Ok ());
  Clock.run_until clock (Clock.now clock +. 500.0);
  check bool "overwrite acked" true !wrote;
  let got = ref None in
  Fa.read a ~volume:"db.auto-1" ~block:0 ~nblocks:8 (fun r -> got := Some r);
  Clock.run_until clock (Clock.now clock +. 500.0);
  (match !got with
  | Some (Ok data) -> check bool "auto snapshot froze v1" true (data = v1)
  | _ -> Alcotest.fail "snapshot read failed");
  Protection.stop p

let test_protection_unprotect_stops () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "db" ~blocks:64);
  let p = Protection.create a in
  ignore (Protection.protect p ~volume:"db" { Protection.every_us = 1000.0; keep = 2 });
  Clock.run_until clock (Clock.now clock +. 2_500.0);
  let before = Protection.taken p in
  Protection.unprotect p ~volume:"db";
  Clock.run_until clock (Clock.now clock +. 10_000.0);
  check int "no more snapshots" before (Protection.taken p)

let test_protection_errors () =
  let _clock, a = make_array () in
  let p = Protection.create a in
  (match Protection.protect p ~volume:"ghost" { Protection.every_us = 1000.0; keep = 1 } with
  | Error `No_such_volume -> ()
  | _ -> Alcotest.fail "missing volume accepted");
  ok (Fa.create_volume a "db" ~blocks:64);
  ignore (Protection.protect p ~volume:"db" { Protection.every_us = 1000.0; keep = 1 });
  match Protection.protect p ~volume:"db" { Protection.every_us = 1000.0; keep = 1 } with
  | Error `Already -> Protection.stop p
  | _ -> Alcotest.fail "double protect accepted"

(* ---------- flush pipeline ---------- *)

let pending_flushes a =
  let module Registry = Purity_telemetry.Registry in
  match Registry.find (Registry.snapshot (Fa.telemetry a)) "segments/pending_flushes" with
  | Some (Registry.Int n) -> n
  | _ -> Alcotest.fail "segments/pending_flushes not registered"

(* Step the clock until [cond] holds (one event at a time, so the
   caller sees the state the event that made it true left behind). *)
let step_until clock cond =
  while not (cond ()) do
    if not (Clock.step clock) then Alcotest.fail "clock drained first"
  done

(* Paper 4.3/4.4: sealed segios flush one at a time in seal order, and
   each flush trims NVRAM up to the intents its segio holds. Three
   segios, each holding one acked write, are sealed while the first is
   still flushing: the pipeline reports all three pending, the first
   flush trims only its own intent, and the drained pipeline leaves no
   intent at or below the last seal's watermark. *)
let test_sealed_segios_flush_in_seal_order () =
  let module State = Purity_core.State in
  let module Nvram = Purity_ssd.Nvram in
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  await clock (Fa.flush a);
  let st = Fa.state a in
  let nv = Purity_ssd.Shelf.nvram (Fa.shelf a) in
  let holds seq = List.exists (fun (r : Nvram.record) -> r.Nvram.seq = seq) (Nvram.records nv) in
  let none_upto seq =
    List.for_all (fun (r : Nvram.record) -> r.Nvram.seq > seq) (Nvram.records nv)
  in
  (* one acked write, then seal its segio; returns the seal's watermark *)
  let write_and_seal block =
    let acked = ref false in
    Fa.write a ~volume:"v" ~block (random_data 64) (fun r ->
        ignore (ok r);
        acked := true);
    step_until clock (fun () -> !acked);
    let mark = st.State.last_applied_intent in
    State.seal_current st;
    mark
  in
  let w1 = write_and_seal 0 in
  let w2 = write_and_seal 64 in
  let w3 = write_and_seal 128 in
  check int "three sealed segios pending" 3 (pending_flushes a);
  check bool "every intent still in NVRAM" true (holds w1 && holds w2 && holds w3);
  step_until clock (fun () -> pending_flushes a < 3);
  check int "the first flush completes first" 2 (pending_flushes a);
  check bool "it trims only its own intents" true (none_upto w1 && holds w2 && holds w3);
  Clock.run clock;
  check int "pipeline drained" 0 (pending_flushes a);
  check bool "no intent at or below the last watermark" true (none_upto w3)

(* A controller that dies with a segio in flight never finishes flushing
   it, so a flush registered on it afterwards must never report done:
   that acknowledgement would claim durability the drives never got. *)
let test_flush_never_completes_after_crash () =
  let module State = Purity_core.State in
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:256);
  write_ok clock a ~volume:"v" ~block:0 (random_data 64);
  State.seal_current (Fa.state a);
  check int "one segio in flight" 1 (pending_flushes a);
  Fa.crash a;
  let fired = ref false in
  Fa.flush a (fun () -> fired := true);
  Clock.run clock;
  check bool "the dead controller's flush never completes" false !fired

(* ---------- on-media golden ---------- *)

(* Every segio log record and checkpoint blob a fixed workload leaves on
   the drives, digested: the block index's in-memory form may change, its
   bytes on media may not. *)
let media_digest clock a =
  let module State = Purity_core.State in
  let module Segment = Purity_segment.Segment in
  let st = Fa.state a in
  let read meta ~off ~len =
    match await clock (Purity_sched.Io.read st.State.io meta ~off ~len) with
    | Ok b -> b
    | Error _ -> Alcotest.fail "media read failed"
  in
  let buf = Buffer.create 65536 in
  let ids = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) st.State.segment_metas []) in
  List.iter
    (fun id ->
      let meta = Hashtbl.find st.State.segment_metas id in
      if meta.Segment.log_len > 0 then
        List.iter
          (fun (seq, r) -> Printf.bprintf buf "%Ld:%d:%s" seq (String.length r) r)
          (Purity_segment.Writer.decode_log_region
             (read meta ~off:meta.Segment.log_off ~len:meta.Segment.log_len)))
    ids;
  List.iter
    (fun (name, ranges, chunks) ->
      Printf.bprintf buf "%s:%S:" name ranges;
      List.iter
        (fun (m, off, len) ->
          Buffer.add_bytes buf (read (Segment.decode_compact m) ~off ~len))
        chunks)
    st.State.checkpoint_dir;
  (Buffer.length buf, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_media_golden () =
  let clock, a = make_array ~config:{ test_config with Fa.memtable_flush = 64 } () in
  let grng = Rng.create ~seed:0x601DL in
  let data nblocks = Bytes.to_string (Rng.bytes grng (nblocks * bs)) in
  ok (Fa.create_volume a "v" ~blocks:256);
  ok (Fa.create_volume a "w" ~blocks:128);
  for i = 0 to 15 do
    write_ok clock a ~volume:"v" ~block:(i * 16) (data 16)
  done;
  for i = 0 to 7 do
    write_ok clock a ~volume:"w" ~block:(i * 16) (textish 16)
  done;
  for i = 0 to 3 do
    write_ok clock a ~volume:"v" ~block:((i * 32) + 8) (data 8)
  done;
  ok (Fa.snapshot a ~volume:"v" ~snap:"v@1");
  ok (Fa.clone a ~snapshot:"v@1" ~volume:"c");
  write_ok clock a ~volume:"c" ~block:0 (data 16);
  write_ok clock a ~volume:"v" ~block:64 (data 4);
  ok (Fa.delete_volume a "w");
  ignore (await clock (fun k -> Fa.gc ~min_dead_ratio:0.0 ~max_victims:64 a (fun r -> k r)));
  ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r)));
  write_ok clock a ~volume:"v" ~block:100 (data 8);
  await clock (fun k -> Fa.flush a (fun () -> k ()));
  check (Alcotest.pair int Alcotest.string) "log records and checkpoint blobs"
    (24068, "9e8fe7a4c389d26fcda2faaa2bb5ad0e") (media_digest clock a)

let () =
  Alcotest.run "core"
    [
      ( "volumes",
        [
          Alcotest.test_case "lifecycle" `Quick test_volume_lifecycle;
          Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
          Alcotest.test_case "unwritten reads zero" `Quick test_unwritten_blocks_read_zero;
          Alcotest.test_case "overwrite" `Quick test_overwrite_latest_wins;
          Alcotest.test_case "backpressure skips intent" `Quick
            test_backpressure_write_skips_intent;
          Alcotest.test_case "namespace op durable or busy" `Quick
            test_namespace_op_durable_or_busy;
          Alcotest.test_case "partial overwrite" `Quick test_partial_overwrite;
          Alcotest.test_case "large write" `Quick test_large_write_spans_segments;
          Alcotest.test_case "error surface" `Quick test_write_errors;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "isolation" `Quick test_snapshot_isolation;
          Alcotest.test_case "read only" `Quick test_snapshot_read_only;
          Alcotest.test_case "clone diverges" `Quick test_clone_shares_then_diverges;
          Alcotest.test_case "snapshot chain" `Quick test_many_snapshots_chain;
          Alcotest.test_case "delete snapshot" `Quick test_delete_snapshot_keeps_volume;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "compression" `Quick test_compression_reduces_stored_bytes;
          Alcotest.test_case "dedup" `Quick test_dedup_absorbs_identical_writes;
          Alcotest.test_case "dedup disabled" `Quick test_dedup_disabled_config;
          Alcotest.test_case "vdi provisioning" `Quick test_data_reduction_ratio_vdi_like;
        ] );
      ( "faults",
        [
          Alcotest.test_case "two drive failures" `Quick test_reads_through_two_drive_failures;
          Alcotest.test_case "write with pulled drive" `Quick test_writes_continue_after_drive_pull;
          Alcotest.test_case "rebuild drive" `Quick test_rebuild_drive;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "acked writes survive" `Quick test_failover_preserves_acked_writes;
          Alcotest.test_case "after checkpoint" `Quick test_failover_after_checkpoint;
          Alcotest.test_case "snapshots survive" `Quick test_failover_preserves_snapshots_and_volumes;
          Alcotest.test_case "double failover" `Quick test_double_failover;
          Alcotest.test_case "corrupt boot region" `Quick
            test_corrupt_boot_region_falls_back_to_full_scan;
          Alcotest.test_case "frontier faster than full" `Quick
            test_frontier_recovery_faster_than_full;
          Alcotest.test_case "availability accounting" `Quick test_availability_accounting;
        ] );
      ( "gc",
        [
          Alcotest.test_case "reclaims overwrites" `Quick test_gc_reclaims_overwritten_space;
          Alcotest.test_case "preserves data" `Quick test_gc_preserves_data;
          Alcotest.test_case "delete volume reclaim" `Quick test_delete_volume_then_gc_reclaims;
          Alcotest.test_case "after failover" `Quick test_gc_after_failover;
          Alcotest.test_case "segregates shared cblocks" `Quick test_gc_segregates_shared_cblocks;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "clean array" `Quick test_scrub_clean_array;
          Alcotest.test_case "repairs worn flash" `Quick test_scrub_repairs_worn_flash;
        ] );
      ( "sched",
        [ Alcotest.test_case "p95 hedged reads" `Quick test_p95_backup_reads ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_array_matches_model;
          QCheck_alcotest.to_alcotest prop_resolve_range_matches_per_block;
        ] );
      ( "protection",
        [
          Alcotest.test_case "cadence and retention" `Quick test_protection_cadence_and_retention;
          Alcotest.test_case "snapshot content" `Quick test_protection_snapshot_content;
          Alcotest.test_case "unprotect stops" `Quick test_protection_unprotect_stops;
          Alcotest.test_case "errors" `Quick test_protection_errors;
        ] );
      ( "inference",
        [
          Alcotest.test_case "tracks write size" `Quick test_inference_tracks_write_size;
          Alcotest.test_case "single-fetch reads" `Quick
            test_inference_sizes_cblocks_for_single_fetch_reads;
          Alcotest.test_case "per volume" `Quick test_inference_per_volume;
        ] );
      ( "flushing",
        [
          Alcotest.test_case "seal order and NVRAM trim" `Quick
            test_sealed_segios_flush_in_seal_order;
          Alcotest.test_case "crash strands waiters" `Quick
            test_flush_never_completes_after_crash;
        ] );
      ("media", [ Alcotest.test_case "golden" `Quick test_media_golden ]);
      ( "cache",
        [
          Alcotest.test_case "hits speed up rereads" `Quick test_cache_hits_speed_up_rereads;
          Alcotest.test_case "hits skip decode" `Quick test_cache_hit_skips_decode;
          Alcotest.test_case "disabled" `Quick test_cache_disabled;
          Alcotest.test_case "overwrite wins" `Quick test_cache_serves_fresh_data_after_overwrite;
          Alcotest.test_case "secondary warming" `Quick test_secondary_warming_preserves_hits;
          Alcotest.test_case "cold without warming" `Quick test_cold_failover_without_warming;
        ] );
    ]
