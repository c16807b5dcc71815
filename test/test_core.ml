module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module Recovery = Purity_core.Recovery
module Rng = Purity_util.Rng
module Registry = Purity_telemetry.Registry

(* The write size the array infers for a volume (paper §4.6), in 512 B
   blocks. *)
let inferred_io_blocks a name =
  let module State = Purity_core.State in
  Option.map
    (fun v -> State.inferred_io_blocks v.State.observer)
    (State.Stbl.find_opt (Fa.state a).State.volumes name)

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

(* A member drive pulled while its segio is flushing is re-homed on a
   fresh AU; the AU it leaves must go back to the allocator. Every used AU
   belongs to a segment meta, the open segio or a sealed one, round after
   round. *)
(* A member drive pulled while its segio is still open: the flush remaps
   that member when its turn comes, so the sealed segment lands whole on
   online drives, and both recovery paths agree with the space audit. *)
let test_pulled_member_remapped_at_flush () =
  let module State = Purity_core.State in
  let module Segment = Purity_segment.Segment in
  let module Writer = Purity_segment.Writer in
  let clock, a = make_array ~config:Fa.default_config () in
  ok (Fa.create_volume a "v" ~blocks:8192);
  let rng = Rng.create ~seed:3L in
  let writes = List.init 8 (fun i -> (i * 64, Bytes.to_string (Rng.bytes rng (64 * bs)))) in
  List.iter (fun (block, data) -> write_ok clock a ~volume:"v" ~block data) writes;
  let w =
    match (Fa.state a).State.open_writer with
    | Some w -> w
    | None -> Alcotest.fail "no open segio"
  in
  let victim = (Writer.members w).(0).Segment.drive in
  Fa.pull_drive a victim;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let audit () =
    match Purity_check.Runner.audit_space a with
    | () -> ()
    | exception Purity_check.Suite.Violation msg -> Alcotest.fail msg
  in
  let check_segment when_ =
    match Hashtbl.find_opt (Fa.state a).State.segment_metas (Writer.id w) with
    | None -> Alcotest.fail ("sealed segment missing " ^ when_)
    | Some seg ->
      Array.iter
        (fun (m : Segment.member) ->
          check bool
            (Printf.sprintf "member on drive %d online %s" m.Segment.drive when_)
            true
            (Purity_ssd.Drive.is_online (Purity_ssd.Shelf.drive (Fa.shelf a) m.Segment.drive)))
        seg.Segment.members
  in
  check_segment "after the flush";
  audit ();
  List.iter
    (fun (mode, name) ->
      ignore (await clock (fun k -> Fa.failover ~mode a k));
      check_segment ("after a " ^ name ^ " failover");
      audit ();
      List.iter
        (fun (block, data) ->
          check bool (name ^ " data intact") true
            (read_ok clock a ~volume:"v" ~block ~nblocks:64 = data))
        writes)
    [ (Recovery.Frontier_scan, "frontier-scan"); (Recovery.Full_scan, "full-scan") ]

let test_mid_flush_remap_releases_replaced_au () =
  let module State = Purity_core.State in
  let module Segment = Purity_segment.Segment in
  let module Writer = Purity_segment.Writer in
  let module Allocator = Purity_segment.Allocator in
  let clock, a = make_array ~config:Fa.default_config () in
  ok (Fa.create_volume a "v" ~blocks:8192);
  let rng = Rng.create ~seed:1L in
  let orphan_aus () =
    let st = Fa.state a in
    let members ms = Array.length ms in
    let live =
      Hashtbl.fold (fun _ (seg : Segment.t) n -> n + members seg.Segment.members)
        st.State.segment_metas 0
      + (match st.State.open_writer with Some w -> members (Writer.members w) | None -> 0)
      + List.fold_left
          (fun n (s : State.sealed_segio) -> n + members (Writer.members s.State.w))
          0 st.State.sealed
    in
    Allocator.used_au_count st.State.alloc - live
  in
  for round = 0 to 3 do
    for i = 0 to 40 do
      write_ok clock a ~volume:"v" ~block:(i * 64) (Bytes.to_string (Rng.bytes rng (64 * bs)))
    done;
    let flushed = ref false in
    Fa.flush a (fun () -> flushed := true);
    (* pull the last member of the flushing segio, whose shard has not
       finished (the flush programs two members at a time), then put the
       drive back once the flush is over *)
    let victim =
      match (Fa.state a).State.sealed with
      | s :: _ ->
        let ms = Writer.members s.State.w in
        ms.(Array.length ms - 1).Segment.drive
      | [] -> Alcotest.fail "flush sealed nothing"
    in
    Clock.run_until clock (Clock.now clock +. 300.0 +. float_of_int (150 * round));
    Fa.pull_drive a victim;
    Clock.run clock;
    check bool "flush completed" true !flushed;
    Fa.reinsert_drive a victim;
    check int (Printf.sprintf "no orphaned AU after round %d" round) 0 (orphan_aus ())
  done;
  (* a header copy written before a remap still names the replaced AU:
     recovery must take the member list from the segment table instead *)
  List.iter
    (fun (mode, name) ->
      Fa.crash a;
      ignore (await clock (fun k -> Fa.failover ~mode a k));
      check int (Printf.sprintf "no orphaned AU after a %s failover" name) 0 (orphan_aus ()))
    [ (Recovery.Frontier_scan, "frontier-scan"); (Recovery.Full_scan, "full-scan") ]

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

(* Back-to-back failovers with no host I/O between them are idempotent:
   each replays the same NVRAM records and leaves NVRAM as it found it
   (a replayed stash is re-logged under its own seq, not stashed again). *)
let test_repeated_failover_converges () =
  let clock, a = make_array ~config:Fa.default_config () in
  ok (Fa.create_volume a "v" ~blocks:(200 * 64));
  for i = 0 to 199 do
    write_ok clock a ~volume:"v" ~block:(i * 64) (random_data 64)
  done;
  await clock (fun k -> Fa.flush a (fun () -> k ()));
  let used () = Purity_ssd.Nvram.used_bytes (Purity_core.State.nvram (Fa.state a)) in
  let before = used () in
  let cycle () =
    Fa.crash a;
    let r = await clock (fun k -> Fa.failover a k) in
    (r.Recovery.nvram_records, used ())
  in
  let first = cycle () in
  check int "NVRAM bytes unchanged by the first failover" before (snd first);
  for i = 2 to 9 do
    check (Alcotest.pair int int) (Printf.sprintf "failover %d: records replayed, NVRAM bytes" i)
      first (cycle ())
  done

(* The boot region a checkpoint leaves decodes to the array's own
   frontier, counters and checkpoint directory, and re-encodes to the
   same bytes. *)
let test_boot_region_roundtrip () =
  let module State = Purity_core.State in
  let module Boot = Purity_core.Boot_region in
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  write_ok clock a ~volume:"v" ~block:0 (random_data 256);
  ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r)));
  let st = Fa.state a in
  let blob =
    match await clock (Boot.read st.State.boot) with
    | Some blob -> blob
    | None -> Alcotest.fail "no boot blob after a checkpoint"
  in
  match Boot.decode blob with
  | None -> Alcotest.fail "the boot blob does not decode"
  | Some c ->
    check Alcotest.string "re-encodes to the same bytes" blob (Boot.encode c);
    check bool "checkpoint directory" true (c.Boot.dir = st.State.checkpoint_dir);
    check bool "directory has chunks" true
      (List.exists (fun (_, _, chunks) -> chunks <> []) c.Boot.dir);
    check bool "frontier" true
      (c.Boot.frontier = Purity_segment.Allocator.persisted_frontier st.State.alloc);
    check (Alcotest.pair int int) "counters"
      (st.State.next_segment_id, st.State.medium_next_id)
      (c.Boot.next_segment, c.Boot.next_medium);
    check bool "checkpoint watermark" true
      (c.Boot.checkpoint_seq = st.State.checkpoint_seq && c.Boot.checkpoint_seq > 0L)

(* A boot region that decodes but names drives and AUs this shelf lacks
   (checkpoint chunk metas moved 40 drives up, stray frontier members) is
   read like an undecodable one: the failover completes, and every used
   AU still has exactly one owner. *)
let test_failover_off_shelf_boot_region () =
  let module State = Purity_core.State in
  let module Boot = Purity_core.Boot_region in
  let module Segment = Purity_segment.Segment in
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  write_ok clock a ~volume:"v" ~block:0 (random_data 128);
  ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r)));
  write_ok clock a ~volume:"v" ~block:512 (random_data 16);
  let boot = (Fa.state a).State.boot in
  let c =
    match Option.bind (await clock (Boot.read boot)) Boot.decode with
    | Some c -> c
    | None -> Alcotest.fail "no decodable boot blob after a checkpoint"
  in
  let off_shelf (seg : Segment.t) =
    {
      seg with
      Segment.members =
        Array.map (fun (m : Segment.member) -> { m with Segment.drive = m.Segment.drive + 40 })
          seg.Segment.members;
    }
  in
  let dir =
    List.map
      (fun (name, ranges, chunks) ->
        (name, ranges, List.map (fun (seg, off, len) -> (off_shelf seg, off, len)) chunks))
      c.Boot.dir
  in
  let frontier =
    { Segment.drive = 40; au = 0 } :: { Segment.drive = 0; au = 100_000 } :: c.Boot.frontier
  in
  Fa.crash a;
  Boot.write boot (Boot.encode { c with Boot.dir; frontier }) (fun () -> ());
  Clock.run clock;
  ignore (await clock (fun k -> Fa.failover a k));
  check bool "came back" true (Fa.is_online a);
  match Purity_check.Runner.audit_space a with
  | () -> ()
  | exception Purity_check.Suite.Violation msg -> Alcotest.fail msg

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

(* ---------- segment destruction ---------- *)

(* Corrupt a page of the oldest live data segment's first member, so a
   scrub has a victim to evacuate. *)
let corrupt_oldest_data_segment a =
  let module State = Purity_core.State in
  let module Segment = Purity_segment.Segment in
  let st = Fa.state a in
  let id =
    Hashtbl.fold
      (fun id (meta : Segment.t) acc ->
        if meta.Segment.payload_len > 0 && not (List.mem id st.State.checkpoint_segments)
        then min id acc
        else acc)
      st.State.segment_metas max_int
  in
  let m = (Hashtbl.find st.State.segment_metas id).Segment.members.(0) in
  Purity_ssd.Drive.inject_page_corruption
    (Purity_ssd.Shelf.drive (Fa.shelf a) m.Segment.drive)
    ~au:m.Segment.au ~page:1

(* Every way a segment is destroyed — a GC pass, a scrub of a corrupt
   page, a rebuild of a replaced drive, a checkpoint superseding the last
   one — leaves nothing pointing at it: no meta, no block reference from
   any volume, no inline-dedup source, no allocated AU. And every volume
   still reads back what was written. *)
let test_destroyed_segments_leave_no_trace () =
  let module State = Purity_core.State in
  let clock, a = make_array () in
  let model = Hashtbl.create 4 in
  let write volume block data =
    write_ok clock a ~volume ~block data;
    let img = Hashtbl.find model volume in
    Bytes.blit_string data 0 img (block * bs) (String.length data)
  in
  List.iter
    (fun v ->
      ok (Fa.create_volume a v ~blocks:512);
      Hashtbl.replace model v (Bytes.make (512 * bs) '\000'))
    [ "a"; "b" ];
  (* duplicated data (inline-dedup sources), then overwrites that leave
     mostly-dead segments behind *)
  let dup = random_data 32 in
  write "a" 0 dup;
  write "b" 0 dup;
  for i = 1 to 3 do
    write "a" 64 (random_data 256);
    write "b" (32 * i) (textish 64)
  done;
  Fa.flush a ignore;
  Clock.run clock;
  let destroys label op =
    let before =
      Hashtbl.fold (fun id meta acc -> (id, meta) :: acc) (Fa.state a).State.segment_metas []
    in
    op ();
    let st = Fa.state a in
    let destroyed =
      List.filter (fun (id, _) -> not (Hashtbl.mem st.State.segment_metas id)) before
    in
    check bool (label ^ ": segments destroyed") true (destroyed <> []);
    let gone (r : Purity_core.Blockref.t) = List.mem_assoc r.Purity_core.Blockref.segment destroyed in
    State.Stbl.iter
      (fun name (v : State.volume) ->
        Array.iter
          (function
            | Some r when gone r -> Alcotest.failf "%s: %s maps a destroyed segment" label name
            | _ -> ())
          (State.resolve_range st ~medium:v.State.medium ~block:0 ~nblocks:v.State.blocks))
      st.State.volumes;
    Hashtbl.iter
      (fun _ r -> if gone r then Alcotest.failf "%s: dedup source in a destroyed segment" label)
      st.State.dedup_locs;
    List.iter
      (fun (_, (meta : Purity_segment.Segment.t)) ->
        Array.iter
          (fun m ->
            check bool (label ^ ": AU free") false (Purity_segment.Allocator.is_used st.State.alloc m))
          meta.Purity_segment.Segment.members)
      destroyed;
    Hashtbl.iter
      (fun v img ->
        let got = read_ok clock a ~volume:v ~block:0 ~nblocks:512 in
        check bool (label ^ ": " ^ v ^ " reads back") true (String.equal got (Bytes.to_string img)))
      model
  in
  destroys "gc" (fun () ->
      ignore (await clock (fun k -> Fa.gc ~min_dead_ratio:0.2 ~max_victims:64 a (fun r -> k r))));
  destroys "scrub" (fun () ->
      corrupt_oldest_data_segment a;
      let r = await clock (fun k -> Fa.scrub a (fun r -> k r)) in
      check bool "scrub relocated" true (r.Purity_core.Scrub.segments_relocated > 0));
  destroys "rebuild" (fun () ->
      Fa.replace_drive a 1;
      ignore (await clock (fun k -> Fa.rebuild_drive a 1 (fun n -> k n))));
  destroys "checkpoint" (fun () -> ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r))))

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
    (inferred_io_blocks a "db");
  (* an 8 KiB-page database *)
  for i = 0 to 39 do
    write_ok clock a ~volume:"db" ~block:(i * 16) (random_data 16)
  done;
  check (Alcotest.option int) "inferred 16-block pages" (Some 16)
    (inferred_io_blocks a "db")

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
  let chunk_reads () = Registry.read_int (Fa.telemetry a) "sched/chunk_reads" in
  let before = chunk_reads () in
  ignore (read_ok clock a ~volume:"db" ~block:2048 ~nblocks:16);
  let after = chunk_reads () in
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
  check (Alcotest.option int) "small volume" (Some 8) (inferred_io_blocks a "small");
  check (Alcotest.option int) "large volume" (Some 64) (inferred_io_blocks a "large")

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

(* Host writes acked while an evacuation is in flight survive it. 64 runs
   of 64 blocks, the even ones overwritten, so every data segment is half
   dead; [start] begins the pass and 32 writes follow its liveness scan.
   Half overwrite odd runs, which the pass relocates from its
   liveness scan at the start; half copy other odd runs' bytes into a
   second volume, which inline dedup lands on the victims' cblocks. *)
let acked_writes_survive_evacuation start () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:4096);
  ok (Fa.create_volume a "copy" ~blocks:4096);
  let image = Array.init 64 (fun _ -> random_data 64) in
  Array.iteri (fun i d -> write_ok clock a ~volume:"v" ~block:(i * 64) d) image;
  for i = 0 to 31 do
    image.(2 * i) <- random_data 64;
    write_ok clock a ~volume:"v" ~block:(2 * i * 64) image.(2 * i)
  done;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let finished = ref false in
  start a (fun () -> finished := true);
  let acked = ref [] in
  let write volume run data =
    Fa.write a ~volume ~block:(run * 64) data (function
      | Ok () -> acked := (volume, run, data) :: !acked
      | Error _ -> ())
  in
  (* rebuild flushes before its scan: a flush queued after [start]
     completes just after the scan, in either pass *)
  Fa.flush a (fun () ->
      for j = 0 to 15 do
        let overwritten = (2 * j) + 1 and copied = (2 * j) + 33 in
        write "v" overwritten (random_data 64);
        write "copy" copied image.(copied)
      done);
  Clock.run clock;
  check bool "pass finished" true !finished;
  check int "every write acked" 32 (List.length !acked);
  let bad =
    List.filter
      (fun (volume, run, data) ->
        match await clock (Fa.read a ~volume ~block:(run * 64) ~nblocks:64) with
        | Ok got -> not (String.equal got data)
        | Error _ -> true)
      !acked
  in
  check int "acked writes read back" 0 (List.length bad)

let test_gc_under_writes =
  acked_writes_survive_evacuation (fun a k ->
      Fa.gc ~min_dead_ratio:0.2 ~max_victims:8 a (fun r ->
          check bool "victims destroyed" true (r.Purity_core.Gc.victims <> []);
          k ()))

(* [Gc.still_mapped] as it was before it took the refs' order from the
   liveness scan: sort the refs, binary-search each index fact's key back
   to its slot, filter [refs]. *)
let still_mapped_by_search (st : Purity_core.State.t) ~seg_id ~off refs =
  let module Block_index = Purity_core.Block_index in
  let compare = Purity_core.Keys.Block.compare in
  let sorted = Array.of_list refs in
  Array.sort (fun (a, _) (b, _) -> compare a b) sorted;
  let n = Array.length sorted in
  let index key =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if compare (fst sorted.(mid)) key < 0 then lo := mid + 1 else hi := mid
    done;
    if !lo < n && compare (fst sorted.(!lo)) key = 0 then !lo else -1
  in
  let blocks = st.Purity_core.State.blocks in
  let run = Block_index.find_run blocks ~n ~key_of:(fun i -> fst sorted.(i)) ~index in
  List.filter
    (fun (key, _) ->
      match Block_index.resolve_fact blocks run.(index key) with
      | Some (r : Purity_core.Blockref.t) -> r.segment = seg_id && r.off = off
      | None -> false)
    refs

(* The relocation re-check returns what the search did, in the scan's
   order, for a cblock whose refs are one run of blocks, for cblocks
   inline dedup shares between mediums and offsets, and after host
   writes overwrite some refs between the scan and the relocation; refs
   not in the scan's order are refused rather than half-matched. *)
let test_gc_still_mapped () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "a" ~blocks:512);
  ok (Fa.create_volume a "b" ~blocks:512);
  let image = random_data 64 in
  write_ok clock a ~volume:"a" ~block:0 image;
  write_ok clock a ~volume:"b" ~block:64 image;
  write_ok clock a ~volume:"a" ~block:256 image;
  write_ok clock a ~volume:"a" ~block:128 (random_data 64);
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let st = Fa.state a in
  let live = Purity_core.Gc.liveness st in
  let cblocks =
    Hashtbl.fold
      (fun seg_id per_seg acc ->
        Hashtbl.fold (fun off (_, refs) acc -> (seg_id, off, !refs) :: acc) per_seg acc)
      live []
  in
  let one_run refs =
    let blocks = List.map (fun ((_, b), _) -> b) refs in
    List.length (List.sort_uniq Int.compare (List.map (fun ((m, _), _) -> m) refs)) = 1
    && List.fold_left max min_int blocks - List.fold_left min max_int blocks
       = List.length refs - 1
  in
  check bool "a cblock's refs are one run" true
    (List.exists (fun (_, _, refs) -> one_run refs) cblocks);
  check bool "a deduplicated cblock's refs are not" true
    (List.exists (fun (_, _, refs) -> not (one_run refs)) cblocks);
  let mapped () =
    List.fold_left
      (fun total (seg_id, off, refs) ->
        let got = Purity_core.Gc.still_mapped st ~seg_id ~off refs in
        check
          Alcotest.(list (pair (pair int int) int))
          (Printf.sprintf "seg %d off %d" seg_id off)
          (still_mapped_by_search st ~seg_id ~off refs)
          got;
        total + List.length got)
      0 cblocks
  in
  let before = mapped () in
  check int "every scanned ref still maps" (4 * 64) before;
  (match List.find_opt (fun (_, _, refs) -> List.length refs > 1) cblocks with
  | Some (seg_id, off, refs) ->
    Alcotest.check_raises "refs out of the scan's order are refused"
      (Invalid_argument "Gc.still_mapped: refs not in descending key order") (fun () ->
        ignore (Purity_core.Gc.still_mapped st ~seg_id ~off (List.rev refs)))
  | None -> Alcotest.fail "no cblock with two refs");
  write_ok clock a ~volume:"a" ~block:16 (random_data 8);
  write_ok clock a ~volume:"b" ~block:70 (random_data 2);
  check int "the overwritten refs drop out" (before - 10) (mapped ())

(* Logging a block-index fact frames its record in the controller's arena
   and appends it to the open segio's log, which grows by doubling in the
   major heap: no record reaches the minor heap. *)
let test_block_record_allocation () =
  let module State = Purity_core.State in
  let module Block_index = Purity_core.Block_index in
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:256);
  write_ok clock a ~volume:"v" ~block:0 (random_data 1);
  let st = Fa.state a in
  let home = { Purity_core.Blockref.segment = 1; off = 4096; stored_len = 300; index = 0 } in
  let n = 1000 in
  let facts =
    Array.init n (fun i ->
        Block_index.Fact.make ~key:(1, i)
          ~value:{ home with index = i mod 8 }
          ~seq:(Purity_pyramid.Seqno.next st.State.seqno))
  in
  let record = State.record_block st in
  let w0 = Gc.minor_words () in
  Array.iter record facts;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  if words > 0.5 then Alcotest.failf "State.record_block allocates %.2f words per record" words

let test_rebuild_under_writes =
  acked_writes_survive_evacuation (fun a k ->
      Fa.replace_drive a 1;
      Fa.rebuild_drive a 1 (fun n ->
          check bool "segments rebuilt" true (n > 0);
          k ()))

(* Host writes acked while a checkpoint waits for its first flush share
   no segment with the checkpoint's patch chunks: a checkpoint segment is
   never a GC victim, and the next checkpoint destroys it. 32 runs of 64
   blocks are on the drives; 32 more are written right after
   [Fa.checkpoint] is called, and a second checkpoint supersedes the
   first before they are read back. *)
let test_checkpoint_keeps_writes_acked_during_it () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:4096);
  for i = 0 to 31 do
    write_ok clock a ~volume:"v" ~block:(i * 64) (random_data 64)
  done;
  ignore (await clock (fun k -> Fa.flush a (fun () -> k (Ok ()))));
  let finished = ref false in
  Fa.checkpoint a (fun _ -> finished := true);
  let acked = ref [] in
  for run = 32 to 63 do
    let data = random_data 64 in
    Fa.write a ~volume:"v" ~block:(run * 64) data (function
      | Ok () -> acked := (run, data) :: !acked
      | Error _ -> ())
  done;
  Clock.run clock;
  check bool "checkpoint finished" true !finished;
  check int "every write acked" 32 (List.length !acked);
  ignore (await clock (fun k -> Fa.checkpoint a (fun r -> k r)));
  let bad =
    List.filter
      (fun (run, data) ->
        match await clock (Fa.read a ~volume:"v" ~block:(run * 64) ~nblocks:64) with
        | Ok got -> not (String.equal got data)
        | Error _ -> true)
      !acked
  in
  check int "acked writes read back" 0 (List.length bad)

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
  let sched key = Registry.read_int (Fa.telemetry a) ("sched/" ^ key) in
  (* the hedge must never lose data and is allowed to fire *)
  check bool "reads all served" true (sched "failures" = 0);
  check bool "hedged reads fired" true (sched "backup_reads" > 0)

(* ---------- whole-array consistency property ---------- *)

let prop_array_matches_model =
  (* random overlapping writes + reads against a naive byte-array model,
     with periodic flush/gc; every read must match the model exactly *)
  QCheck.Test.make ~name:"array agrees with naive model (no faults)" ~count:12
    QCheck.(int_bound 10_000)
    (fun seed ->
      let clock, a = make_array () in
      (match Fa.create_volume a "v" ~blocks:1024 with Ok () -> () | Error _ -> assert false);
      Testkit.with_seed_report ~seed:(Int64.of_int (seed + 77)) @@ fun rng ->
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
      Testkit.with_seed_report ~seed:(Int64.of_int (seed + 191)) @@ fun rng ->
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
          (Array.mapi
             (fun i r -> r = Purity_check.Runner.chain_lookup st ~medium ~block:(block + i))
             batched)
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
  Protection.stop p;
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
  match Registry.find (Registry.snapshot (Fa.telemetry a)) "segments/pending_flushes" with
  | Some (Registry.Int n) -> n
  | _ -> Alcotest.fail "segments/pending_flushes not registered"

(* Step the clock until [cond] holds (one event at a time, so the
   caller sees the state the event that made it true left behind). *)
let step_until clock cond =
  while not (cond ()) do
    if not (Clock.step clock) then Alcotest.fail "clock drained first"
  done

(* One acked 64-block write at [block], then seal its segio; returns the
   seal's NVRAM watermark. *)
let write_and_seal clock a block =
  let st = Fa.state a in
  let acked = ref false in
  Fa.write a ~volume:"v" ~block (random_data 64) (fun r ->
      ignore (ok r);
      acked := true);
  step_until clock (fun () -> !acked);
  let mark = st.Purity_core.State.last_applied_intent in
  Purity_core.State.seal_current st;
  mark

(* Paper 4.3/4.4: sealed segios flush one at a time in seal order, and
   each flush trims NVRAM up to the intents its segio holds. Three
   segios, each holding one acked write, are sealed while the first is
   still flushing: the pipeline reports all three pending, the first
   flush trims only its own intent, and the drained pipeline leaves no
   intent at or below the last seal's watermark. *)
let test_sealed_segios_flush_in_seal_order () =
  let module Nvram = Purity_ssd.Nvram in
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  await clock (Fa.flush a);
  let nv = Purity_ssd.Shelf.nvram (Fa.shelf a) in
  let holds seq = List.exists (fun (r : Nvram.record) -> r.Nvram.seq = seq) (Nvram.records nv) in
  let none_upto seq =
    List.for_all (fun (r : Nvram.record) -> r.Nvram.seq > seq) (Nvram.records nv)
  in
  let w1 = write_and_seal clock a 0 in
  let w2 = write_and_seal clock a 64 in
  let w3 = write_and_seal clock a 128 in
  check int "three sealed segios pending" 3 (pending_flushes a);
  check bool "every intent still in NVRAM" true (holds w1 && holds w2 && holds w3);
  step_until clock (fun () -> pending_flushes a < 3);
  check int "the first flush completes first" 2 (pending_flushes a);
  check bool "it trims only its own intents" true (none_upto w1 && holds w2 && holds w3);
  Clock.run clock;
  check int "pipeline drained" 0 (pending_flushes a);
  check bool "no intent at or below the last watermark" true (none_upto w3)

(* A barrier waits for the segios sealed up to its call, not for an idle
   queue: a flush registered after the first of three seals completes
   with that segio's flush, while the two sealed after it still pend. *)
let test_flush_waits_only_for_earlier_seals () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:1024);
  await clock (Fa.flush a);
  ignore (write_and_seal clock a 0 : int64);
  let fired_with = ref None in
  Fa.flush a (fun () -> fired_with := Some (pending_flushes a));
  ignore (write_and_seal clock a 64 : int64);
  ignore (write_and_seal clock a 128 : int64);
  check int "three sealed segios pending" 3 (pending_flushes a);
  step_until clock (fun () -> Option.is_some !fired_with);
  check (Alcotest.option int) "fires with the later two still pending" (Some 2) !fired_with;
  Clock.run clock;
  check int "pipeline drained" 0 (pending_flushes a)

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

(* ---------- maintenance under load ---------- *)

(* A closed loop of [writers] host writers over volume "v", each writing
   16-block runs of fresh random bytes to its own [slots] slots in turn,
   one write at a time, until [stop issued] holds; [on_write n] runs as
   the [n]th write is issued. A write NVRAM refuses is retried 100 us
   later. Returns, per slot, every content it may hold: the last acked
   bytes, plus those of each later write that failed with [`No_space]
   (such a write may be torn between old and new), and the number of
   those failures. *)
let closed_write_loop clock a ~writers ~slots ~on_write ~stop =
  let issued = ref 0 and no_space = ref 0 in
  let may_hold = Array.make (writers * slots) [ String.make (16 * bs) '\000' ] in
  let rec next w i =
    if not (stop !issued) then begin
      incr issued;
      on_write !issued;
      let slot = (w * slots) + (i mod slots) in
      let data = random_data 16 in
      let rec attempt () =
        Fa.write a ~volume:"v" ~block:(slot * 16) data (function
          | Ok () ->
            may_hold.(slot) <- [ data ];
            next w (i + 1)
          | Error `No_space ->
            incr no_space;
            may_hold.(slot) <- data :: may_hold.(slot);
            next w (i + 1)
          | Error `Backpressure -> Clock.schedule clock ~delay:100.0 attempt
          | Error _ -> Alcotest.fail "unexpected write error")
      in
      attempt ()
    end
  in
  for w = 0 to writers - 1 do
    next w 0
  done;
  Clock.run clock;
  (may_hold, !no_space)

(* Every slot reads back one of the contents it may hold, block by block. *)
let check_slots clock a label may_hold =
  Array.iteri
    (fun slot candidates ->
      let got = read_ok clock a ~volume:"v" ~block:(slot * 16) ~nblocks:16 in
      for b = 0 to 15 do
        let block s = String.sub s (b * bs) bs in
        if not (List.exists (fun c -> String.equal (block c) (block got)) candidates) then
          Alcotest.failf "%s: slot %d block %d holds bytes no write gave it" label slot b
      done)
    may_hold

(* Crash, then fail over in each recovery mode in turn; every slot reads
   back after each. *)
let check_slots_across_failovers clock a may_hold =
  check_slots clock a "before the crash" may_hold;
  List.iter
    (fun (mode, label) ->
      Fa.crash a;
      ignore (await clock (fun k -> Fa.failover ~mode a k));
      check_slots clock a label may_hold)
    [ (Recovery.Frontier_scan, "after a frontier failover"); (Recovery.Full_scan, "after a full scan") ]

(* Paper §4.5: maintenance runs alongside host I/O, so it finishes while
   the host keeps writing. Eight writers own eight slots each; [start]
   begins the op at write 64 and the loop stops writing once it completes
   (or at write 6,000). The op must complete while the loop still
   writes, and every acked write must survive it, a crash and a failover
   in either recovery mode. *)
let maintenance_completes_under_writes start () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:(8 * 8 * 16));
  let completed_at = ref None and issued = ref 0 in
  let may_hold, no_space =
    closed_write_loop clock a ~writers:8 ~slots:8
      ~on_write:(fun n ->
        issued := n;
        if n = 64 then start a (fun () -> completed_at := Some !issued))
      ~stop:(fun n -> n >= 6000 || Option.is_some !completed_at)
  in
  (match !completed_at with
  | Some n when n < 6000 -> ()
  | Some _ -> Alcotest.fail "the op completed only once the writes stopped"
  | None -> Alcotest.fail "the op never completed");
  check int "no write ran out of space" 0 no_space;
  check_slots_across_failovers clock a may_hold

let test_flush_under_writes = maintenance_completes_under_writes (fun a k -> Fa.flush a k)

let test_checkpoint_under_writes =
  maintenance_completes_under_writes (fun a k -> Fa.checkpoint a (fun _ -> k ()))

(* Once the writes so far are flushed, their overwritten slots leave
   victims for the pass to relocate. *)
let test_gc_completes_under_writes =
  maintenance_completes_under_writes (fun a k ->
      Fa.flush a @@ fun () ->
      Fa.gc a (fun r ->
          check bool "victims destroyed" true (r.Purity_core.Gc.victims <> []);
          k ()))

(* Once the writes so far are flushed, a corrupt page in the oldest of
   their segments gives scrub a victim to evacuate. *)
let test_scrub_under_writes =
  maintenance_completes_under_writes (fun a k ->
      Fa.flush a @@ fun () ->
      corrupt_oldest_data_segment a;
      Fa.scrub a (fun r ->
          check bool "scrub relocated" true (r.Purity_core.Scrub.segments_relocated > 0);
          k ()))

let test_rebuild_completes_under_writes =
  maintenance_completes_under_writes (fun a k ->
      Fa.replace_drive a 1;
      Fa.rebuild_drive a 1 (fun n ->
          check bool "segments rebuilt" true (n > 0);
          k ()))

(* A segio flush that completes on a full array has no segio left for
   its segment-table fact's log copy; the NVRAM stash commits the
   segment, and the flush still completes. One writer fills the array
   with no GC until writes fail for lack of space; the clock then runs
   dry, and every slot reads back what it may hold, also after
   failovers. *)
let test_flush_completes_on_full_array () =
  let clock, a = make_array () in
  ok (Fa.create_volume a "v" ~blocks:4096);
  let may_hold, no_space =
    closed_write_loop clock a ~writers:1 ~slots:256 ~on_write:ignore ~stop:(fun n -> n >= 8000)
  in
  check bool "the array filled" true (no_space > 0);
  check_slots_across_failovers clock a may_hold

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
        (fun (m, off, len) -> Buffer.add_bytes buf (read m ~off ~len))
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
          Alcotest.test_case "vdi provisioning" `Quick test_data_reduction_ratio_vdi_like;
        ] );
      ( "faults",
        [
          Alcotest.test_case "two drive failures" `Quick test_reads_through_two_drive_failures;
          Alcotest.test_case "write with pulled drive" `Quick test_writes_continue_after_drive_pull;
          Alcotest.test_case "rebuild drive" `Quick test_rebuild_drive;
          Alcotest.test_case "rebuild under writes" `Quick test_rebuild_under_writes;
          Alcotest.test_case "member pulled before its flush is remapped" `Quick
            test_pulled_member_remapped_at_flush;
          Alcotest.test_case "mid-flush remap releases the replaced AU" `Quick
            test_mid_flush_remap_releases_replaced_au;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "acked writes survive" `Quick test_failover_preserves_acked_writes;
          Alcotest.test_case "after checkpoint" `Quick test_failover_after_checkpoint;
          Alcotest.test_case "checkpoint keeps writes acked during it" `Quick
            test_checkpoint_keeps_writes_acked_during_it;
          Alcotest.test_case "snapshots survive" `Quick test_failover_preserves_snapshots_and_volumes;
          Alcotest.test_case "double failover" `Quick test_double_failover;
          Alcotest.test_case "corrupt boot region" `Quick
            test_corrupt_boot_region_falls_back_to_full_scan;
          Alcotest.test_case "off-shelf boot region" `Quick
            test_failover_off_shelf_boot_region;
          Alcotest.test_case "frontier faster than full" `Quick
            test_frontier_recovery_faster_than_full;
          Alcotest.test_case "repeated failover converges" `Quick
            test_repeated_failover_converges;
          Alcotest.test_case "boot region round trip" `Quick test_boot_region_roundtrip;
          Alcotest.test_case "availability accounting" `Quick test_availability_accounting;
        ] );
      ( "gc",
        [
          Alcotest.test_case "reclaims overwrites" `Quick test_gc_reclaims_overwritten_space;
          Alcotest.test_case "preserves data" `Quick test_gc_preserves_data;
          Alcotest.test_case "delete volume reclaim" `Quick test_delete_volume_then_gc_reclaims;
          Alcotest.test_case "after failover" `Quick test_gc_after_failover;
          Alcotest.test_case "segregates shared cblocks" `Quick test_gc_segregates_shared_cblocks;
          Alcotest.test_case "pass under writes" `Quick test_gc_under_writes;
          Alcotest.test_case "still-mapped re-check" `Quick test_gc_still_mapped;
          Alcotest.test_case "block record allocation" `Quick test_block_record_allocation;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "clean array" `Quick test_scrub_clean_array;
          Alcotest.test_case "repairs worn flash" `Quick test_scrub_repairs_worn_flash;
        ] );
      ( "destroy",
        [
          Alcotest.test_case "destroyed segments leave no trace" `Quick
            test_destroyed_segments_leave_no_trace;
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
          Alcotest.test_case "barrier waits only for earlier seals" `Quick
            test_flush_waits_only_for_earlier_seals;
          Alcotest.test_case "crash strands waiters" `Quick
            test_flush_never_completes_after_crash;
          Alcotest.test_case "completes on a full array" `Quick
            test_flush_completes_on_full_array;
        ] );
      ( "under load",
        [
          Alcotest.test_case "flush completes under writes" `Quick test_flush_under_writes;
          Alcotest.test_case "checkpoint completes under writes" `Quick
            test_checkpoint_under_writes;
          Alcotest.test_case "gc completes under writes" `Quick test_gc_completes_under_writes;
          Alcotest.test_case "scrub completes under writes" `Quick test_scrub_under_writes;
          Alcotest.test_case "rebuild completes under writes" `Quick
            test_rebuild_completes_under_writes;
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
