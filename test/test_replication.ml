module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module Repl = Purity_replication.Replication
module Rng = Purity_util.Rng

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let config =
  {
    Fa.default_config with
    Fa.drives = 6;
    k = 3;
    m = 2;
    write_unit = 8 * 1024;
    drive_config =
      {
        Purity_ssd.Drive.default_config with
        Purity_ssd.Drive.au_size = 4096 + (8 * 8192);
        num_aus = 256;
        dies = 4;
      };
    memtable_flush = 1_000_000;
  }

let make_pair () =
  let clock = Clock.create () in
  let source = Fa.create ~config ~clock () in
  let target = Fa.create ~config:{ config with Fa.seed = 99L } ~clock () in
  let repl = Repl.create ~source ~target () in
  (clock, source, target, repl)

let await = Testkit.await

let ok = function Ok v -> v | Error _ -> Alcotest.fail "unexpected error"

let write_ok clock a ~volume ~block data =
  match await clock (Fa.write a ~volume ~block data) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write failed"

let read_ok clock a ~volume ~block ~nblocks =
  match await clock (Fa.read a ~volume ~block ~nblocks) with
  | Ok d -> d
  | Error _ -> Alcotest.fail "read failed"

let rng = Rng.create ~seed:0x4E9L
let random_data nblocks = Bytes.to_string (Rng.bytes rng (nblocks * 512))

let test_initial_sync () =
  let clock, source, target, repl = make_pair () in
  ok (Fa.create_volume source "vol" ~blocks:1024);
  let d = random_data 256 in
  write_ok clock source ~volume:"vol" ~block:0 d;
  ok (Repl.protect repl "vol");
  let r = await clock (fun k -> Repl.replicate_once repl "vol" k) in
  check int "cycle 1" 1 r.Repl.cycle;
  check int "256 blocks shipped" 256 r.Repl.changed_blocks;
  check bool "target volume created" true (Fa.volume_exists target "vol");
  let got = read_ok clock target ~volume:"vol" ~block:0 ~nblocks:256 in
  check bool "target holds the data" true (got = d)

let test_incremental_ships_only_delta () =
  let clock, source, target, repl = make_pair () in
  ok (Fa.create_volume source "vol" ~blocks:2048);
  write_ok clock source ~volume:"vol" ~block:0 (random_data 1024);
  ok (Repl.protect repl "vol");
  let r1 = await clock (fun k -> Repl.replicate_once repl "vol" k) in
  check int "full sync" 1024 r1.Repl.changed_blocks;
  (* small update *)
  let patch = random_data 16 in
  write_ok clock source ~volume:"vol" ~block:100 patch;
  let r2 = await clock (fun k -> Repl.replicate_once repl "vol" k) in
  check int "only the delta crossed the wire" 16 r2.Repl.changed_blocks;
  check bool "delta bytes bounded" true (r2.Repl.shipped_bytes <= 16 * 512 + 4096);
  let got = read_ok clock target ~volume:"vol" ~block:100 ~nblocks:16 in
  check bool "target converged" true (got = patch)

let test_no_changes_ships_nothing () =
  let clock, source, _target, repl = make_pair () in
  ok (Fa.create_volume source "vol" ~blocks:512);
  write_ok clock source ~volume:"vol" ~block:0 (random_data 64);
  ok (Repl.protect repl "vol");
  ignore (await clock (fun k -> Repl.replicate_once repl "vol" k));
  let r = await clock (fun k -> Repl.replicate_once repl "vol" k) in
  check int "idle cycle ships nothing" 0 r.Repl.changed_blocks;
  check int "zero bytes" 0 r.Repl.shipped_bytes

let test_target_holds_consistent_snapshot () =
  let clock, source, target, repl = make_pair () in
  ok (Fa.create_volume source "vol" ~blocks:512);
  let v1 = random_data 64 in
  write_ok clock source ~volume:"vol" ~block:0 v1;
  ok (Repl.protect repl "vol");
  let r1 = await clock (fun k -> Repl.replicate_once repl "vol" k) in
  (* the target carries the named consistent snapshot *)
  check bool "rpo snapshot exists on target" true
    (Fa.volume_exists target r1.Repl.rpo_snapshot);
  (* source keeps writing; the target's snapshot stays at the old image *)
  write_ok clock source ~volume:"vol" ~block:0 (random_data 64);
  let snap_view = read_ok clock target ~volume:r1.Repl.rpo_snapshot ~block:0 ~nblocks:64 in
  check bool "rpo image immutable" true (snap_view = v1)

let test_old_snapshots_retired () =
  let clock, source, target, repl = make_pair () in
  ok (Fa.create_volume source "vol" ~blocks:512);
  write_ok clock source ~volume:"vol" ~block:0 (random_data 32);
  ok (Repl.protect repl "vol");
  let r1 = await clock (fun k -> Repl.replicate_once repl "vol" k) in
  write_ok clock source ~volume:"vol" ~block:32 (random_data 32);
  let r2 = await clock (fun k -> Repl.replicate_once repl "vol" k) in
  check bool "old source snap dropped" false (Fa.volume_exists source r1.Repl.rpo_snapshot);
  check bool "old target snap dropped" false (Fa.volume_exists target r1.Repl.rpo_snapshot);
  check bool "new snaps live" true
    (Fa.volume_exists source r2.Repl.rpo_snapshot
    && Fa.volume_exists target r2.Repl.rpo_snapshot)

let test_wire_time_charged () =
  let clock, source, _target, repl = make_pair () in
  ok (Fa.create_volume source "vol" ~blocks:2048);
  write_ok clock source ~volume:"vol" ~block:0 (random_data 2048);
  ok (Repl.protect repl "vol");
  let r = await clock (fun k -> Repl.replicate_once repl "vol" k) in
  (* 1 MiB at 100 MB/s is ~10 ms, plus per-run RTTs *)
  check bool
    (Printf.sprintf "cycle took %.1f ms of simulated time" (r.Repl.duration_us /. 1000.0))
    true
    (r.Repl.duration_us > 10_000.0)

let test_replication_survives_source_failover () =
  let clock, source, target, repl = make_pair () in
  ok (Fa.create_volume source "vol" ~blocks:512);
  let v1 = random_data 128 in
  write_ok clock source ~volume:"vol" ~block:0 v1;
  ok (Repl.protect repl "vol");
  ignore (await clock (fun k -> Repl.replicate_once repl "vol" k));
  (* source controller dies and comes back *)
  Fa.crash source;
  ignore (await clock (fun k -> Fa.failover source k));
  let patch = random_data 8 in
  write_ok clock source ~volume:"vol" ~block:50 patch;
  let r = await clock (fun k -> Repl.replicate_once repl "vol" k) in
  check bool "incremental after failover" true (r.Repl.changed_blocks <= 16);
  let got = read_ok clock target ~volume:"vol" ~block:50 ~nblocks:8 in
  check bool "target converged after failover" true (got = patch)

let test_target_usable_for_disaster_recovery () =
  let clock, source, target, repl = make_pair () in
  ok (Fa.create_volume source "vol" ~blocks:512);
  let image = random_data 256 in
  write_ok clock source ~volume:"vol" ~block:0 image;
  ok (Repl.protect repl "vol");
  ignore (await clock (fun k -> Repl.replicate_once repl "vol" k));
  (* disaster: the source site is gone; promote the replica *)
  Fa.crash source;
  let got = read_ok clock target ~volume:"vol" ~block:0 ~nblocks:256 in
  check bool "replica serves the data alone" true (got = image);
  write_ok clock target ~volume:"vol" ~block:0 (random_data 8)

let test_replicate_all_multiple_volumes () =
  let clock, source, target, repl = make_pair () in
  List.iter
    (fun v ->
      ok (Fa.create_volume source v ~blocks:256);
      write_ok clock source ~volume:v ~block:0 (random_data 32);
      ok (Repl.protect repl v))
    [ "a"; "b"; "c" ];
  let reports = await clock (fun k -> Repl.replicate_all repl k) in
  check int "three cycles" 3 (List.length reports);
  List.iter (fun v -> check bool v true (Fa.volume_exists target v)) [ "a"; "b"; "c" ];
  let count key =
    Purity_telemetry.Registry.read_int (Fa.telemetry source) ("replication/" ^ key)
  in
  check int "stats cycles" 3 (count "cycles");
  check int "stats blocks" (3 * 32) (count "changed_blocks")

let test_protect_errors () =
  let _clock, _source, _target, repl = make_pair () in
  (match Repl.protect repl "ghost" with
  | Error `No_such_volume -> ()
  | _ -> Alcotest.fail "missing volume accepted");
  ()

let () =
  Alcotest.run "replication"
    [
      ( "replication",
        [
          Alcotest.test_case "initial sync" `Quick test_initial_sync;
          Alcotest.test_case "incremental delta" `Quick test_incremental_ships_only_delta;
          Alcotest.test_case "idle cycle" `Quick test_no_changes_ships_nothing;
          Alcotest.test_case "consistent rpo snapshot" `Quick test_target_holds_consistent_snapshot;
          Alcotest.test_case "old snapshots retired" `Quick test_old_snapshots_retired;
          Alcotest.test_case "wire time charged" `Quick test_wire_time_charged;
          Alcotest.test_case "survives source failover" `Quick
            test_replication_survives_source_failover;
          Alcotest.test_case "disaster recovery" `Quick test_target_usable_for_disaster_recovery;
          Alcotest.test_case "replicate_all" `Quick test_replicate_all_multiple_volumes;
          Alcotest.test_case "protect errors" `Quick test_protect_errors;
        ] );
    ]
