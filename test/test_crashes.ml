(* Whole-system fault injection, on top of purity.check.

   Random scenarios come from [Plan.generate] and are executed by
   [Runner.run_plan] against the reference model; directed scenarios are
   hand-written event lists covering the multi-fault orderings the RAID
   literature calls out: a crash landing mid-GC, a second drive dropping
   out during a rebuild, NVRAM content loss just before (and just
   without) a checkpoint barrier, and latent corruption discovered while
   reading degraded. A lineage property sweep exercises snapshot / clone /
   resize ancestry under crashes, including a resize racing a checkpoint.

   Every scenario is deterministic per seed; failures print the seed and
   a shrunk reproducing trace. *)

module Fa = Purity_core.Flash_array
module Clock = Purity_sim.Clock
module Rng = Purity_util.Rng
module Suite = Purity_check.Suite
module Plan = Purity_check.Plan
module Runner = Purity_check.Runner

let check = Alcotest.check
let bool = Alcotest.bool

(* Run a hand-built plan; on violation, fail with the shrunk report so
   the trace lands in the test output. *)
let expect_clean plan =
  match Runner.check_plan plan with
  | Ok (_ : int) -> ()
  | Error r -> Alcotest.failf "%s" (Runner.report_to_string r)

let run_seed ?steps seed () =
  match Runner.check_seed ?steps seed with
  | Ok () -> ()
  | Error r -> Alcotest.failf "%s" (Runner.report_to_string r)

(* ---------- directed multi-fault orderings ---------- *)

let v name blocks = Suite.Op (Plan.Create_volume { name; blocks })
let w ?(view = "v0") ~wid block nblocks = Suite.Op (Plan.Write { view; block; nblocks; wid })
let r ?(view = "v0") block nblocks = Suite.Op (Plan.Read { view; block; nblocks })

(* Crash arriving in the middle of a GC pass: relocation half done, the
   covering checkpoint possibly unfinished — no victim may have been
   released without it. *)
let test_crash_during_gc () =
  let overwrite_rounds wid0 =
    List.concat_map
      (fun round -> List.init 6 (fun i -> w ~wid:(wid0 + (round * 6) + i) (i * 16) 16))
      [ 0; 1; 2 ]
  in
  expect_clean
    {
      Suite.seed = 0x6C01L;
      events =
        [ v "v0" 512 ]
        @ overwrite_rounds 1
        @ [ Suite.Op Plan.Flush ]
        @ overwrite_rounds 20
        @ [
            Suite.Timed { delay_us = 500.0; fault = Plan.Crash Plan.Fast };
            Suite.Op Plan.Gc;
            w ~wid:90 64 16;
            Suite.Timed { delay_us = 900.0; fault = Plan.Crash Plan.Full };
            Suite.Op Plan.Gc;
            r 0 16;
          ];
    }

(* A second drive is pulled while a replaced drive is still rebuilding:
   reads run at the full m=2 degradation until the rebuild completes. *)
let test_pull_during_rebuild () =
  expect_clean
    {
      Suite.seed = 0xB41DL;
      events =
        [ v "v0" 512 ]
        @ List.init 8 (fun i -> w ~wid:(i + 1) (i * 32) 32)
        @ [
            Suite.Op Plan.Flush;
            Suite.Fault (Plan.Replace_drive 2);
            Suite.Timed { delay_us = 800.0; fault = Plan.Pull_drive 5 };
            Suite.Op (Plan.Rebuild 2);
            r 0 16;
            r 240 16;
            Suite.Fault (Plan.Reinsert_drive 5);
            Suite.Fault (Plan.Crash Plan.Fast);
          ];
    }

(* NVRAM content loss: writes acked before the loss whose data had not
   reached flushed segments may revert on the next crash — unless a
   checkpoint barrier lands in between, which makes them durable. *)
let test_nvram_loss_before_checkpoint () =
  expect_clean
    {
      Suite.seed = 0x4EAL;
      events =
        [ v "v0" 512 ]
        @ List.init 6 (fun i -> w ~wid:(i + 1) (i * 16) 16)
        @ [
            Suite.Fault Plan.Lose_nvram;
            w ~wid:10 0 16;
            w ~wid:11 256 16;
            (* barrier: everything above survives the crash below *)
            Suite.Op Plan.Checkpoint;
            w ~wid:12 128 16;
            Suite.Fault (Plan.Crash Plan.Fast);
            r 0 16;
            r 256 16;
          ];
    }

let test_nvram_loss_without_barrier () =
  (* same shape, no checkpoint: the model must accept either outcome for
     the post-loss writes once the crash lands *)
  expect_clean
    {
      Suite.seed = 0x4EBL;
      events =
        [ v "v0" 512 ]
        @ List.init 6 (fun i -> w ~wid:(i + 1) (i * 16) 16)
        @ [
            Suite.Op Plan.Flush;
            Suite.Fault Plan.Lose_nvram;
            w ~wid:10 0 16;
            w ~wid:11 256 16;
            Suite.Fault (Plan.Crash Plan.Full);
            r 0 16;
            r 256 16;
            Suite.Fault (Plan.Crash Plan.Fast);
            r 0 16;
          ];
    }

(* Latent corruption discovered while reading degraded: one drive is
   pulled, a page on a surviving drive is corrupted, and reads must
   reconstruct around both before a scrub repairs the damage. *)
let test_corruption_during_degraded_read () =
  expect_clean
    {
      Suite.seed = 0xC0DEL;
      events =
        [ v "v0" 512 ]
        @ List.init 8 (fun i -> w ~wid:(i + 1) (i * 32) 32)
        @ [
            Suite.Op Plan.Flush;
            Suite.Fault (Plan.Pull_drive 1);
            Suite.Fault (Plan.Corrupt_page { drive = 4; au_rank = 3; page_rank = 7 });
            r 0 16;
            r 96 16;
            r 224 16;
            Suite.Op Plan.Scrub;
            Suite.Fault (Plan.Reinsert_drive 1);
            Suite.Fault (Plan.Crash Plan.Fast);
            r 0 16;
          ];
    }

(* ---------- snapshot / clone / resize lineage ---------- *)

(* Snapshots must stay frozen across overwrites of their parent, clones
   must diverge independently, and all three views must agree with the
   model after crashes. *)
let test_snapshot_clone_lineage_under_crash () =
  expect_clean
    {
      Suite.seed = 0x11AEL;
      events =
        [ v "v0" 256 ]
        @ List.init 4 (fun i -> w ~wid:(i + 1) (i * 64) 64)
        @ [
            Suite.Op (Plan.Snapshot { volume = "v0"; snap = "s0" });
            w ~wid:10 0 64;
            (* clone sees the snapshot image, not the new write *)
            Suite.Op (Plan.Clone { snapshot = "s0"; volume = "v1" });
            w ~view:"v1" ~wid:11 64 64;
            Suite.Fault (Plan.Crash Plan.Fast);
            r ~view:"s0" 0 16;
            r ~view:"v0" 0 16;
            r ~view:"v1" 64 16;
            Suite.Op Plan.Checkpoint;
            Suite.Fault Plan.Lose_nvram;
            Suite.Fault (Plan.Crash Plan.Full);
            r ~view:"s0" 0 16;
            r ~view:"v1" 0 16;
          ];
    }

(* The hard interleaving: a resize whose facts are in flight while a
   crash lands mid-checkpoint. The extended tail must neither vanish
   while the resize is durable nor resurrect stale pre-resize state. *)
let test_resize_racing_checkpoint () =
  expect_clean
    {
      Suite.seed = 0x5122L;
      events =
        [ v "v0" 256 ]
        @ List.init 4 (fun i -> w ~wid:(i + 1) (i * 64) 64)
        @ [
            Suite.Op Plan.Checkpoint;
            Suite.Op (Plan.Resize_volume { name = "v0"; blocks = 384 });
            w ~wid:10 256 64;
            w ~wid:11 320 64;
            Suite.Timed { delay_us = 600.0; fault = Plan.Crash Plan.Full };
            Suite.Op Plan.Checkpoint;
            w ~wid:12 256 64;
            Suite.Fault (Plan.Crash Plan.Fast);
            r 256 16;
            r 320 16;
          ];
    }

(* Property sweep: randomized lineage-heavy plans (snapshot / clone /
   resize / delete churn with crashes and barriers interleaved), the
   runner's final audit checking every surviving view against the model. *)
let lineage_plan seed =
  let rng = Rng.create ~seed in
  let rev = ref [] in
  let emit e = rev := e :: !rev in
  let wid = ref 0 in
  let vols = ref [ ("v0", ref 256) ] in
  let snaps = ref [] in
  let vol_ctr = ref 1 and snap_ctr = ref 0 in
  let pick xs = List.nth xs (Rng.int rng (List.length xs)) in
  let write () =
    let name, blocks = pick !vols in
    incr wid;
    let block = Rng.int rng (!blocks - 16 + 1) in
    emit (Suite.Op (Plan.Write { view = name; block; nblocks = 16; wid = !wid }))
  in
  emit (v "v0" 256);
  write ();
  write ();
  for _ = 1 to 40 do
    match Rng.int rng 100 with
    | n when n < 30 -> write ()
    | n when n < 42 ->
      let all = List.map (fun (n, b) -> (n, !b)) !vols @ !snaps in
      let name, blocks = pick all in
      emit
        (Suite.Op
           (Plan.Read { view = name; block = Rng.int rng (blocks - 16 + 1); nblocks = 16 }))
    | n when n < 54 && List.length !vols + List.length !snaps < 6 ->
      let volume, blocks = pick !vols in
      let snap = Printf.sprintf "s%d" !snap_ctr in
      incr snap_ctr;
      snaps := (snap, !blocks) :: !snaps;
      emit (Suite.Op (Plan.Snapshot { volume; snap }))
    | n when n < 62 && !snaps <> [] && List.length !vols + List.length !snaps < 6 ->
      let snapshot, blocks = pick !snaps in
      let volume = Printf.sprintf "v%d" !vol_ctr in
      incr vol_ctr;
      vols := (volume, ref blocks) :: !vols;
      emit (Suite.Op (Plan.Clone { snapshot; volume }))
    | n when n < 72 ->
      let name, blocks = pick !vols in
      blocks := !blocks + 64;
      emit (Suite.Op (Plan.Resize_volume { name; blocks = !blocks }))
    | n when n < 78 && !snaps <> [] ->
      let s, _ = List.hd !snaps in
      snaps := List.tl !snaps;
      emit (Suite.Op (Plan.Delete_snapshot s))
    | n when n < 86 -> (
      match Rng.int rng 3 with
      | 0 ->
        (* resize-vs-checkpoint race under a timed crash *)
        let name, blocks = pick !vols in
        blocks := !blocks + 64;
        emit (Suite.Op (Plan.Resize_volume { name; blocks = !blocks }));
        emit
          (Suite.Timed
             { delay_us = 200.0 +. Rng.float rng 2000.0; fault = Plan.Crash Plan.Full });
        emit (Suite.Op Plan.Checkpoint)
      | 1 -> emit (Suite.Fault (Plan.Crash Plan.Fast))
      | _ -> emit (Suite.Fault (Plan.Crash Plan.Full)))
    | n when n < 92 -> emit (Suite.Op Plan.Checkpoint)
    | n when n < 96 -> emit (Suite.Op Plan.Flush)
    | _ ->
      emit (Suite.Op Plan.Flush);
      emit (Suite.Fault Plan.Lose_nvram)
  done;
  { Suite.seed; events = List.rev !rev }

let test_lineage_property () =
  for i = 1 to 12 do
    expect_clean (lineage_plan (Int64.of_int (0x2000 + i)))
  done

(* ---------- directed stretched-pod (ActiveCluster) orderings ---------- *)

(* Hand-built Ac_plan traces audited by the two-array model; the runner's
   final audit additionally reads every block of both arrays below the
   front door. *)

module Ac_plan = Purity_check.Ac_plan
module Ac_runner = Purity_check.Ac_runner

let expect_ac_clean plan =
  match Ac_runner.check_plan plan with
  | Ok (_ : int) -> ()
  | Error r -> Alcotest.failf "%s" (Ac_runner.report_to_string r)

let create_p0 = Suite.Op (Ac_plan.Create { view = "p0"; blocks = 128 })

let aw ~side ~wid block nblocks =
  Suite.Op (Ac_plan.Write { side; view = "p0"; block; nblocks; wid })

let ar ~side block nblocks =
  Suite.Op (Ac_plan.Read { side; view = "p0"; block; nblocks })

(* A write acked while one side serves solo behind a partition is a
   durability promise: it must still be there — on BOTH arrays — after
   the failback resync. *)
let test_ac_ack_after_partition () =
  expect_ac_clean
    {
      Suite.seed = 0x3A01L;
      events =
        [
          create_p0;
          aw ~side:Ac_plan.A ~wid:1 0 8;
          Suite.Fault Ac_plan.Cut_link;
          (* mirror times out, A wins mediation, the ack is solo-era *)
          aw ~side:Ac_plan.A ~wid:2 16 8;
          ar ~side:Ac_plan.A 16 8;
          (* I/O aimed at the fenced side must redirect, not fail *)
          aw ~side:Ac_plan.B ~wid:3 32 8;
          Suite.Fault Ac_plan.Heal_link;
          Suite.Op Ac_plan.Settle;
          (* after resync the loser serves the solo-era writes itself *)
          ar ~side:Ac_plan.B 16 8;
          ar ~side:Ac_plan.B 32 8;
        ];
    }

(* The cut lands inside the mirror round trip: the in-flight write must
   fail over transparently to whichever side mediation picks, and the
   host sees exactly one outcome. *)
let test_ac_write_straddling_failover () =
  expect_ac_clean
    {
      Suite.seed = 0x3A02L;
      events =
        [
          create_p0;
          aw ~side:Ac_plan.A ~wid:1 0 8;
          Suite.Timed { delay_us = 250.0; fault = Ac_plan.Cut_link };
          aw ~side:Ac_plan.A ~wid:2 32 8;
          aw ~side:Ac_plan.B ~wid:3 64 8;
          Suite.Fault Ac_plan.Heal_link;
          Suite.Op Ac_plan.Settle;
          ar ~side:Ac_plan.A 32 8;
          ar ~side:Ac_plan.B 64 8;
        ];
    }

(* Failback resync: solo-era writes — including an overwrite of a block
   both sides already hold — flow back to the rejoining array, and a
   racing pair resolves to the same winner on both. *)
let test_ac_failback_resync () =
  expect_ac_clean
    {
      Suite.seed = 0x3A03L;
      events =
        [
          create_p0;
          aw ~side:Ac_plan.A ~wid:1 0 16;
          aw ~side:Ac_plan.B ~wid:2 40 16;
          Suite.Fault Ac_plan.Cut_link;
          aw ~side:Ac_plan.B ~wid:3 80 16;
          aw ~side:Ac_plan.B ~wid:4 0 16;
          Suite.Fault Ac_plan.Heal_link;
          Suite.Op Ac_plan.Settle;
          Suite.Op
            (Ac_plan.Write_racing
               { view = "p0"; block = 8; nblocks = 8; wid_a = 5; wid_b = 6 });
          ar ~side:Ac_plan.A 0 16;
          ar ~side:Ac_plan.A 80 16;
          ar ~side:Ac_plan.B 0 16;
          ar ~side:Ac_plan.B 8 8;
        ];
    }

(* Shrinking can drop a plan's [Create]. I/O to the never-created volume
   must then get the outcome the model predicts, [No_such_volume], on a
   healthy pod and behind a partition alike, so the shrinker does not
   "reproduce" a violation that is not there. *)
let test_ac_missing_create () =
  let race = Ac_plan.Write_racing { view = "p0"; block = 8; nblocks = 8; wid_a = 2; wid_b = 3 } in
  let plan =
    {
      Suite.seed = 0x3A04L;
      events =
        [
          aw ~side:Ac_plan.A ~wid:1 0 8;
          ar ~side:Ac_plan.B 0 8;
          Suite.Op race;
          ar ~side:Ac_plan.A 8 8;
          Suite.Fault Ac_plan.Cut_link;
          aw ~side:Ac_plan.B ~wid:4 16 8;
          ar ~side:Ac_plan.A 16 8;
          Suite.Fault Ac_plan.Heal_link;
          Suite.Op Ac_plan.Settle;
          aw ~side:Ac_plan.B ~wid:5 24 8;
          ar ~side:Ac_plan.B 24 8;
        ];
    }
  in
  match Ac_runner.run_plan plan with
  | Ok (_ : int) -> ()
  | Error (step, msg) -> Alcotest.failf "step %d: %s" step msg

(* ---------- randomized full-mix scenarios ---------- *)

let test_long_haul () = run_seed ~steps:220 424242L ()

(* ---------- space reclamation (no model needed) ---------- *)

let test_no_crash_heavy_gc () =
  (* overwrite churn with frequent GC: space must keep being reclaimed *)
  let config = Suite.config in
  let vol_blocks = 2048 in
  let io_blocks = 16 in
  let clock = Clock.create () in
  let a = Fa.create ~config ~clock () in
  Testkit.with_seed_report ~seed:77L (fun rng ->
      (match Fa.create_volume a "v" ~blocks:vol_blocks with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "create");
      let await f = Option.get (Suite.await clock f) in
      for round = 1 to 12 do
        for _ = 1 to 32 do
          let slot = Rng.int rng (vol_blocks / io_blocks) in
          let data = Bytes.to_string (Rng.bytes rng (io_blocks * 512)) in
          ignore (await (Fa.write a ~volume:"v" ~block:(slot * io_blocks) data))
        done;
        if round mod 3 = 0 then
          ignore
            (await (fun k -> Fa.gc ~min_dead_ratio:0.3 ~max_victims:16 a (fun r -> k r)))
      done;
      let s = Fa.stats a in
      check bool "array not leaking space" true
        (s.Fa.physical_bytes_used < s.Fa.physical_capacity / 2))

let () =
  Alcotest.run "crash-consistency"
    [
      ( "directed-orderings",
        [
          Alcotest.test_case "crash during GC" `Quick test_crash_during_gc;
          Alcotest.test_case "drive pull during rebuild" `Quick test_pull_during_rebuild;
          Alcotest.test_case "NVRAM loss before checkpoint" `Quick
            test_nvram_loss_before_checkpoint;
          Alcotest.test_case "NVRAM loss without barrier" `Quick
            test_nvram_loss_without_barrier;
          Alcotest.test_case "corruption during degraded read" `Quick
            test_corruption_during_degraded_read;
        ] );
      ( "lineage",
        [
          Alcotest.test_case "snapshot/clone lineage under crash" `Quick
            test_snapshot_clone_lineage_under_crash;
          Alcotest.test_case "resize racing a checkpoint" `Quick
            test_resize_racing_checkpoint;
          Alcotest.test_case "lineage property sweep" `Quick test_lineage_property;
        ] );
      ( "activecluster-directed",
        [
          Alcotest.test_case "ack after partition survives failback" `Quick
            test_ac_ack_after_partition;
          Alcotest.test_case "write straddling failover" `Quick
            test_ac_write_straddling_failover;
          Alcotest.test_case "failback resync + racing pair" `Quick
            test_ac_failback_resync;
          Alcotest.test_case "I/O after a shrunk-away Create" `Quick test_ac_missing_create;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "seed 1" `Quick (run_seed 1L);
          Alcotest.test_case "seed 2" `Quick (run_seed 2L);
          Alcotest.test_case "seed 3" `Quick (run_seed 3L);
          Alcotest.test_case "seed 4" `Quick (run_seed 4L);
          Alcotest.test_case "long haul" `Slow test_long_haul;
          Alcotest.test_case "heavy GC churn" `Quick test_no_crash_heavy_gc;
        ] );
    ]
