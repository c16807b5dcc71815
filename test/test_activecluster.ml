(* ActiveCluster: mediator safety properties, stretched-pod behaviour,
   and the partition/mediator torture machinery checking itself.

   Three layers:
   - a qcheck property suite drives the pure mediator state machine with
     arbitrary request/release/reachability interleavings against an
     inline oracle, and the event-log auditor must accept every real
     history (and reject forged ones);
   - directed pod scenarios: mirrored writes visible on both arrays,
     split-brain resolution, frozen pods when the mediator is gone,
     stale-claim handling, double crash and full resync;
   - self-checks: the two planted chaos bugs (skipped failback resync,
     ack before the mirror lands) must be caught by the same sweep that
     gates tier-1, proving the two-array model can actually see
     divergence and lost acks. *)

module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module Ac = Purity_activecluster.Activecluster
module Link = Purity_activecluster.Link
module Mediator = Purity_activecluster.Mediator
module Registry = Purity_telemetry.Registry
module Ac_plan = Purity_check.Ac_plan
module Ac_runner = Purity_check.Ac_runner
module Acm = Purity_check.Ac_model

let check = Alcotest.check
let bool = Alcotest.bool

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---------- mediator: property suite ---------- *)

type med_cmd = Req of Mediator.side | Rel of Mediator.side | Reach of bool

let pp_cmd = function
  | Req s -> "req " ^ Mediator.side_name s
  | Rel s -> "rel " ^ Mediator.side_name s
  | Reach b -> Printf.sprintf "reach %b" b

let cmd_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun b -> Req (if b then Mediator.A else Mediator.B)) bool);
        (2, map (fun b -> Rel (if b then Mediator.A else Mediator.B)) bool);
        (1, map (fun b -> Reach b) bool);
      ])

let cmds_arb =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map pp_cmd l))
    QCheck.Gen.(list_size (int_range 1 60) cmd_gen)

(* Oracle: the mediator contract small enough to state inline. One
   holder at a time; the holder re-requesting is re-granted; anyone else
   is denied while a holder exists; an unreachable mediator answers
   nothing; only the holder can release. *)
let prop_mediator_oracle cmds =
  let m = Mediator.Core.create () in
  let holder = ref None and reachable = ref true in
  List.iter
    (fun cmd ->
      match cmd with
      | Reach b ->
        Mediator.Core.set_reachable m b;
        reachable := b
      | Rel s ->
        Mediator.Core.release m s;
        if !holder = Some s then holder := None
      | Req s -> (
        let out = Mediator.Core.request m s in
        let expect =
          if not !reachable then `Unreachable
          else
            match !holder with
            | Some h when h = s -> `Granted
            | Some _ -> `Denied
            | None ->
              holder := Some s;
              `Granted
        in
        if out <> expect then
          QCheck.Test.fail_reportf "request %s: mediator disagrees with oracle"
            (Mediator.side_name s);
        (* a fresh grant implies the loser was fenced first *)
        match out with
        | `Granted ->
          if not (Mediator.Core.is_fenced m (Mediator.other s)) then
            QCheck.Test.fail_reportf "granted %s with the peer unfenced"
              (Mediator.side_name s)
        | `Denied | `Unreachable -> ()))
    cmds;
  (* at most one holder, every grant fence-first: over the whole log *)
  (match Mediator.audit_log (Mediator.Core.events m) with
  | Ok () -> ()
  | Error msg -> QCheck.Test.fail_reportf "audit rejected a real history: %s" msg);
  (* holders agree *)
  Mediator.Core.holder m = !holder

let prop_mediator =
  QCheck.Test.make ~name:"mediator matches oracle on arbitrary interleavings" ~count:500
    cmds_arb prop_mediator_oracle

(* the auditor itself must reject forged histories *)
let test_audit_rejects_forgeries () =
  let expect_bad what log =
    match Mediator.audit_log log with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "audit accepted %s" what
  in
  expect_bad "a grant with no fence first" [ Mediator.Granted A ];
  expect_bad "a double grant"
    [ Mediator.Fenced B; Mediator.Granted A; Mediator.Fenced A; Mediator.Granted B ];
  expect_bad "a release by the loser"
    [ Mediator.Fenced B; Mediator.Granted A; Mediator.Released B ];
  match
    Mediator.audit_log
      [
        Mediator.Requested A; Mediator.Fenced B; Mediator.Granted A; Mediator.Denied B;
        Mediator.Released A; Mediator.Fenced A; Mediator.Granted B;
      ]
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "audit rejected a legal history: %s" msg

(* the clocked wrapper: lost releases leave a stale claim behind *)
let test_mediator_stale_claim () =
  let clock = Clock.create () in
  let m = Mediator.create ~clock () in
  let ask s = Clock.await clock (Mediator.request m s) in
  check bool "A wins the empty race" true (ask A = Some `Granted);
  check bool "B is denied while A holds" true (ask B = Some `Denied);
  Mediator.set_reachable m false;
  check bool "unreachable mediator times out" true (ask B = Some `Unreachable);
  (* A's release is lost in the outage *)
  Mediator.release m A;
  Clock.run clock;
  Mediator.set_reachable m true;
  check bool "stale claim still denies B" true (ask B = Some `Denied);
  check bool "stale holder is A" true (Mediator.holder m = Some A);
  match Mediator.audit m with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "clocked history failed audit: %s" msg

(* ---------- directed pod scenarios ---------- *)

let pod_fixture () =
  let clock = Clock.create () in
  let config = Purity_check.Suite.config in
  let a = Fa.create ~config ~clock () in
  let b = Fa.create ~config ~clock () in
  let ac = Ac.create ~a ~b () in
  (match Ac.create_stretched ac "vol" ~blocks:128 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "create_stretched failed");
  (clock, ac)

let await = Clock.await

let wdata n = String.init (n * 512) (fun i -> Char.chr (((i / 512) + (i mod 7)) mod 256))

let write_ok clock ac ~prefer ~block data =
  match await clock (fun k -> Ac.write ac ~prefer ~volume:"vol" ~block data k) with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.failf "write at %d via %s failed" block (Ac.side_name prefer)

let read_ok clock ac ~prefer ~block ~nblocks =
  match await clock (fun k -> Ac.read ac ~prefer ~volume:"vol" ~block ~nblocks k) with
  | Some (Ok (data, side)) -> (data, side)
  | _ -> Alcotest.failf "read at %d via %s failed" block (Ac.side_name prefer)

let test_mirrored_write_on_both () =
  let clock, ac = pod_fixture () in
  let data = wdata 8 in
  write_ok clock ac ~prefer:A ~block:0 data;
  write_ok clock ac ~prefer:B ~block:32 data;
  (* both blocks visible below the front door, on each array *)
  List.iter
    (fun side ->
      List.iter
        (fun blk ->
          match
            await clock (fun k -> Fa.read (Ac.array ac side) ~volume:"vol" ~block:blk ~nblocks:8 k)
          with
          | Some (Ok got) ->
            check bool
              (Printf.sprintf "array %s holds block %d" (Ac.side_name side) blk)
              true (got = data)
          | _ -> Alcotest.fail "direct read failed")
        [ 0; 32 ])
    [ Ac.A; Ac.B ];
  check bool "pod stayed in sync" true (Ac.status ac = Ac.Sync);
  check bool "mirrors were acked" true (Registry.value (Ac.counters ac).Ac.mirror_acked >= 2)

let test_partition_solo_and_failback () =
  let clock, ac = pod_fixture () in
  let d0 = wdata 4 in
  write_ok clock ac ~prefer:A ~block:0 d0;
  Ac.cut_link ac;
  (* the write times out on the mirror, races to the mediator, wins *)
  let d1 = wdata 4 in
  write_ok clock ac ~prefer:A ~block:8 d1;
  (match Ac.status ac with
  | Ac.Solo A -> ()
  | st -> Alcotest.failf "expected solo-A after partition, got %s" (Ac.status_name st));
  check bool "loser is fenced" true (Fa.is_fenced (Ac.array ac B));
  (* host I/O aimed at the fenced side is transparently redirected *)
  let got, served = read_ok clock ac ~prefer:B ~block:8 ~nblocks:4 in
  check bool "read redirected to the winner" true (served = A);
  check bool "read sees the solo write" true (got = d1);
  write_ok clock ac ~prefer:B ~block:16 d1;
  (* failback *)
  Ac.heal_link ac;
  (match await clock (fun k -> Ac.settle ac k) with
  | Some (Ac.Sync, Some A) -> ()
  | _ -> Alcotest.fail "failback did not reconcile from A");
  check bool "fence lifted" true (not (Fa.is_fenced (Ac.array ac B)));
  (* the solo-era writes reached B's own storage *)
  List.iter
    (fun blk ->
      match await clock (fun k -> Fa.read (Ac.array ac B) ~volume:"vol" ~block:blk ~nblocks:4 k) with
      | Some (Ok got) ->
        check bool (Printf.sprintf "B resynced block %d" blk) true (got = d1)
      | _ -> Alcotest.fail "direct read failed")
    [ 8; 16 ];
  check bool "resync copied blocks" true (Registry.value (Ac.counters ac).Ac.resync_blocks > 0);
  match Mediator.audit (Ac.mediator ac) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "mediation history: %s" msg

let test_mediator_loss_freezes () =
  let clock, ac = pod_fixture () in
  write_ok clock ac ~prefer:A ~block:0 (wdata 4);
  Ac.lose_mediator ac;
  Ac.cut_link ac;
  (* nobody can win: the pod must freeze, not split-brain *)
  (match await clock (fun k -> Ac.write ac ~prefer:A ~volume:"vol" ~block:8 (wdata 4) k) with
  | Some (Error `Unavailable) -> ()
  | _ -> Alcotest.fail "write should be refused while frozen");
  check bool "pod frozen" true (Ac.status ac = Ac.Frozen);
  (match await clock (fun k -> Ac.read ac ~prefer:B ~volume:"vol" ~block:0 ~nblocks:4 k) with
  | Some (Error `Unavailable) -> ()
  | _ -> Alcotest.fail "read should be refused while frozen");
  (* restore the world; the pod thaws through settle *)
  Ac.restore_mediator ac;
  Ac.heal_link ac;
  (match await clock (fun k -> Ac.settle ac k) with
  | Some (Ac.Sync, _) -> ()
  | _ -> Alcotest.fail "pod did not thaw");
  write_ok clock ac ~prefer:B ~block:8 (wdata 4)

let test_double_crash_full_resync () =
  let clock, ac = pod_fixture () in
  let d = wdata 8 in
  write_ok clock ac ~prefer:A ~block:0 d;
  write_ok clock ac ~prefer:B ~block:64 d;
  Ac.crash_side ac A;
  Ac.crash_side ac B;
  check bool "pod down" true (Ac.status ac = Ac.Down);
  (match await clock (fun k -> Ac.read ac ~prefer:A ~volume:"vol" ~block:0 ~nblocks:8 k) with
  | Some (Error `Unavailable) -> ()
  | _ -> Alcotest.fail "down pod must refuse reads");
  ignore (await clock (fun k -> Ac.recover_side ac A (fun () -> k ())));
  ignore (await clock (fun k -> Ac.recover_side ac B (fun () -> k ())));
  (match await clock (fun k -> Ac.settle ac k) with
  | Some (Ac.Sync, Some _) -> ()
  | _ -> Alcotest.fail "double-crash recovery did not reconcile");
  let got, _ = read_ok clock ac ~prefer:A ~block:0 ~nblocks:8 in
  check bool "acked write survived double crash" true (got = d);
  let got, _ = read_ok clock ac ~prefer:B ~block:64 ~nblocks:8 in
  check bool "acked write survived double crash (B)" true (got = d)

(* The generation fence: a mirror sent before a role change is dropped
   on arrival. Both sides crash while A's mirror is still on the link
   (one way takes at least the link's 200 us latency), so the pod goes
   Down and bumps the generation before the mirror lands. *)
let test_stale_mirror_dropped () =
  let clock, ac = pod_fixture () in
  let d = wdata 4 in
  let result = ref None in
  Ac.write ac ~prefer:A ~volume:"vol" ~block:0 d (fun r -> result := Some r);
  Ac.crash_side ac A;
  Ac.crash_side ac B;
  Clock.run clock;
  check Alcotest.int "one stale mirror dropped" 1
    (Registry.value (Ac.counters ac).Ac.mirror_stale_drops);
  check bool "write refused, not acked" true (!result = Some (Error `Unavailable));
  ignore (await clock (fun k -> Ac.recover_side ac A (fun () -> k ())));
  ignore (await clock (fun k -> Ac.recover_side ac B (fun () -> k ())));
  (match await clock (fun k -> Ac.settle ac k) with
  | Some (Ac.Sync, _) -> ()
  | _ -> Alcotest.fail "pod did not return to sync");
  let direct side =
    match await clock (fun k -> Fa.read (Ac.array ac side) ~volume:"vol" ~block:0 ~nblocks:4 k) with
    | Some (Ok got) -> got
    | _ -> Alcotest.failf "direct read on %s failed" (Ac.side_name side)
  in
  check bool "both arrays hold the same bytes" true (direct A = direct B)

(* A stretched create that B refuses leaves nothing behind on A. *)
let test_create_refused_by_b () =
  let _clock, ac = pod_fixture () in
  (match Fa.create_volume (Ac.array ac B) "p0" ~blocks:16 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "local create on B failed");
  (match Ac.create_stretched ac "p0" ~blocks:16 with
  | Error `Exists -> ()
  | Ok () -> Alcotest.fail "stretched create over B's local p0 succeeded"
  | Error _ -> Alcotest.fail "stretched create failed with other than Exists");
  check bool "no p0 left on A" false (Fa.volume_exists (Ac.array ac A) "p0");
  check bool "p0 not in the pod" false (List.mem_assoc "p0" (Ac.stretched ac))

(* ---------- the torture machinery, and it checking itself ---------- *)

let run_ac_seed seed () =
  match Ac_runner.check_seed seed with
  | Ok (_ : int) -> ()
  | Error report -> Alcotest.fail (Ac_runner.report_to_string report)

(* a small in-gate sweep; the full 1..200 range runs under @torture-ac *)
let test_smoke_sweep () =
  match Ac_runner.sweep ~base:1L ~count:8 () with
  | Ok _ -> ()
  | Error report -> Alcotest.fail (Ac_runner.report_to_string report)

(* Planted bug #1: failback that skips the resync copy. The sweep must
   catch the divergence / lost solo writes within a few seeds. *)
let test_planted_skip_resync_caught () =
  Ac.chaos.Ac.skip_resync <- true;
  Fun.protect
    ~finally:(fun () -> Ac.chaos.Ac.skip_resync <- false)
    (fun () ->
      match Ac_runner.sweep ~shrink_budget:20 ~base:1L ~count:12 () with
      | Error report ->
        check bool
          (Printf.sprintf "report names expected bytes (%s)" report.Ac_runner.violation)
          true
          (contains report.Ac_runner.violation "expected"
          || contains report.Ac_runner.violation "sync")
      | Ok _ -> Alcotest.fail "skipped failback resync went undetected")

(* Planted bug #2: acking the host before the mirror lands. A partition
   right after the ack strands the write on the losing side — a lost
   acked write the model must refuse. *)
let test_planted_early_ack_caught () =
  Ac.chaos.Ac.ack_without_peer <- true;
  Fun.protect
    ~finally:(fun () -> Ac.chaos.Ac.ack_without_peer <- false)
    (fun () ->
      match Ac_runner.sweep ~shrink_budget:20 ~base:1L ~count:12 () with
      | Error (_ : Ac_runner.report) -> ()
      | Ok _ -> Alcotest.fail "ack-before-mirror went undetected")

let () =
  Alcotest.run "activecluster"
    [
      ( "mediator",
        [
          QCheck_alcotest.to_alcotest prop_mediator;
          Alcotest.test_case "audit rejects forgeries" `Quick test_audit_rejects_forgeries;
          Alcotest.test_case "stale claim after lost release" `Quick
            test_mediator_stale_claim;
        ] );
      ( "pod",
        [
          Alcotest.test_case "mirrored write lands on both" `Quick
            test_mirrored_write_on_both;
          Alcotest.test_case "partition, solo service, failback" `Quick
            test_partition_solo_and_failback;
          Alcotest.test_case "mediator loss freezes the pod" `Quick
            test_mediator_loss_freezes;
          Alcotest.test_case "double crash, full resync" `Quick
            test_double_crash_full_resync;
          Alcotest.test_case "stale mirror dropped by the generation fence" `Quick
            test_stale_mirror_dropped;
          Alcotest.test_case "create refused by B undone on A" `Quick
            test_create_refused_by_b;
        ] );
      ( "torture",
        [
          Alcotest.test_case "seed 1" `Quick (run_ac_seed 1L);
          Alcotest.test_case "seed 2" `Quick (run_ac_seed 2L);
          Alcotest.test_case "smoke sweep" `Quick test_smoke_sweep;
          Alcotest.test_case "planted divergence caught" `Slow
            test_planted_skip_resync_caught;
          Alcotest.test_case "planted lost ack caught" `Slow test_planted_early_ack_caught;
        ] );
    ]
