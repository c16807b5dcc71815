(* Tests for purity.check itself: the checker must catch the violations
   it exists to catch. The reference model is fed deliberately wrong
   observations (a lost write, wrong bytes, a thawed snapshot), and so
   is its stretched-pod mapping (a lost in-sync ack, racing writes that
   diverge, a solo write dropped by failback); every namespace op the
   array must refuse gets its exact predicted error; the shrinker is
   driven by a synthetic failure predicate and must converge to the
   minimal trace; a suite whose digest drifts between runs must
   fail replay; and a deliberately planted recovery bug —
   skipping NVRAM replay — must be caught by the same smoke sweep that
   gates tier-1, with a reproducing seed and a shrunk trace. *)

module Model = Purity_check.Model
module Ac_model = Purity_check.Ac_model
module Payload = Purity_check.Payload
module Plan = Purity_check.Plan
module Ac_plan = Purity_check.Ac_plan
module Runner = Purity_check.Runner
module Ac_runner = Purity_check.Ac_runner
module Suite = Purity_check.Suite
module Recovery = Purity_core.Recovery

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let bs = 512

let payloads = Payload.create ~seed:7L ~block_size:bs
let payload ~wid ~nblocks = Payload.of_write payloads ~wid ~nblocks

let fresh_model () =
  let m = Model.create payloads in
  Model.create_volume m "v" ~blocks:64;
  m

let expect_violation what = function
  | Error (_ : string) -> ()
  | Ok () -> Alcotest.failf "model failed to detect %s" what

let expect_ok what = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "model rejected %s: %s" what msg

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---------- the model detects planted violations ---------- *)

let test_detects_lost_write () =
  let m = fresh_model () in
  Model.write m ~view:"v" ~block:0 ~wid:1 ~nblocks:4 ~acked:true;
  (* the array "loses" the acked write and serves zeros *)
  expect_violation "a lost write"
    (Model.check_read m ~view:"v" ~block:0 ~nblocks:4 (String.make (4 * bs) '\000'));
  (* whereas the actual bytes pass *)
  expect_ok "the write's own bytes"
    (Model.check_read m ~view:"v" ~block:0 ~nblocks:4 (payload ~wid:1 ~nblocks:4))

let test_detects_wrong_bytes () =
  let m = fresh_model () in
  Model.write m ~view:"v" ~block:8 ~wid:3 ~nblocks:2 ~acked:true;
  (* bytes of a different write: must be refused and named in the report *)
  match
    Model.check_read m ~view:"v" ~block:8 ~nblocks:2 (payload ~wid:4 ~nblocks:2)
  with
  | Ok () -> Alcotest.fail "model accepted another write's bytes"
  | Error msg ->
    check bool
      (Printf.sprintf "report names the foreign write (%s)" msg)
      true (contains msg "write#4")

let test_detects_thawed_snapshot () =
  let m = fresh_model () in
  Model.write m ~view:"v" ~block:0 ~wid:1 ~nblocks:4 ~acked:true;
  Model.snapshot m ~volume:"v" ~snap:"s";
  Model.write m ~view:"v" ~block:0 ~wid:2 ~nblocks:4 ~acked:true;
  (* the volume moved on... *)
  expect_ok "the volume's new bytes"
    (Model.check_read m ~view:"v" ~block:0 ~nblocks:4 (payload ~wid:2 ~nblocks:4));
  (* ...but the snapshot serving the new bytes means it thawed *)
  expect_violation "a thawed snapshot"
    (Model.check_read m ~view:"s" ~block:0 ~nblocks:4 (payload ~wid:2 ~nblocks:4));
  expect_ok "the frozen image"
    (Model.check_read m ~view:"s" ~block:0 ~nblocks:4 (payload ~wid:1 ~nblocks:4))

let test_ambiguity_collapses_on_first_read () =
  (* an acked-but-not-durable write whose NVRAM record was lost becomes
     ambiguous at the next crash: either outcome is acceptable once, but
     the first observation pins it for good *)
  let m = fresh_model () in
  Model.write m ~view:"v" ~block:0 ~wid:1 ~nblocks:1 ~acked:true;
  Model.nvram_lost m;
  Model.crashed m;
  expect_ok "the reverted outcome"
    (Model.check_read m ~view:"v" ~block:0 ~nblocks:1 (String.make bs '\000'));
  (* the block collapsed to zeros; the write's bytes are no longer valid *)
  expect_violation "a flip-flopping block"
    (Model.check_read m ~view:"v" ~block:0 ~nblocks:1 (payload ~wid:1 ~nblocks:1))

let test_durable_write_survives_crash () =
  (* after a barrier, neither NVRAM loss nor crash may revert the write *)
  let m = fresh_model () in
  Model.write m ~view:"v" ~block:0 ~wid:1 ~nblocks:1 ~acked:true;
  Model.stabilized m;
  Model.nvram_lost m;
  Model.crashed m;
  expect_violation "a reverted durable write"
    (Model.check_read m ~view:"v" ~block:0 ~nblocks:1 (String.make bs '\000'));
  expect_ok "the durable bytes"
    (Model.check_read m ~view:"v" ~block:0 ~nblocks:1 (payload ~wid:1 ~nblocks:1))

(* ---------- the stretched pod's two views ---------- *)

let fresh_pod () =
  let m = Model.create payloads in
  Ac_model.create_volume m "p0" ~blocks:16;
  m

let pod_read ?(block = 0) m side ~wid =
  let data = if wid = 0 then String.make (2 * bs) '\000' else payload ~wid ~nblocks:2 in
  Ac_model.check_read m ~side ~view:"p0" ~block ~nblocks:2 data

let test_pod_in_sync_write () =
  let m = fresh_pod () in
  Ac_model.write_result m ~view:"p0" ~block:0 ~nblocks:2 ~wid:1 ~acked:true ~in_sync:true;
  expect_ok "A serving the acked write" (pod_read m A ~wid:1);
  expect_violation "B serving the old value" (pod_read m B ~wid:0);
  expect_ok "B serving the acked write" (pod_read m B ~wid:1)

let test_pod_racing_pair_agrees () =
  let m = fresh_pod () in
  Ac_model.write_racing_result m ~view:"p0" ~block:0 ~nblocks:2 ~wid_a:1 ~wid_b:2 ~acked_a:true
    ~acked_b:true ~in_sync:true;
  expect_ok "A serving A's write" (pod_read m A ~wid:1);
  expect_violation "B serving the other winner" (pod_read m B ~wid:2)

let test_pod_solo_write_survives_failback () =
  let m = fresh_pod () in
  Ac_model.write_result m ~view:"p0" ~block:0 ~nblocks:2 ~wid:1 ~acked:true ~in_sync:false;
  (* and an unacked one that A was seen to hold *)
  Ac_model.write_result m ~view:"p0" ~block:2 ~nblocks:2 ~wid:2 ~acked:false ~in_sync:false;
  expect_ok "A serving its unacked write" (pod_read ~block:2 m A ~wid:2);
  Ac_model.settled m ~survivor:A;
  expect_violation "B dropping A's solo write" (pod_read m B ~wid:0);
  expect_ok "B serving A's solo write" (pod_read m B ~wid:1);
  expect_violation "B keeping its own old value" (pod_read ~block:2 m B ~wid:0);
  expect_ok "B serving what A held" (pod_read ~block:2 m B ~wid:2)

let test_pod_unacked_write_per_side () =
  let m = fresh_pod () in
  Ac_model.write_result m ~view:"p0" ~block:0 ~nblocks:2 ~wid:1 ~acked:false ~in_sync:true;
  expect_ok "A serving the new value" (pod_read m A ~wid:1);
  expect_ok "B serving the old value" (pod_read m B ~wid:0);
  (* each side's first read pinned that side *)
  expect_violation "A flipping back" (pod_read m A ~wid:0);
  expect_violation "B flipping forward" (pod_read m B ~wid:1)

(* ---------- shrinking ---------- *)

let test_shrink_converges () =
  (* synthetic failure: the scenario "fails" iff both needles are
     present; 38 filler events around them must all be shaved off *)
  let needle1 = Suite.Op (Plan.Write { view = "v"; block = 0; nblocks = 1; wid = 13 }) in
  let needle2 = Suite.Fault Plan.Lose_nvram in
  let filler i = Suite.Op (Plan.Read { view = "v"; block = i; nblocks = 1 }) in
  let events =
    List.init 40 (fun i -> if i = 7 then needle1 else if i = 29 then needle2 else filler i)
  in
  let fails evs =
    if List.mem needle1 evs && List.mem needle2 evs then Some (0, "synthetic") else None
  in
  let trace, (_, violation) = Suite.shrink ~fails events (0, "synthetic") in
  check int "shrunk to the two needles" 2 (List.length trace);
  check bool "needles survive shrinking" true
    (List.mem needle1 trace && List.mem needle2 trace);
  check Alcotest.string "violation carried through" "synthetic" violation

(* ---------- determinism ---------- *)

let test_per_seed_determinism () =
  let plan = Plan.generate 31337L in
  (match (Runner.run_plan plan, Runner.run_plan plan) with
  | Ok d1, Ok d2 -> check int "same plan, same digest" d1 d2
  | Error (_, msg), _ | _, Error (_, msg) -> Alcotest.failf "seed 31337 failed: %s" msg);
  let plan' = Plan.generate 31337L in
  check bool "same seed, same plan" true (plan = plan')

(* A suite whose digest changes on every run: check_seed must flag the
   replay even though every run passes its audit. *)
module Drifting_suite = struct
  type op = unit
  type fault = unit
  type ctx = unit

  let name = "drifting"
  let pp_op ppf () = Format.fprintf ppf "op"
  let pp_fault ppf () = Format.fprintf ppf "fault"
  let generate ?steps:_ seed = { Suite.seed; events = [ Suite.Op (); Suite.Fault () ] }
  let start _ _ = ()
  let exec_op _ () = ()
  let apply_fault _ () = ()
  let after_event _ = ()
  let runs = ref 0

  let finalize _ =
    incr runs;
    !runs
end

module Drifting = Suite.Make (Drifting_suite)

let test_nondeterministic_replay_caught () =
  match Drifting.check_seed 5L with
  | Ok (_ : int) -> Alcotest.fail "a drifting digest passed replay"
  | Error r ->
    check Alcotest.string "violation" "nondeterministic replay: execution digests differ"
      r.Drifting.violation;
    check bool "report names the seed" true
      (contains (Drifting.report_to_string r) "seed 5")

(* A reported seed must keep naming the same plan: the printed plans of
   seeds 1-20 from each generator hash to a pinned digest. A generator
   change that moves what a seed means fails here, and must re-pin on
   purpose. *)
let test_generators_pinned () =
  let digest pp generate =
    let b = Buffer.create 65536 in
    let ppf = Format.formatter_of_buffer b in
    for s = 1 to 20 do
      Format.fprintf ppf "%a@." pp (generate (Int64.of_int s))
    done;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  check Alcotest.string "array plans, seeds 1-20" "a2fbd4b53188275b3bcd976315dbaf66"
    (digest (Suite.pp Plan.pp_op Plan.pp_fault) (fun s -> Plan.generate s));
  check Alcotest.string "pod plans, seeds 1-20" "ee67de8e691db711b1d157d6f738d048"
    (digest (Suite.pp Ac_plan.pp_op Ac_plan.pp_fault) (fun s -> Ac_plan.generate s))

(* Zero drift made a test: the execution digests of array and pod seeds
   1-20 hash to one pinned value. A change meant to leave every run as it
   was passes this unchanged; a change meant to move a run re-pins it on
   purpose. *)
let test_execution_digests_pinned () =
  let b = Buffer.create 1024 in
  let add suite = function
    | Ok d -> Printf.bprintf b "%d\n" d
    | Error _ -> Alcotest.failf "%s seed failed its audit" suite
  in
  for s = 1 to 20 do
    add "array" (Runner.check_plan (Plan.generate (Int64.of_int s)))
  done;
  for s = 1 to 20 do
    add "pod" (Ac_runner.check_plan (Ac_plan.generate (Int64.of_int s)))
  done;
  check Alcotest.string "execution digests, array and pod seeds 1-20"
    "6c4eaa571378ca806eae62c5792bfcc2"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ---------- the harness catches a planted recovery bug ---------- *)

let test_planted_bug_is_caught () =
  (* skip NVRAM replay during recovery: acked writes that had not reached
     flushed segments silently vanish at the next crash. The default
     smoke sweep must catch it and produce an actionable report. *)
  Recovery.(chaos.skip_nvram_replay <- true);
  Fun.protect
    ~finally:(fun () -> Recovery.(chaos.skip_nvram_replay <- false))
    (fun () ->
      match Runner.sweep ~shrink_budget:80 ~base:1L ~count:12 () with
      | Ok _ -> Alcotest.fail "planted NVRAM-replay bug escaped the smoke sweep"
      | Error r ->
        let { Suite.seed; events } = r.Runner.plan in
        check bool "trace shrunk below the original plan" true
          (List.length events < r.Runner.original_events);
        let report = Runner.report_to_string r in
        check bool
          (Printf.sprintf "report names the seed (%Ld)" seed)
          true
          (contains report (Printf.sprintf "seed %Ld" seed)))

(* ---------- pinned scenarios ---------- *)

(* Seed 69, shrunk: a full-scan failover after drive replacements and
   rebuilds. Recovery once left one used AU that no segment, open segio or
   sealed segio owned ("31 AUs marked used but 30 owned"), which only the
   space audit after each settle sees. *)
let test_seed_69_space () =
  let plan =
    {
      Suite.seed = 69L;
      events =
        [
          Suite.Op (Plan.Create_volume { name = "v0"; blocks = 512 });
          Op (Write { view = "v0"; block = 488; nblocks = 16; wid = 1 });
          Fault (Plan.Pull_drive 0);
          Op (Rebuild 5);
          Fault (Reinsert_drive 0);
          Fault (Replace_drive 2);
          Timed { delay_us = 3500.0; fault = Pull_drive 1 };
          Op (Rebuild 2);
          Timed { delay_us = 807.0; fault = Crash Full };
        ];
    }
  in
  match Runner.run_plan plan with
  | Ok (_ : int) -> ()
  | Error (_, msg) -> Alcotest.failf "seed 69: %s" msg

(* Every namespace op the array must refuse, each with the exact error
   the model predicts; one wrong error fails the plan. *)
let test_namespace_oracle () =
  let ops =
    Plan.
      [
        Create_volume { name = "v0"; blocks = 64 };
        Snapshot { volume = "v0"; snap = "s0" };
        Create_volume { name = "v0"; blocks = 64 };
        Delete_volume "s0";
        Delete_snapshot "v0";
        Resize_volume { name = "s0"; blocks = 128 };
        Resize_volume { name = "v0"; blocks = 32 };
        Snapshot { volume = "v0"; snap = "s0" };
        Snapshot { volume = "s0"; snap = "s1" };
        Clone { snapshot = "v0"; volume = "c0" };
        Clone { snapshot = "s0"; volume = "v0" };
        Delete_volume "x";
        Delete_snapshot "x";
        Resize_volume { name = "x"; blocks = 64 };
        Snapshot { volume = "x"; snap = "s2" };
        Clone { snapshot = "x"; volume = "c1" };
        Resize_volume { name = "v0"; blocks = 64 };
        Clone { snapshot = "s0"; volume = "c0" };
      ]
  in
  match Runner.run_plan { Suite.seed = 3L; events = List.map (fun op -> Suite.Op op) ops } with
  | Ok (_ : int) -> ()
  | Error (step, msg) -> Alcotest.failf "step %d: %s" step msg

(* A create of a non-positive size is refused as [`Out_of_range], on
   one array and on a stretched pod alike, not raised. *)
let test_create_out_of_range () =
  let clean name = function
    | Ok (_ : int) -> ()
    | Error (step, msg) -> Alcotest.failf "%s, step %d: %s" name step msg
  in
  List.iter
    (fun blocks ->
      Runner.run_plan
        { Suite.seed = 3L; events = [ Suite.Op (Plan.Create_volume { name = "v0"; blocks }) ] }
      |> clean (Printf.sprintf "create %d blocks" blocks))
    [ 0; -1 ];
  Ac_runner.run_plan
    { Suite.seed = 3L; events = [ Suite.Op (Ac_plan.Create { view = "p0"; blocks = 0 }) ] }
  |> clean "pod create 0 blocks"

(* ---------- smoke sweep (tier-1 gate) ---------- *)

let test_smoke_sweep () =
  (* ~50 random scenarios on every `dune runtest`; the extended sweep
     lives behind `make torture` *)
  match Runner.sweep ~base:101L ~count:50 () with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "%s" (Runner.report_to_string r)

let () =
  Alcotest.run "check"
    [
      ( "model-detects",
        [
          Alcotest.test_case "lost write" `Quick test_detects_lost_write;
          Alcotest.test_case "wrong bytes" `Quick test_detects_wrong_bytes;
          Alcotest.test_case "thawed snapshot" `Quick test_detects_thawed_snapshot;
          Alcotest.test_case "ambiguity collapses once" `Quick
            test_ambiguity_collapses_on_first_read;
          Alcotest.test_case "durable writes stay put" `Quick
            test_durable_write_survives_crash;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "shrinking converges" `Quick test_shrink_converges;
          Alcotest.test_case "per-seed determinism" `Quick test_per_seed_determinism;
          Alcotest.test_case "nondeterministic replay is caught" `Quick
            test_nondeterministic_replay_caught;
          Alcotest.test_case "generators pinned" `Quick test_generators_pinned;
          Alcotest.test_case "execution digests pinned" `Quick
            test_execution_digests_pinned;
          Alcotest.test_case "planted recovery bug is caught" `Quick
            test_planted_bug_is_caught;
        ] );
      ( "pod-model",
        [
          Alcotest.test_case "in-sync write pins both arrays" `Quick test_pod_in_sync_write;
          Alcotest.test_case "racing pair agrees" `Quick test_pod_racing_pair_agrees;
          Alcotest.test_case "solo write survives failback" `Quick
            test_pod_solo_write_survives_failback;
          Alcotest.test_case "unacked write, per side" `Quick test_pod_unacked_write_per_side;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "seed 69 space audit" `Quick test_seed_69_space;
          Alcotest.test_case "namespace oracle" `Quick test_namespace_oracle;
          Alcotest.test_case "create out of range" `Quick test_create_out_of_range;
        ] );
      ("smoke", [ Alcotest.test_case "50-scenario sweep" `Slow test_smoke_sweep ]);
    ]
