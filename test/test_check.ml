(* Tests for purity.check itself: the checker must catch the violations
   it exists to catch. The reference model is fed deliberately wrong
   observations (a lost write, wrong bytes, a thawed snapshot); the
   shrinker is driven by a synthetic failure predicate and must converge
   to the minimal trace; a suite whose digest drifts between runs must
   fail replay; and a deliberately planted recovery bug —
   skipping NVRAM replay — must be caught by the same smoke sweep that
   gates tier-1, with a reproducing seed and a shrunk trace. *)

module Model = Purity_check.Model
module Payload = Purity_check.Payload
module Plan = Purity_check.Plan
module Runner = Purity_check.Runner
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
  type t = { seed : int64; events : (op, fault) Suite.event list }
  type gen_config = unit
  type ctx = unit

  let name = "drifting"
  let generate ?cfg:_ seed = { seed; events = [ Suite.Op (); Suite.Fault () ] }
  let seed p = p.seed
  let events p = p.events
  let with_events p events = { p with events }
  let pp ppf p = Format.fprintf ppf "seed %Ld" p.seed
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
  | Ok () -> Alcotest.fail "a drifting digest passed replay"
  | Error r ->
    check Alcotest.string "violation" "nondeterministic replay: execution digests differ"
      r.Drifting.violation;
    check bool "report names the seed" true
      (contains (Drifting.report_to_string r) "seed 5")

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
      | None -> Alcotest.fail "planted NVRAM-replay bug escaped the smoke sweep"
      | Some r ->
        let { Plan.seed; events } = r.Runner.plan in
        check bool "trace shrunk below the original plan" true
          (List.length events < r.Runner.original_events);
        let report = Runner.report_to_string r in
        check bool
          (Printf.sprintf "report names the seed (%Ld)" seed)
          true
          (contains report (Printf.sprintf "seed %Ld" seed)))

(* ---------- smoke sweep (tier-1 gate) ---------- *)

let test_smoke_sweep () =
  (* ~50 random scenarios on every `dune runtest`; the extended sweep
     lives behind `make torture` *)
  match Runner.sweep ~base:101L ~count:50 () with
  | None -> ()
  | Some r -> Alcotest.failf "%s" (Runner.report_to_string r)

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
          Alcotest.test_case "planted recovery bug is caught" `Quick
            test_planted_bug_is_caught;
        ] );
      ("smoke", [ Alcotest.test_case "50-scenario sweep" `Slow test_smoke_sweep ]);
    ]
