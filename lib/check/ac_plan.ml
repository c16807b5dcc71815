(* Fault plans for the ActiveCluster torture suite.

   Same philosophy as {!Plan}: a plan is a {!Suite.plan}, a seed plus a
   self-contained event list, so dropping events during shrinking never
   changes the meaning of the events that remain. The vocabulary is the
   stretched pod's: creating the stretched volumes (a plan's first
   events), writes and reads landing on a chosen side, racing writes
   landing on both at once, link partitions, mediator loss, single and
   double array crashes, recoveries and settles (failback attempts).

   The generator emits recipes rather than isolated faults — a cut link
   with writes behind it so the mediation race actually runs, a timed
   cut armed to land in the middle of a write, a crash with traffic on
   the surviving side — and always appends a compensating tail (heal,
   restore, recover, settle) so every scenario ends in a state the final
   audit can reach. *)

module Rng = Purity_util.Rng
module Mediator = Purity_activecluster.Mediator

type side = Mediator.side = A | B

type fault =
  | Cut_link
  | Heal_link
  | Lose_mediator
  | Restore_mediator
  | Crash of side
  | Crash_both

type op =
  | Create of { view : string; blocks : int }  (* a stretched volume *)
  | Write of { side : side; view : string; block : int; nblocks : int; wid : int }
  | Write_racing of { view : string; block : int; nblocks : int; wid_a : int; wid_b : int }
      (* issued concurrently, one from each side, same range: the LWW
         mirror protocol must make both arrays agree on one winner *)
  | Read of { side : side; view : string; block : int; nblocks : int }
  | Settle  (* drive the pod toward the healthiest reachable status *)
  | Recover of side

(* ---------- pretty-printing (failure reports) ---------- *)

let pp_fault ppf = function
  | Cut_link -> Format.fprintf ppf "cut replication link"
  | Heal_link -> Format.fprintf ppf "heal replication link"
  | Lose_mediator -> Format.fprintf ppf "lose mediator"
  | Restore_mediator -> Format.fprintf ppf "restore mediator"
  | Crash s -> Format.fprintf ppf "crash array %s" (Mediator.side_name s)
  | Crash_both -> Format.fprintf ppf "crash both arrays"

let pp_op ppf = function
  | Create { view; blocks } -> Format.fprintf ppf "create stretched %s (%d blocks)" view blocks
  | Write { side; view; block; nblocks; wid } ->
    Format.fprintf ppf "write#%d %s[%d..%d] via %s" wid view block
      (block + nblocks - 1) (Mediator.side_name side)
  | Write_racing { view; block; nblocks; wid_a; wid_b } ->
    Format.fprintf ppf "race write#%d(A) vs write#%d(B) on %s[%d..%d]" wid_a wid_b view
      block (block + nblocks - 1)
  | Read { side; view; block; nblocks } ->
    Format.fprintf ppf "read %s[%d..%d] via %s" view block (block + nblocks - 1)
      (Mediator.side_name side)
  | Settle -> Format.fprintf ppf "settle"
  | Recover s -> Format.fprintf ppf "recover array %s" (Mediator.side_name s)

(* ---------- generation ---------- *)

(* Generation knobs: how many stretched volumes, their nominal size and
   the nominal write size, in 512 B blocks. *)
let n_vols = 2
let vol_blocks = 192
let io_blocks = 8

(* [steps]: generation rounds; recipes emit several events. *)
let generate ?(steps = 30) seed =
  let rng = Rng.create ~seed in
  let vols =
    List.init n_vols (fun i ->
        (Printf.sprintf "p%d" i, vol_blocks / 2 * (1 + Rng.int rng 2)))
  in
  let rev_events = ref [] in
  let emit e = rev_events := e :: !rev_events in
  List.iter (fun (view, blocks) -> emit (Suite.Op (Create { view; blocks }))) vols;
  let wid_ctr = ref 0 in
  let fresh_wid () =
    incr wid_ctr;
    !wid_ctr
  in
  let any_side () = if Rng.bool rng then A else B in
  let range () =
    let view, blocks = List.nth vols (Rng.int rng (List.length vols)) in
    let nblocks = min blocks (1 + Rng.int rng io_blocks) in
    let block = Rng.int rng (blocks - nblocks + 1) in
    (view, block, nblocks)
  in
  let write_somewhere ?side () =
    let view, block, nblocks = range () in
    let side = match side with Some s -> s | None -> any_side () in
    emit (Suite.Op (Write { side; view; block; nblocks; wid = fresh_wid () }))
  in
  let read_somewhere () =
    let view, block, nblocks = range () in
    emit (Suite.Op (Read { side = any_side (); view; block; nblocks }))
  in
  let race_somewhere () =
    let view, block, nblocks = range () in
    emit
      (Op
         (Write_racing
            { view; block; nblocks; wid_a = fresh_wid (); wid_b = fresh_wid () }))
  in
  (* seed content so partitions have something to diverge over *)
  for _ = 1 to 3 do
    write_somewhere ()
  done;
  for _ = 1 to steps do
    match Rng.int rng 100 with
    | n when n < 26 -> write_somewhere ()
    | n when n < 40 -> read_somewhere ()
    | n when n < 48 -> race_somewhere ()
    | n when n < 60 ->
      (* partition recipe: cut, traffic on one or both sides (the mirror
         timeout drives mediation), optional racing pair, heal, failback *)
      emit (Suite.Fault Cut_link);
      let writer = any_side () in
      for _ = 1 to 1 + Rng.int rng 2 do
        write_somewhere ~side:writer ()
      done;
      if Rng.int rng 3 = 0 then race_somewhere ();
      if Rng.bool rng then read_somewhere ();
      emit (Suite.Fault Heal_link);
      emit (Suite.Op Settle)
    | n when n < 68 ->
      (* straddling write: the cut lands mid-flight, inside the mirror
         round trip, so the write must fail over transparently *)
      emit (Suite.Timed { delay_us = 50.0 +. Rng.float rng 2_000.0; fault = Cut_link });
      write_somewhere ();
      write_somewhere ();
      emit (Suite.Fault Heal_link);
      emit (Suite.Op Settle)
    | n when n < 76 ->
      (* mediator loss during a partition: nobody can win, the pod must
         freeze (reject I/O) rather than risk split brain *)
      emit (Suite.Fault Lose_mediator);
      emit (Suite.Fault Cut_link);
      write_somewhere ();
      read_somewhere ();
      emit (Suite.Fault Restore_mediator);
      emit (Suite.Fault Heal_link);
      emit (Suite.Op Settle)
    | n when n < 86 ->
      (* array crash: traffic continues on the survivor via mediation,
         then the dead side returns and the pod fails back *)
      let victim = any_side () in
      emit (Suite.Fault (Crash victim));
      for _ = 1 to 1 + Rng.int rng 2 do
        write_somewhere ()
      done;
      if Rng.bool rng then read_somewhere ();
      emit (Suite.Op (Recover victim));
      emit (Suite.Op Settle)
    | n when n < 91 ->
      (* simultaneous crash: everything volatile dies; both recover and
         the pod reconciles from the pod holder's content *)
      emit (Suite.Fault Crash_both);
      emit (Suite.Op (Recover A));
      emit (Suite.Op (Recover B));
      emit (Suite.Op Settle)
    | n when n < 96 -> emit (Suite.Op Settle)
    | _ -> read_somewhere ()
  done;
  (* compensating tail: end every scenario in a reachable-audit state *)
  emit (Suite.Fault Heal_link);
  emit (Suite.Fault Restore_mediator);
  emit (Suite.Op (Recover A));
  emit (Suite.Op (Recover B));
  emit (Suite.Op Settle);
  { Suite.seed; events = List.rev !rev_events }
