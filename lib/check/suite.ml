(* The checker harness both torture suites run through. A suite
   ({!Runner}, {!Ac_runner}) supplies its plan generator, how its ops and
   faults execute, and a final audit returning an execution digest; the
   plan type and its printer, the envelope, run loop, shrinking, replay
   check, sweeps and reports live here once. A plan is a seed plus a
   self-contained event list: the seed only keys the payload bytes, so a
   hand-written plan is [{ Suite.seed = N; events }] and shrinking drops
   events without changing what the rest mean. Runs are deterministic
   per plan — the harness adds no randomness — so a shrunk trace replays
   bit-for-bit, and [check_seed] holds every passing seed to that by
   replaying it. *)

module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module Drive = Purity_ssd.Drive

exception Violation of string

(* The laptop-scale geometry every suite's arrays use: 7 drives, 3+2
   Reed-Solomon, small AUs so GC and rebuild have real work. *)
let config =
  {
    Fa.default_config with
    Fa.drives = 7;
    k = 3;
    m = 2;
    write_unit = 8 * 1024;
    drive_config =
      {
        Drive.default_config with
        Drive.au_size = 4096 + (8 * 8192);
        num_aus = 512;
        dies = 4;
      };
    memtable_flush = 1_000_000;
  }

type ('op, 'fault) event =
  | Op of 'op
  | Fault of 'fault
  | Timed of { delay_us : float; fault : 'fault }
      (* armed on the simulation clock when reached, so the fault fires in
         the middle of whatever runs next (a rebuild, a GC pass, a write) *)

type ('op, 'fault) plan = { seed : int64; events : ('op, 'fault) event list }

let pp pp_op pp_fault ppf { seed; events } =
  Format.fprintf ppf "@[<v>seed %Ld, %d events:@," seed (List.length events);
  List.iteri
    (fun i e ->
      match e with
      | Op op -> Format.fprintf ppf "%3d. %a@," i pp_op op
      | Fault f -> Format.fprintf ppf "%3d. ! %a@," i pp_fault f
      | Timed { delay_us; fault } ->
        Format.fprintf ppf "%3d. ! after %.0fus: %a@," i delay_us pp_fault fault)
    events;
  Format.fprintf ppf "@]"

(* An audit's verdict: a message names the violation. *)
let expect = function Ok () -> () | Error msg -> raise (Violation msg)

(* Names for every I/O and namespace outcome the runners report. *)
let outcome_name = function
  | `Ok -> "Ok"
  | `No_such_volume -> "No_such_volume"
  | `Read_only -> "Read_only"
  | `Out_of_range -> "Out_of_range"
  | `Unaligned -> "Unaligned"
  | `Fenced -> "Fenced"
  | `Media_failure -> "Media_failure"
  | `Unavailable -> "Unavailable"
  | `Offline -> "Offline"
  | `No_space -> "No_space"
  | `Backpressure -> "Backpressure"
  | `Exists -> "Exists"
  | `Busy -> "Busy"
  | `Is_snapshot -> "Is_snapshot"
  | `Is_volume -> "Is_volume"
  | `Shrink -> "Shrink"

(* Hold the result of [op] to the one outcome the model predicts for it:
   [`Ok], or the exact error a malformed request must get. Results that
   promise nothing (a crash cut the op off, a fault excuses it) are the
   caller's to filter out first. *)
let expect_outcome pp_op op ~predicted result =
  let got = match result with Ok _ -> "Ok" | Error e -> outcome_name e in
  if got <> outcome_name predicted then
    raise
      (Violation
         (Format.asprintf "%a: array returned %s, model predicted %s" pp_op op got
            (outcome_name predicted)))

(* [f block nblocks] over [0, blocks) in reads of at most 16 blocks. *)
let iter_chunks blocks f =
  let rec go block =
    if block < blocks then begin
      f block (min 16 (blocks - block));
      go (block + 16)
    end
  in
  go 0

(* Fold one observed value into an execution digest. *)
let mix digest v = (digest * 31) + (Hashtbl.hash v land 0xFFFFFF)

let remove_slice l i n = List.filteri (fun j _ -> j < i || j >= i + n) l

(* Greedy delta-debugging: try dropping ever-smaller slices, keeping any
   removal after which the scenario still fails. [fails] must be a pure
   function of the event list — which it is, because events are
   self-contained (payload ids, ranks) rather than positions in a shared
   random stream. *)
let shrink ?(budget = 250) ~fails events failure =
  let evs = ref events and last = ref failure and left = ref budget in
  let changed = ref true in
  while !changed && !left > 0 do
    changed := false;
    let size = ref (max 1 (List.length !evs / 2)) in
    while !size >= 1 && !left > 0 do
      let i = ref 0 in
      while !i + !size <= List.length !evs && !left > 0 do
        decr left;
        let cand = remove_slice !evs !i !size in
        match fails cand with
        | Some failure ->
          evs := cand;
          last := failure;
          changed := true
        | None -> i := !i + !size
      done;
      size := !size / 2
    done
  done;
  (!evs, !last)

module type SUITE = sig
  type op
  type fault
  type ctx

  val name : string
  val pp_op : Format.formatter -> op -> unit
  val pp_fault : Format.formatter -> fault -> unit

  val generate : ?steps:int -> int64 -> (op, fault) plan
  (** [steps]: generation rounds, the suite's default when absent. *)

  val start : Clock.t -> int64 -> ctx
  (** Build the world a plan with this seed runs in; may raise
      {!Violation}. *)

  val exec_op : ctx -> op -> unit
  val apply_fault : ctx -> fault -> unit

  val after_event : ctx -> unit
  (** Restore the suite's invariants between events. *)

  val finalize : ctx -> int
  (** The final audit, once the clock has run dry; returns the digest. *)
end

module Make (S : SUITE) = struct
  type report = {
    step : int;  (** event index the (shrunk) run failed at *)
    violation : string;
    plan : (S.op, S.fault) plan;  (** shrunk reproduction *)
    original_events : int;
  }

  (* Execute a plan; [Ok digest] or [Error (step, violation)]. *)
  let run_plan plan =
    let clock = Clock.create () and step = ref 0 in
    try
      let ctx = S.start clock plan.seed in
      List.iteri
        (fun i ev ->
          step := i;
          (match ev with
          | Op op -> S.exec_op ctx op
          | Fault f -> S.apply_fault ctx f
          | Timed { delay_us; fault } ->
            Clock.schedule clock ~delay:delay_us (fun () -> S.apply_fault ctx fault));
          S.after_event ctx)
        plan.events;
      step := List.length plan.events;
      Clock.run clock;
      Ok (S.finalize ctx)
    with
    | Violation msg -> Error (!step, msg)
    | exn -> Error (!step, "exception: " ^ Printexc.to_string exn)

  let report_to_string r =
    let seed = r.plan.seed in
    Format.asprintf
      "@[<v>%s violation at seed %Ld (step %d):@,  %s@,%a@,reproduce with: run_plan on the \
       plan above  (or re-run seed %Ld)@]"
      S.name seed r.step r.violation (pp S.pp_op S.pp_fault) r.plan seed

  (* Run one plan; on a violation, shrink it to a minimal reproduction. *)
  let check_plan ?shrink_budget plan =
    match run_plan plan with
    | Ok digest -> Ok digest
    | Error failure ->
      let fails events =
        match run_plan { plan with events } with
        | Ok _ -> None
        | Error f -> Some f
      in
      let events, (step, violation) =
        shrink ?budget:shrink_budget ~fails plan.events failure
      in
      Error
        {
          step;
          violation;
          plan = { plan with events };
          original_events = List.length plan.events;
        }

  (* A generated plan must pass, and replay to the same digest; [Ok] carries
     that digest. *)
  let check_seed ?steps ?shrink_budget seed =
    let plan = S.generate ?steps seed in
    match check_plan ?shrink_budget plan with
    | Error r -> Error r
    | Ok d1 -> (
      match check_plan ?shrink_budget plan with
      | Ok d2 when d2 = d1 -> Ok d1
      | Ok _ ->
        let n = List.length plan.events in
        Error
          {
            step = n;
            violation = "nondeterministic replay: execution digests differ";
            plan;
            original_events = n;
          }
      | Error r -> Error r)

  (* Run seeds [base, base+count): their execution digests in seed order,
     or the first failure, shrunk. *)
  let sweep ?steps ?shrink_budget ~base ~count () =
    let rec go i acc =
      if i >= count then Ok (List.rev acc)
      else
        match check_seed ?steps ?shrink_budget (Int64.add base (Int64.of_int i)) with
        | Ok digest -> go (i + 1) (digest :: acc)
        | Error report -> Error report
    in
    go 0 []
end
