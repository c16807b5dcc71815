(* The checker harness both torture suites run through. A suite
   ({!Runner}, {!Ac_runner}) supplies its plan generator, how its ops and
   faults execute, and a final audit returning an execution digest; the
   envelope, run loop, shrinking, replay check, sweeps and reports live
   here once. Runs are deterministic per plan — the harness adds no
   randomness — so a shrunk trace replays bit-for-bit, and [check_seed]
   holds every passing seed to that by replaying it. *)

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

let pp_events pp_op pp_fault ppf events =
  List.iteri
    (fun i e ->
      match e with
      | Op op -> Format.fprintf ppf "%3d. %a@," i pp_op op
      | Fault f -> Format.fprintf ppf "%3d. ! %a@," i pp_fault f
      | Timed { delay_us; fault } ->
        Format.fprintf ppf "%3d. ! after %.0fus: %a@," i delay_us pp_fault fault)
    events

(* Start an asynchronous call, run the clock dry, return its result
   ([None] when the callback never fired, e.g. a crash cut it off). *)
let await clock f =
  let r = ref None in
  f (fun x -> r := Some x);
  Clock.run clock;
  !r

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
  type t  (* a plan *)
  type gen_config
  type ctx

  val name : string
  val generate : ?cfg:gen_config -> int64 -> t
  val seed : t -> int64
  val events : t -> (op, fault) event list
  val with_events : t -> (op, fault) event list -> t
  val pp : Format.formatter -> t -> unit

  val start : Clock.t -> t -> ctx
  (** Build the world a plan runs in; may raise {!Violation}. *)

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
    plan : S.t;  (** shrunk reproduction *)
    original_events : int;
  }

  (* Execute a plan; [Ok digest] or [Error (step, violation)]. *)
  let run_plan plan =
    let clock = Clock.create () and step = ref 0 in
    try
      let ctx = S.start clock plan in
      List.iteri
        (fun i ev ->
          step := i;
          (match ev with
          | Op op -> S.exec_op ctx op
          | Fault f -> S.apply_fault ctx f
          | Timed { delay_us; fault } ->
            Clock.schedule clock ~delay:delay_us (fun () -> S.apply_fault ctx fault));
          S.after_event ctx)
        (S.events plan);
      step := List.length (S.events plan);
      Clock.run clock;
      Ok (S.finalize ctx)
    with
    | Violation msg -> Error (!step, msg)
    | exn -> Error (!step, "exception: " ^ Printexc.to_string exn)

  let report_to_string r =
    let seed = S.seed r.plan in
    Format.asprintf
      "@[<v>%s violation at seed %Ld (step %d):@,  %s@,%a@,reproduce with: run_plan on the \
       plan above  (or re-run seed %Ld)@]"
      S.name seed r.step r.violation S.pp r.plan seed

  (* Run one plan; on a violation, shrink it to a minimal reproduction. *)
  let check_plan ?shrink_budget plan =
    match run_plan plan with
    | Ok digest -> Ok digest
    | Error failure ->
      let fails evs =
        match run_plan (S.with_events plan evs) with
        | Ok _ -> None
        | Error f -> Some f
      in
      let trace, (step, violation) =
        shrink ?budget:shrink_budget ~fails (S.events plan) failure
      in
      Error
        {
          step;
          violation;
          plan = S.with_events plan trace;
          original_events = List.length (S.events plan);
        }

  (* A generated plan must pass, and replay to the same digest. *)
  let check_seed ?gen ?shrink_budget seed =
    let plan = S.generate ?cfg:gen seed in
    match check_plan ?shrink_budget plan with
    | Error r -> Error r
    | Ok d1 -> (
      match check_plan ?shrink_budget plan with
      | Ok d2 when d2 = d1 -> Ok ()
      | Ok _ ->
        let n = List.length (S.events plan) in
        Error
          {
            step = n;
            violation = "nondeterministic replay: execution digests differ";
            plan;
            original_events = n;
          }
      | Error r -> Error r)

  (* Run seeds [base, base+count); return the first failure, shrunk. *)
  let sweep ?gen ?shrink_budget ~base ~count () =
    let rec go i =
      if i >= count then None
      else
        match check_seed ?gen ?shrink_budget (Int64.add base (Int64.of_int i)) with
        | Ok () -> go (i + 1)
        | Error report -> Some report
    in
    go 0
end
