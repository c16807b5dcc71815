(* The closed load loop: [outstanding] simulated initiators, each
   submitting its next op only when the previous one completes, like the
   iSCSI initiators behind the paper's measurements. The concurrency is
   simulated (one host thread steps the discrete-event clock), so the load
   does not depend on the host's core count.

   Every read is checked against the shadow digests; every write updates
   them at its acknowledgement. Host time spent generating ops and
   digesting payloads is kept apart, so it can be reported as harness
   overhead. *)

module Fa = Purity_core.Flash_array
module Clock = Purity_sim.Clock
module Wl = Purity_workload.Workload

let outstanding = 32

(* Each initiator turns around between a completion and its next submit
   in 0-20 simulated us, drawn from the seed. With no turnaround at all,
   32 clients queued on a fixed-service-time device (the NVRAM) see one
   and the same latency on every op and every seed. *)
let think_max_us = 20.0

(* NVRAM-full backpressure is retried after a short pause, as an
   initiator would: 100-300 us, drawn from the seed (a fixed pause locks
   the clients into step with the segment flushes). A write refused this
   many times counts as failed. *)
let retry_min_us = 100.0
let retry_spread_us = 200.0
let max_retries = 10_000

type counters = {
  mutable completed : int;
  mutable reads : int;
  mutable writes : int;
  mutable write_attempts : int;
  mutable backpressure : int;
  mutable errors : int;
  mutable wrong : int;  (** reads whose bytes matched no acceptable digest *)
  mutable bytes_written : int;
  read_lat : Samples.t;  (** simulated us, submit to completion *)
  write_lat : Samples.t;  (** simulated us, first submit to ack, retries included *)
  mutable gen_ns : int;
  mutable verify_ns : int;
  mutable read_submit_ns : int;
  mutable write_submit_ns : int;
  mutable events : int;  (** clock events dispatched *)
  mutable dispatch_ns : int;  (** host time inside Clock.step (timed runs only) *)
  mutable marks : int list;  (** host ns at every [slice]-th completion, newest first *)
}

let fresh_counters () =
  {
    completed = 0;
    reads = 0;
    writes = 0;
    write_attempts = 0;
    backpressure = 0;
    errors = 0;
    wrong = 0;
    bytes_written = 0;
    read_lat = Samples.create ();
    write_lat = Samples.create ();
    gen_ns = 0;
    verify_ns = 0;
    read_submit_ns = 0;
    write_submit_ns = 0;
    events = 0;
    dispatch_ns = 0;
    marks = [];
  }

type ctx = {
  fa : Fa.t;
  clock : Clock.t;
  shadow : Shadow.t;
  rng : Purity_util.Rng.t;  (** think times and retry pauses *)
  mutable c : counters;
  mutable time_steps : bool;
  mutable slice : int;  (** 0 = no slice marks *)
}

let create ~config ~shadow ~seed =
  let clock = Clock.create () in
  let fa = Fa.create ~config ~clock () in
  {
    fa;
    clock;
    shadow;
    rng = Purity_util.Rng.create ~seed;
    c = fresh_counters ();
    time_steps = false;
    slice = 0;
  }

let step ctx =
  let c = ctx.c in
  let more =
    if ctx.time_steps then begin
      let t0 = Wall.now_ns () in
      let more = Clock.step ctx.clock in
      c.dispatch_ns <- c.dispatch_ns + (Wall.now_ns () - t0);
      more
    end
    else Clock.step ctx.clock
  in
  if more then c.events <- c.events + 1;
  more

let drive_until ctx cond =
  while not (cond ()) do
    if not (step ctx) then failwith "perfbench: the clock ran dry before the awaited operation completed"
  done

let await ctx f =
  let r = ref None in
  f (fun x -> r := Some x);
  drive_until ctx (fun () -> Option.is_some !r);
  Option.get !r

(* Count a completion, then hand the initiator its next op after its
   turnaround. *)
let complete ctx k =
  let c = ctx.c in
  c.completed <- c.completed + 1;
  if ctx.slice > 0 && c.completed mod ctx.slice = 0 then c.marks <- Wall.now_ns () :: c.marks;
  Clock.schedule ctx.clock ~delay:(Purity_util.Rng.float ctx.rng think_max_us) k

let slot_of (v : Shadow.vol) ~block ~nblocks =
  if nblocks <> v.Shadow.slot_blocks || block mod v.Shadow.slot_blocks <> 0 then
    invalid_arg "perfbench: op is not one whole slot";
  block / v.Shadow.slot_blocks

let submit ctx op k =
  let c = ctx.c in
  match op with
  | Wl.Read { volume; block; nblocks } ->
    let v = Shadow.find ctx.shadow volume in
    let slot = slot_of v ~block ~nblocks in
    let accept = Shadow.acceptable v ~slot in
    let start = Clock.now ctx.clock in
    c.reads <- c.reads + 1;
    let t0 = Wall.now_ns () in
    Fa.read ctx.fa ~volume ~block ~nblocks (fun r ->
        (match r with
        | Ok data ->
          let t1 = Wall.now_ns () in
          let ok = List.mem (Shadow.digest data) accept in
          c.verify_ns <- c.verify_ns + (Wall.now_ns () - t1);
          if ok then Samples.add c.read_lat (Clock.now ctx.clock -. start)
          else c.wrong <- c.wrong + 1
        | Error _ -> c.errors <- c.errors + 1);
        complete ctx k);
    c.read_submit_ns <- c.read_submit_ns + (Wall.now_ns () - t0)
  | Wl.Write { volume; block; data } ->
    let v = Shadow.find ctx.shadow volume in
    let len = String.length data in
    let slot = slot_of v ~block ~nblocks:(len / 512) in
    let t1 = Wall.now_ns () in
    let d = Shadow.digest data in
    c.verify_ns <- c.verify_ns + (Wall.now_ns () - t1);
    Shadow.begin_write v ~slot d;
    c.writes <- c.writes + 1;
    let start = Clock.now ctx.clock in
    let rec attempt tries =
      c.write_attempts <- c.write_attempts + 1;
      let t0 = Wall.now_ns () in
      Fa.write ctx.fa ~volume ~block data (function
        | Ok () ->
          Shadow.commit v ~slot d;
          c.bytes_written <- c.bytes_written + len;
          Samples.add c.write_lat (Clock.now ctx.clock -. start);
          complete ctx k
        | Error `Backpressure when tries < max_retries ->
          c.backpressure <- c.backpressure + 1;
          let delay = retry_min_us +. Purity_util.Rng.float ctx.rng retry_spread_us in
          Clock.schedule ctx.clock ~delay (fun () -> attempt (tries + 1))
        | Error _ ->
          Shadow.abort v ~slot d;
          c.errors <- c.errors + 1;
          complete ctx k);
      c.write_submit_ns <- c.write_submit_ns + (Wall.now_ns () - t0)
    in
    attempt 0

(* Run [n] ops from [gen] with [outstanding] in flight; returns when all
   have completed. *)
let run_ops ctx ~n ~gen =
  let c = ctx.c in
  let target = c.completed + n in
  let remaining = ref n in
  let rec pump () =
    if !remaining > 0 then begin
      decr remaining;
      let t0 = Wall.now_ns () in
      let op = gen () in
      c.gen_ns <- c.gen_ns + (Wall.now_ns () - t0);
      submit ctx op pump
    end
  in
  for _ = 1 to min outstanding n do
    pump ()
  done;
  drive_until ctx (fun () -> c.completed >= target)
