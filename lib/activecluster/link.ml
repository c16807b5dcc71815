(* The simulated array-to-array interconnect.

   ActiveCluster stretches a pod over two arrays joined by a dedicated
   replication link; every synchronous mirror write, mirror ack and
   resync transfer crosses it. The model is a lossy, jittery,
   partitionable message channel on the shared simulation clock:

   - each message is delayed by [latency_us] plus a uniform jitter draw
     (jitter makes reordering real: two messages sent back-to-back can
     arrive swapped);
   - a seeded coin drops messages with probability [loss_prob] — the
     retransmit/timeout machinery above must absorb this;
   - [cut]/[heal] model a hard partition. Cutting the link also destroys
     every message in flight: a partition does not buffer, it kills.

   All randomness flows through one seeded [Rng.t], so a scenario replays
   bit-for-bit per seed. *)

module Clock = Purity_sim.Clock
module Rng = Purity_util.Rng
module Registry = Purity_telemetry.Registry

(* A metro-distance link: ~200 us one way, up to 60 us of uniform
   jitter, one message in a thousand lost. ActiveCluster supports up to
   5 ms RTT; this stays well inside it so mirror timeouts are
   unambiguous. *)
let latency_us = 200.0
let jitter_us = 60.0
let loss_prob = 0.001

type t = {
  clock : Clock.t;
  rng : Rng.t;
  mutable up : bool;
  mutable cuts : int;  (* partition epoch: bumped on every [cut] *)
  sent : Registry.counter;
  delivered : Registry.counter;
  dropped_loss : Registry.counter;  (* random loss while healthy *)
  dropped_cut : Registry.counter;  (* sent or in flight across a partition *)
}

let create ~clock () =
  {
    clock;
    rng = Rng.create ~seed:0x11CCL;
    up = true;
    cuts = 0;
    sent = Registry.cell ();
    delivered = Registry.cell ();
    dropped_loss = Registry.cell ();
    dropped_cut = Registry.cell ();
  }

let up t = t.up
let cut t = if t.up then begin t.up <- false; t.cuts <- t.cuts + 1 end
let heal t = t.up <- true

(* Send a message; [k] fires at delivery time. A dropped message fires
   nothing — the sender's timeout is the only way to notice. The jitter
   draw happens even for messages doomed by a partition, so the Rng
   stream depends only on the sequence of sends, not on link state. *)
let send t k =
  Registry.incr t.sent;
  let delay = latency_us +. Rng.float t.rng jitter_us in
  let lost = Rng.float t.rng 1.0 < loss_prob in
  if not t.up then Registry.incr t.dropped_cut
  else if lost then Registry.incr t.dropped_loss
  else begin
    let epoch = t.cuts in
    Clock.schedule t.clock ~delay (fun () ->
        if t.up && t.cuts = epoch then begin
          Registry.incr t.delivered;
          k ()
        end
        else Registry.incr t.dropped_cut)
  end

(* A reliable bulk transfer for resync traffic: charges the same latency
   but is immune to loss and reordering (the resync protocol above runs
   request/response with retries until the transfer lands; modelling the
   retries individually would only add clock noise). Still killed by a
   partition — resync across a cut link cannot make progress, and unlike
   [send] the sender is told ([fail]) so a failback can abort cleanly
   instead of hanging. *)
let transfer t ~bytes ~fail k =
  Registry.incr t.sent;
  (* 1 GbE-class replication port: ~1 us per KiB on top of propagation *)
  let delay = latency_us +. (float_of_int bytes /. 1024.0) in
  if not t.up then begin
    Registry.incr t.dropped_cut;
    Clock.schedule t.clock ~delay:0.0 fail
  end
  else begin
    let epoch = t.cuts in
    Clock.schedule t.clock ~delay (fun () ->
        if t.up && t.cuts = epoch then begin
          Registry.incr t.delivered;
          k ()
        end
        else begin
          Registry.incr t.dropped_cut;
          fail ()
        end)
  end
