module Clock = Purity_sim.Clock
module Rng = Purity_util.Rng
module Histogram = Purity_util.Histogram

type config = {
  disks : int;
  seek_ms : float;
  rotate_ms : float;
  transfer_mb_s : float;
  read_cache_hit : float;
  cache_hit_us : float;
  write_cache_us : float;
  destage_fraction : float;
}

let default_config =
  {
    disks = 120;
    seek_ms = 3.5;
    rotate_ms = 2.0;
    transfer_mb_s = 180.0;
    read_cache_hit = 0.2;
    cache_hit_us = 250.0;
    write_cache_us = 120.0;
    destage_fraction = 0.3;
  }

type t = {
  cfg : config;
  clock : Clock.t;
  rng : Rng.t;
  disk_free_at : float array;
  mutable rr : int;
  read_hist : Histogram.t;
  (* write cache destage: sustained writes are bounded by spindle time *)
  mutable destage_backlog_us : float;
  mutable destage_drain_mark : float;
}

let create ?(config = default_config) ~clock ~seed () =
  {
    cfg = config;
    clock;
    rng = Rng.create ~seed;
    disk_free_at = Array.make config.disks 0.0;
    rr = 0;
    read_hist = Histogram.create ();
    destage_backlog_us = 0.0;
    destage_drain_mark = 0.0;
  }

let service_us t bytes =
  ((t.cfg.seek_ms +. t.cfg.rotate_ms) *. 1000.0)
  +. (float_of_int bytes /. (t.cfg.transfer_mb_s *. 1024.0 *. 1024.0 /. 1e6))

(* Pick the least-loaded of two random spindles (striping abstracted). *)
let pick_disk t =
  let a = Rng.int t.rng t.cfg.disks and b = Rng.int t.rng t.cfg.disks in
  if t.disk_free_at.(a) <= t.disk_free_at.(b) then a else b

let read t ~bytes k =
  let now = Clock.now t.clock in
  if Rng.float t.rng 1.0 < t.cfg.read_cache_hit then begin
    Histogram.record t.read_hist t.cfg.cache_hit_us;
    Clock.schedule t.clock ~delay:t.cfg.cache_hit_us k
  end
  else begin
    let d = pick_disk t in
    let start = Float.max now t.disk_free_at.(d) in
    let finish = start +. service_us t bytes in
    t.disk_free_at.(d) <- finish;
    Histogram.record t.read_hist (finish -. now);
    Clock.schedule_at t.clock ~at:finish k
  end

(* Writes ack from battery-backed RAM; destaging consumes reserved spindle
   time. When the backlog exceeds what the reserved fraction can drain,
   writes stall behind it (cache-full back-pressure). *)
let write t ~bytes k =
  let now = Clock.now t.clock in
  (* drain the backlog model *)
  let drained = (now -. t.destage_drain_mark) *. t.cfg.destage_fraction *. float_of_int t.cfg.disks in
  t.destage_backlog_us <- Float.max 0.0 (t.destage_backlog_us -. drained);
  t.destage_drain_mark <- now;
  t.destage_backlog_us <- t.destage_backlog_us +. service_us t bytes;
  let capacity_us = 50_000.0 *. float_of_int t.cfg.disks in
  let stall =
    if t.destage_backlog_us > capacity_us then
      (t.destage_backlog_us -. capacity_us) /. (t.cfg.destage_fraction *. float_of_int t.cfg.disks)
    else 0.0
  in
  let latency = t.cfg.write_cache_us +. stall in
  Clock.schedule t.clock ~delay:latency k

let read_lat t = t.read_hist
