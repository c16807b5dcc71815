module Clock = Purity_sim.Clock
module Registry = Purity_telemetry.Registry

type t = {
  clock : Clock.t;
  drives : Drive.t array;
  nvram : Nvram.t;
  (* the boot region: one blob, written and read serially *)
  mutable boot_blob : string option;
  mutable boot_free_at : float;
  boot_writes : Registry.counter;
  durable_writes : Registry.counter; (* the durable-write index *)
}

type port = { shelf : t; mutable fenced : bool }

let create ?(drive_config = Drive.default_config) ?nvram_capacity ~clock ~rng ~drives () =
  if drives < 3 then invalid_arg "Shelf.create: need at least 3 drives";
  let mk i = Drive.create ~config:drive_config ~clock ~rng:(Purity_util.Rng.split rng) ~id:i () in
  {
    clock;
    drives = Array.init drives mk;
    nvram = Nvram.create ?capacity:nvram_capacity ~clock ();
    boot_blob = None;
    boot_free_at = 0.0;
    boot_writes = Registry.cell ();
    durable_writes = Registry.cell ();
  }

let clock t = t.clock
let drive_count t = Array.length t.drives
let drive t i = t.drives.(i)
let drives t = t.drives
let nvram t = t.nvram

let online_drives t =
  Array.to_list t.drives
  |> List.filter Drive.is_online
  |> List.map Drive.id

let physical_bytes t =
  Array.fold_left
    (fun acc d ->
      let cfg = Drive.config d in
      acc + (cfg.Drive.au_size * cfg.Drive.num_aus))
    0 t.drives

let pull_drive t i = Drive.fail t.drives.(i)
let reinsert_drive t i = Drive.restore t.drives.(i)
let replace_drive t i = Drive.replace t.drives.(i)

(* ---------- the boot region (paper §4.3): a few pages mirrored to two
   drives, 600 us per write and 250 us per read, one at a time ---------- *)

let boot_write_us = 600.0
let boot_read_us = 250.0

let reserve_boot t dur =
  let finish = Float.max (Clock.now t.clock) t.boot_free_at +. dur in
  t.boot_free_at <- finish;
  finish

let read_boot t k =
  let blob = t.boot_blob in
  Clock.schedule_at t.clock ~at:(reserve_boot t boot_read_us) (fun () -> k blob)

let boot_writes t = t.boot_writes

(* ---------- reads: no port, no index, never fenced ---------- *)

let read_chunk t ~drive ~au ~off ~len k = Drive.read t.drives.(drive) ~au ~off ~len k
let nvram_records t = Nvram.records t.nvram

(* ---------- ports: a controller's one way to change the shelf ---------- *)

let attach shelf = { shelf; fenced = false }
let fence p = p.fenced <- true
let fenced p = p.fenced
let port_shelf p = p.shelf

(* An accepted submission takes the next durable-write index. *)
let take_index p = Registry.incr p.shelf.durable_writes

let write_chunk p ~drive ~au ~off ~data k =
  if not p.fenced then begin
    let d = p.shelf.drives.(drive) in
    if Drive.is_online d then take_index p;
    Drive.write_chunk d ~au ~off ~data k
  end

let trim_au p ~drive ~au =
  if not p.fenced then begin
    take_index p;
    Drive.trim_au p.shelf.drives.(drive) ~au
  end

let nvram_commit p ~seq ~len build k =
  if not p.fenced then begin
    if Nvram.fits p.shelf.nvram len then take_index p;
    Nvram.commit p.shelf.nvram ~seq ~len build k
  end

let nvram_refuses p len = (not p.fenced) && not (Nvram.fits p.shelf.nvram len)

let nvram_trim_upto p seq =
  if not p.fenced then begin
    take_index p;
    Nvram.trim_upto p.shelf.nvram seq
  end

let write_boot p blob k =
  if not p.fenced then begin
    let t = p.shelf in
    take_index p;
    t.boot_blob <- Some blob;
    Registry.incr t.boot_writes;
    Clock.schedule_at t.clock ~at:(reserve_boot t boot_write_us) k
  end

let register_telemetry t reg =
  Array.iter (fun d -> Drive.register_telemetry d reg) t.drives;
  Registry.derive_int reg "ssd/online_drives" (fun () -> List.length (online_drives t));
  Registry.derive_int reg "ssd/pe_max" (fun () ->
      Array.fold_left (fun acc d -> max acc (Drive.pe_max d)) 0 t.drives);
  Registry.derive_int reg "nvram/used_bytes" (fun () -> Nvram.used_bytes t.nvram);
  Registry.derive_int reg "nvram/capacity" (fun () -> Nvram.capacity t.nvram);
  Registry.attach_counter reg "shelf/durable_writes" t.durable_writes
