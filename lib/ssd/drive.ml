module Clock = Purity_sim.Clock
module Rng = Purity_util.Rng
module Xxhash = Purity_util.Xxhash

type config = {
  au_size : int;
  num_aus : int;
  page_size : int;
  dies : int;
  read_us : float;
  program_us : float;
  erase_us : float;
  channel_mb_s : float;
  pe_rating : int;
  retention_mean_us : float;
  vertical_parity : bool;
}

let year_us = 365.0 *. 86400.0 *. 1e6

let default_config =
  {
    au_size = 8 * 1024 * 1024;
    num_aus = 256;
    page_size = 4096;
    dies = 8;
    read_us = 90.0;
    program_us = 250.0;
    erase_us = 2000.0;
    channel_mb_s = 480.0;
    pe_rating = 3000;
    retention_mean_us = year_us;
    vertical_parity = false;
  }

type error = [ `Offline | `Corrupt of int ]

module Registry = Purity_telemetry.Registry

type t = {
  cfg : config;
  clock : Clock.t;
  drive_id : int;
  salt : int64; (* per-drive hash salt for deterministic corruption draws *)
  injected : (int * int, unit) Hashtbl.t; (* (au, page) forced-corrupt marks *)
  contents : (int, Bytes.t) Hashtbl.t; (* au -> data, allocated lazily *)
  fill : int array; (* append pointer per AU *)
  pe : int array; (* P/E cycles per AU *)
  written_at : float array; (* time of first program after last erase *)
  die_free_at : float array;
  mutable channel_free_at : float;
  mutable write_busy_until : float;
  mutable online : bool;
  (* counters: the drive outlives any controller, so it owns its cells
     and every controller's registry adopts them *)
  reads : Registry.counter;
  writes : Registry.counter;
  bytes_read : Registry.counter;
  bytes_written : Registry.counter;
  trims : Registry.counter;
  corrupt_reads : Registry.counter;
  program_stalls : Registry.counter;
}

let create ?(config = default_config) ~clock ~rng ~id () =
  {
    cfg = config;
    clock;
    drive_id = id;
    salt = Rng.next_int64 rng;
    injected = Hashtbl.create 4;
    contents = Hashtbl.create 64;
    fill = Array.make config.num_aus 0;
    pe = Array.make config.num_aus 0;
    written_at = Array.make config.num_aus 0.0;
    die_free_at = Array.make config.dies 0.0;
    channel_free_at = 0.0;
    write_busy_until = 0.0;
    online = true;
    reads = Registry.cell ();
    writes = Registry.cell ();
    bytes_read = Registry.cell ();
    bytes_written = Registry.cell ();
    trims = Registry.cell ();
    corrupt_reads = Registry.cell ();
    program_stalls = Registry.cell ();
  }

let id t = t.drive_id
let config t = t.cfg
let fail t = t.online <- false
let restore t = t.online <- true

let replace t =
  Hashtbl.reset t.contents;
  Hashtbl.reset t.injected;
  Array.fill t.fill 0 t.cfg.num_aus 0;
  Array.fill t.pe 0 t.cfg.num_aus 0;
  Array.fill t.written_at 0 t.cfg.num_aus 0.0;
  t.online <- true

let is_online t = t.online
let au_fill t ~au = t.fill.(au)
let au_pe_count t ~au = t.pe.(au)
let busy_writing t = Clock.now t.clock < t.write_busy_until
let wear_to t ~pe = Array.fill t.pe 0 t.cfg.num_aus pe

(* Fault injection: mark one page as latently corrupt, as though its
   charge leaked. The mark behaves exactly like age-induced retention
   loss — reads surface [`Corrupt], vertical parity may repair it, and an
   erase (trim/replace) clears it — so scrub and RS repair paths see the
   same physics either way. *)
let inject_page_corruption t ~au ~page =
  if au < 0 || au >= t.cfg.num_aus then invalid_arg "Drive.inject_page_corruption: bad au";
  if page < 0 || page * t.cfg.page_size >= t.cfg.au_size then
    invalid_arg "Drive.inject_page_corruption: bad page";
  Hashtbl.replace t.injected (au, page) ()

let injected_corrupt_pages t = Hashtbl.length t.injected

(* Wear summary across the drive's AUs. *)
let pe_max t = Array.fold_left max 0 t.pe

let pe_mean t =
  if t.cfg.num_aus = 0 then 0.0
  else float_of_int (Array.fold_left ( + ) 0 t.pe) /. float_of_int t.cfg.num_aus

let register_telemetry t reg =
  let p name = Printf.sprintf "ssd/drive%d/%s" t.drive_id name in
  List.iter
    (fun (name, c) -> Registry.attach_counter reg (p name) c)
    [
      ("reads", t.reads);
      ("writes", t.writes);
      ("bytes_read", t.bytes_read);
      ("bytes_written", t.bytes_written);
      ("trims", t.trims);
      ("corrupt_reads", t.corrupt_reads);
      ("program_stalls", t.program_stalls);
    ];
  Registry.derive_int reg (p "injected_corrupt_pages") (fun () -> injected_corrupt_pages t);
  Registry.derive_int reg (p "pe_max") (fun () -> pe_max t);
  Registry.derive_float reg (p "pe_mean") (fun () -> pe_mean t);
  Registry.derive_float reg (p "wear_ratio") (fun () ->
      pe_mean t /. float_of_int t.cfg.pe_rating);
  Registry.derive_int reg (p "online") (fun () -> if t.online then 1 else 0)

let channel_us t len =
  float_of_int len /. (t.cfg.channel_mb_s *. 1024.0 *. 1024.0 /. 1e6)

let au_buffer t au =
  match Hashtbl.find_opt t.contents au with
  | Some b -> b
  | None ->
    let b = Bytes.make t.cfg.au_size '\000' in
    Hashtbl.replace t.contents au b;
    b

(* Which die a page of an AU lives on: sequential pages stripe round-robin
   across dies, as real drives do for write bandwidth. *)
let die_of_page t ~au ~page = (au + page) mod t.cfg.dies

(* Deterministic retention model. Each page gets a "death age" drawn (by
   hashing, so re-reads agree) from an exponential whose mean shrinks as
   wear exceeds the rating; the page reads as corrupt once its age since
   the last program exceeds that draw. Below 80% of the rating flash is
   effectively immortal, matching the paper's observation that typical
   customers never approach P/E limits. *)
let page_corrupt t ~au ~page =
  (* the probe's key is a fresh pair: build it only when a mark exists *)
  if Hashtbl.length t.injected > 0 && Hashtbl.mem t.injected (au, page) then true
  else
  let pe = t.pe.(au) in
  let ratio = float_of_int pe /. float_of_int t.cfg.pe_rating in
  if ratio < 0.8 then false
  else begin
    let age = Clock.now t.clock -. t.written_at.(au) in
    let wear = Float.max 0.05 (ratio -. 0.8) in
    let mean = t.cfg.retention_mean_us /. (wear /. 0.2) in
    let key = Bytes.create 24 in
    Bytes.set_int64_le key 0 (Int64.of_int au);
    Bytes.set_int64_le key 8 (Int64.of_int page);
    Bytes.set_int64_le key 16 (Int64.of_int pe);
    let h = Xxhash.hash ~seed:t.salt key ~pos:0 ~len:24 in
    let u =
      Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0
    in
    let death_age = -.mean *. log (Float.max u 1e-18) in
    age > death_age
  end

(* Reserve the channel: transfers serialise on the host interface. Returns
   the time the transfer finishes. *)
let reserve_channel t len =
  let start = Float.max (Clock.now t.clock) t.channel_free_at in
  let finish = start +. channel_us t len in
  t.channel_free_at <- finish;
  (start, finish)

let write_chunk t ~au ~off ~data k =
  if not t.online then Clock.schedule t.clock ~delay:1.0 (fun () -> k (Error `Offline))
  else begin
    if au < 0 || au >= t.cfg.num_aus then invalid_arg "Drive.write_chunk: bad au";
    if off <> t.fill.(au) then
      invalid_arg
        (Printf.sprintf "Drive.write_chunk: non-append write (au=%d off=%d fill=%d)" au off
           t.fill.(au));
    let len = Bytes.length data in
    if off + len > t.cfg.au_size then invalid_arg "Drive.write_chunk: AU overflow";
    let buf = au_buffer t au in
    Bytes.blit data 0 buf off len;
    if t.fill.(au) = 0 then t.written_at.(au) <- Clock.now t.clock;
    t.fill.(au) <- off + len;
    Registry.incr t.writes;
    Registry.add t.bytes_written len;
    (* Timing: transfer over the channel, then program pages striped over
       the dies; the dies run in parallel, pages on one die serialise. *)
    let _, transfer_done = reserve_channel t len in
    let pages = (len + t.cfg.page_size - 1) / t.cfg.page_size in
    let first_page = off / t.cfg.page_size in
    let per_die = Array.make t.cfg.dies 0 in
    for p = first_page to first_page + pages - 1 do
      let d = die_of_page t ~au ~page:p in
      per_die.(d) <- per_die.(d) + 1
    done;
    let finish = ref transfer_done in
    for d = 0 to t.cfg.dies - 1 do
      if per_die.(d) > 0 then begin
        let start = Float.max transfer_done t.die_free_at.(d) in
        let done_at = start +. (float_of_int per_die.(d) *. t.cfg.program_us) in
        t.die_free_at.(d) <- done_at;
        if done_at > !finish then finish := done_at
      end
    done;
    t.write_busy_until <- Float.max t.write_busy_until !finish;
    Clock.schedule_at t.clock ~at:!finish (fun () -> k (Ok ()))
  end

let[@purity.lint.allow
     "raises: every caller derives (au, off, len) from \
      [Layout.locate]-validated locations, and [Io.read] converts a \
      locate failure on corrupt metadata into [Error `Unrecoverable]; \
      these guards re-check that precondition, they cannot fire from \
      decoded data"] read t ~au ~off ~len k =
  if not t.online then Clock.schedule t.clock ~delay:1.0 (fun () -> k (Error `Offline))
  else begin
    if au < 0 || au >= t.cfg.num_aus then invalid_arg "Drive.read: bad au";
    if off < 0 || len < 0 || off + len > t.cfg.au_size then invalid_arg "Drive.read: bad range";
    Registry.incr t.reads;
    Registry.add t.bytes_read len;
    let data =
      match Hashtbl.find_opt t.contents au with
      | Some buf -> Bytes.sub buf off len
      | None -> Bytes.make len '\000'
    in
    (* Corruption check per touched page. With vertical parity (paper
       4.2: "flash translation layers can quickly recover a single
       corrupted page without the need to read data from the other
       drives"), a lone bad page in its 16-page parity group is repaired
       internally at the cost of reading the group; two or more losses in
       one group surface as corruption. *)
    let first_page = off / t.cfg.page_size in
    let last_page = if len = 0 then first_page else (off + len - 1) / t.cfg.page_size in
    let corrupt = ref None in
    let internal_repairs = ref 0 in
    let group_size = 16 in
    let group_corruption page =
      let g0 = page / group_size * group_size in
      let n = ref 0 in
      for q = g0 to g0 + group_size - 1 do
        if page_corrupt t ~au ~page:q then incr n
      done;
      !n
    in
    (if t.fill.(au) > 0 then
       for p = first_page to last_page do
         if !corrupt = None && page_corrupt t ~au ~page:p then
           if t.cfg.vertical_parity && group_corruption p <= 1 then incr internal_repairs
           else corrupt := Some p
       done);
    (* Timing: sequential pages stripe across the dies, so a multi-page
       read runs its dies in parallel (pages sharing a die serialise);
       any program or erase in progress on a die is waited out. Then the
       channel transfer. *)
    let pages = max 1 (last_page - first_page + 1) in
    let per_die = Array.make t.cfg.dies 0 in
    for p = first_page to first_page + pages - 1 do
      let d = die_of_page t ~au ~page:p in
      per_die.(d) <- per_die.(d) + 1
    done;
    let now = Clock.now t.clock in
    let flash_done = ref now in
    let stalled = ref false in
    for d = 0 to t.cfg.dies - 1 do
      if per_die.(d) > 0 then begin
        if t.die_free_at.(d) > now then stalled := true;
        let start = Float.max now t.die_free_at.(d) in
        let done_at = start +. (float_of_int per_die.(d) *. t.cfg.read_us) in
        t.die_free_at.(d) <- done_at;
        if done_at > !flash_done then flash_done := done_at
      end
    done;
    (* a read queued behind an in-progress program/erase on its die — the
       latency spike Purity's scheduler reads around (§4.4) *)
    if !stalled then Registry.incr t.program_stalls;
    (* internal parity repairs read the rest of the group *)
    let repair_us =
      float_of_int !internal_repairs *. 15.0 *. t.cfg.read_us /. float_of_int t.cfg.dies
    in
    let start = Float.max (!flash_done +. repair_us) t.channel_free_at in
    let finish = start +. channel_us t len in
    t.channel_free_at <- finish;
    let result =
      match !corrupt with
      | Some p ->
        Registry.incr t.corrupt_reads;
        Error (`Corrupt p)
      | None -> Ok data
    in
    Clock.schedule_at t.clock ~at:finish (fun () -> k result)
  end

let trim_au t ~au =
  if au < 0 || au >= t.cfg.num_aus then invalid_arg "Drive.trim_au: bad au";
  Hashtbl.remove t.contents au;
  (* the walk needs a copy of the marks: skip both when none exists *)
  if Hashtbl.length t.injected > 0 then
    Hashtbl.iter
      (fun ((a, _) as key) () -> if a = au then Hashtbl.remove t.injected key)
      (Hashtbl.copy t.injected);
  t.fill.(au) <- 0;
  t.pe.(au) <- t.pe.(au) + 1;
  Registry.incr t.trims;
  (* The erase occupies the AU's dies; reads landing there meanwhile stall. *)
  let now = Clock.now t.clock in
  for d = 0 to t.cfg.dies - 1 do
    t.die_free_at.(d) <- Float.max t.die_free_at.(d) now +. (t.cfg.erase_us /. float_of_int t.cfg.dies)
  done;
  t.write_busy_until <- Float.max t.write_busy_until (now +. t.cfg.erase_us)
