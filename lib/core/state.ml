(* Shared state of one Purity array (controller-resident volatile state
   plus handles to the shelf's persistent devices). The public facade is
   {!Array_}; the write/read/GC/recovery paths live in sibling modules
   operating over this record. *)

module Clock = Purity_sim.Clock
module Stbl = Purity_util.Keytbl.Str
module Rng = Purity_util.Rng
module Histogram = Purity_util.Histogram
module Lru = Purity_util.Lru
module Varint = Purity_util.Varint
module Shelf = Purity_ssd.Shelf
module Drive = Purity_ssd.Drive
module Nvram = Purity_ssd.Nvram
module Rs = Purity_erasure.Reed_solomon
module Layout = Purity_segment.Layout
module Segment = Purity_segment.Segment
module Allocator = Purity_segment.Allocator
module Writer = Purity_segment.Writer
module Scan = Purity_segment.Scan
module Io = Purity_sched.Io
module Pyramid = Purity_pyramid.Pyramid
module Fact = Purity_pyramid.Fact
module Patch = Purity_pyramid.Patch
module Seqno = Purity_pyramid.Seqno
module Medium = Purity_medium.Medium
module Dedup = Purity_dedup.Dedup
module Cblock = Purity_compress.Cblock
module Registry = Purity_telemetry.Registry
module Span = Purity_telemetry.Span

let block_size = 512
let max_cblock_blocks = Cblock.max_logical / block_size

(* Paper 4.4: at most two drives of a write group program at once, so
   a read can always reconstruct around the writers from the rest. *)
let segment_writers = 2

type config = {
  drives : int;
  drive_config : Drive.config;
  k : int;
  m : int;
  write_unit : int;
  nvram_capacity : int;
  memtable_flush : int;
  read_around_write : bool;
  p95_backup : bool;
  inline_dedup : bool;
  compression : bool;
  read_cache_entries : int; (* decoded cblocks cached in controller DRAM; 0 = off *)
  secondary_warming : bool;
      (* paper 4.3: the primary asynchronously warms the spare's cache, so
         a failover starts warm instead of cold *)
  seed : int64;
}

let default_config =
  {
    drives = 11;
    drive_config =
      {
        Drive.default_config with
        (* header page + 16 rows of 32 KiB write units *)
        Drive.au_size = 4096 + (16 * 32768);
        num_aus = 128;
        dies = 8;
      };
    k = 7;
    m = 2;
    write_unit = 32 * 1024;
    nvram_capacity = 16 * 1024 * 1024;
    memtable_flush = 4096;
    read_around_write = true;
    p95_backup = false;
    inline_dedup = true;
    compression = true;
    read_cache_entries = 4096;
    secondary_warming = true;
    seed = 0x5EEDL;
  }

type volume_kind = Volume | Snapshot

(* Paper 4.6: instead of per-volume block-size tuning knobs, the array
   observes each volume's write sizes and sizes cblocks to match, so
   later reads (which overwhelmingly use the same size and alignment as
   the write that created the data) fetch a single cblock. *)
type io_observer = {
  mutable size_counts : int array; (* histogram over power-of-two block counts 1..64 *)
  mutable observed : int;
}

type volume = {
  medium : int;
  blocks : int;
  kind : volume_kind;
  observer : io_observer;
}

let fresh_observer () = { size_counts = Array.make 7 0; observed = 0 }

let observe_write obs ~nblocks =
  (* bucket by power of two: 1,2,4,8,16,32,64 blocks (512 B - 32 KiB) *)
  let rec bucket i cap = if nblocks <= cap || i = 6 then i else bucket (i + 1) (cap * 2) in
  let b = bucket 0 1 in
  obs.size_counts.(b) <- obs.size_counts.(b) + 1;
  obs.observed <- obs.observed + 1

(* The dominant write size (in 512 B blocks), defaulting to the 32 KiB
   maximum until enough evidence accumulates. *)
let inferred_io_blocks obs =
  if obs.observed < 16 then 64
  else begin
    let best = ref 6 and best_count = ref 0 in
    Array.iteri
      (fun i c ->
        if c > !best_count then begin
          best := i;
          best_count := c
        end)
      obs.size_counts;
    1 lsl !best
  end

(* The write/read-path counters, as registry handles: the telemetry
   registry owns the cells, the hot paths record through them, and
   Flash_array.stats (and the phone-home exporter) read them back. *)
type write_stats = {
  app_writes : Registry.counter;
  logical_bytes : Registry.counter; (* application bytes ever written *)
  stored_bytes : Registry.counter; (* cblock frames appended to segments *)
  dedup_blocks : Registry.counter; (* 512B blocks absorbed by inline dedup *)
  gc_dedup_blocks : Registry.counter; (* cblocks collapsed by the GC pass *)
  cache_hits : Registry.counter; (* controller-DRAM read cache *)
  cache_misses : Registry.counter;
  nvram_commit_us : Histogram.t; (* write intent -> durability ack *)
}

type t = {
  cfg : config;
  clock : Clock.t;
  tel : Registry.t;
  tracer : Span.tracer;
  shelf : Shelf.t;
  layout : Layout.t;
  rs : Rs.t;
  io : Io.t;
  alloc : Allocator.t;
  boot : Boot_region.t;
  seqno : Seqno.t;
  (* relations *)
  blocks : Block_index.t; (* (medium, block) -> Blockref; elide by medium *)
  mediums_pyr : Pyramid.t; (* medium -> extents; elide by medium *)
  segments_pyr : Pyramid.t; (* segment -> compact meta; tombstones *)
  volumes_pyr : Pyramid.t; (* name -> (kind, medium, blocks); tombstones *)
  (* volatile derived state *)
  mutable medium_table : Medium.t;
  volumes : volume Stbl.t;
  segment_metas : (int, Segment.t) Hashtbl.t;
  mutable checkpoint_segments : int list; (* hold the current checkpoint *)
  mutable next_segment_id : int;
  mutable open_writer : Writer.t option;
  unflushed : (int, Writer.t) Hashtbl.t;
      (* segios (open or sealed) whose bytes are not yet on the drives;
         reads of their payload are served from RAM *)
  sealed : (Writer.t * int64) Queue.t;
      (* sealed segios in seal order, each with the NVRAM watermark its
         flush may trim to. Flushed one at a time, head first, so that at
         most [segment_writers] drives in the whole array are programming
         simultaneously (the §4.4 discipline that keeps read-around-write
         amplification near the paper's 1.3x) and flushes complete in
         seal order *)
  mutable flush_active : bool; (* the head of [sealed] is flushing *)
  mutable last_applied_intent : int64;
      (* highest NVRAM intent fully applied to segios; the safe trim
         watermark when the current segio seals *)
  mutable flush_waiters : (unit -> unit) list;
  mutable checkpoint_dir : (string * string * (string * int * int) list) list;
      (* last checkpoint's patch directory: pyramid name, encoded elide
         ranges (empty for tombstone tables), chunks as (compact segment
         meta, payload off, len) *)
  mutable checkpoint_seq : int64;
      (* seq watermark of the last completed checkpoint: every fact with a
         sequence number at or below it is covered by the patches, and its
         tombstone (if any) may have been dropped by the checkpoint's full
         compaction — so recovery must never replay log records this old,
         or compacted-away deletions would resurrect *)
  mutable medium_next_id : int;
  mutable boot_generation_written : int;
  dedup : Dedup.t;
  dedup_locs : (int, Blockref.t) Hashtbl.t; (* dedup write id -> cblock home *)
  mutable arenas : Arena.t array;
      (* per-lane compress/frame scratch for the fill loop: index 0 is the
         controller's own (serial) arena; grown to the pool's lane count
         on first parallel fill (lane_arenas) *)
  read_cache : string Lru.Ipair.t;
      (* (segment, off) -> the cblock's verified, decompressed bytes *)
  (* accounting *)
  write_lat : Histogram.t;
  read_lat : Histogram.t;
  ws : write_stats;
  mutable online : bool;
  mutable crashed_at : float option;
  mutable downtime_us : float;
  mutable boot_time : float;
}

let blocks_policy = Block_index.Elide (fun f -> fst f.Block_index.Fact.key)
let mediums_policy = Pyramid.Elide (fun f -> Keys.medium_key_id f.Fact.key)

let fresh_volatile cfg clock =
  let create policy table =
    Pyramid.create ~memtable_flush_count:cfg.memtable_flush ~policy
      ~name:(Meta_log.name table) ()
  in
  ( Block_index.create ~memtable_flush_count:cfg.memtable_flush ~policy:blocks_policy
      ~name:(Meta_log.name Blocks) (),
    create mediums_policy Mediums,
    create Pyramid.Tombstones Segments,
    create Pyramid.Tombstones Volumes,
    ignore clock )

(* Derived metrics over controller state: sampled at snapshot time, so
   the registry exposes live table sizes without per-mutation recording. *)
let register_derived_telemetry t =
  let reg = t.tel in
  Registry.derive_int reg "segments/live" (fun () -> Hashtbl.length t.segment_metas);
  Registry.derive_int reg "segments/unflushed" (fun () -> Hashtbl.length t.unflushed);
  Registry.derive_int reg "segments/pending_flushes" (fun () -> Queue.length t.sealed);
  Registry.derive_int reg "segments/next_id" (fun () -> t.next_segment_id);
  Registry.derive_int reg "volumes/count" (fun () -> Stbl.length t.volumes);
  Registry.derive_int reg "pyramid/blocks_facts" (fun () -> Block_index.fact_count t.blocks);
  Registry.derive_int reg "pyramid/blocks_patches" (fun () -> Block_index.patch_count t.blocks);
  Registry.derive_int reg "pyramid/blocks_probes" (fun () ->
      let p, _, _ = Block_index.probe_stats t.blocks in
      p);
  Registry.derive_int reg "pyramid/blocks_fence_skips" (fun () ->
      let _, f, _ = Block_index.probe_stats t.blocks in
      f);
  Registry.derive_int reg "pyramid/blocks_bloom_skips" (fun () ->
      let _, _, b = Block_index.probe_stats t.blocks in
      b);
  Registry.derive_int reg "trace/dropped_spans" (fun () -> Span.dropped t.tracer);
  (* data-plane kernel throughput: process-wide cells (the kernels sit
     below the telemetry library in the dependency order), re-derived
     into whichever controller registry is current *)
  List.iter
    (fun (k : Purity_util.Kernel_stats.kernel) ->
      Registry.derive_int reg ("kernels/" ^ k.name ^ "_bytes") (fun () -> k.bytes);
      Registry.derive_int reg ("kernels/" ^ k.name ^ "_calls") (fun () -> k.calls);
      Registry.derive_int reg ("kernels/" ^ k.name ^ "_ns") (fun () -> k.ns))
    Purity_util.Kernel_stats.all

let create_over ~config ~clock ~shelf ~boot () =
  let layout =
    Layout.make ~k:config.k ~m:config.m ~write_unit:config.write_unit
      ~au_size:config.drive_config.Drive.au_size ()
  in
  let rs = Rs.create ~k:config.k ~m:config.m in
  let io =
    Io.create ~layout ~shelf ~rs ~read_around_write:config.read_around_write
      ~p95_backup:config.p95_backup ()
  in
  let alloc =
    Allocator.create ~layout ~drives:config.drives
      ~aus_per_drive:config.drive_config.Drive.num_aus ()
  in
  let blocks, mediums_pyr, segments_pyr, volumes_pyr, () = fresh_volatile config clock in
  (* The controller's metric namespace: a fresh registry per controller
     generation (a failover boots the spare with zeroed path counters,
     exactly as the old per-field ints behaved). *)
  let tel = Registry.create () in
  let tracer = Span.create_tracer ~clock () in
  Shelf.register_telemetry shelf tel;
  Io.register_telemetry io tel;
  let t =
    {
    cfg = config;
    clock;
    tel;
    tracer;
    shelf;
    layout;
    rs;
    io;
    alloc;
    boot;
    seqno = Seqno.create ();
    blocks;
    mediums_pyr;
    segments_pyr;
    volumes_pyr;
    medium_table = Medium.create ();
    volumes = Stbl.create 16;
    segment_metas = Hashtbl.create 64;
    checkpoint_segments = [];
    next_segment_id = 1;
    open_writer = None;
    unflushed = Hashtbl.create 8;
    sealed = Queue.create ();
    flush_active = false;
    last_applied_intent = 0L;
    flush_waiters = [];
    checkpoint_dir = [];
    checkpoint_seq = 0L;
    medium_next_id = 1;
    boot_generation_written = 0;
    dedup = Dedup.create ();
    dedup_locs = Hashtbl.create 1024;
    arenas = [| Arena.create () |];
    read_cache = Lru.Ipair.create ~capacity:(max 1 config.read_cache_entries);
    write_lat = Registry.histogram tel "write_path/latency_us";
    read_lat = Registry.histogram tel "read_path/latency_us";
    ws =
      {
        app_writes = Registry.counter tel "write_path/app_writes";
        logical_bytes = Registry.counter tel "write_path/logical_bytes";
        stored_bytes = Registry.counter tel "write_path/stored_bytes";
        dedup_blocks = Registry.counter tel "dedup/inline_blocks";
        gc_dedup_blocks = Registry.counter tel "dedup/gc_blocks";
        cache_hits = Registry.counter tel "read_path/cache_hits";
        cache_misses = Registry.counter tel "read_path/cache_misses";
        nvram_commit_us = Registry.histogram tel "write_path/nvram_commit_us";
      };
    online = true;
    crashed_at = None;
    downtime_us = 0.0;
    boot_time = Clock.now clock;
    }
  in
  register_derived_telemetry t;
  t

let create ?(config = default_config) ~clock () =
  let rng = Rng.create ~seed:config.seed in
  let shelf =
    Shelf.create ~drive_config:config.drive_config ~nvram_capacity:config.nvram_capacity
      ~clock ~rng ~drives:config.drives ()
  in
  let boot = Boot_region.create ~clock () in
  create_over ~config ~clock ~shelf ~boot ()

let nvram t = Shelf.nvram t.shelf

(* The string-keyed tables' pyramids. The block index is [t.blocks],
   typed apart; no caller asks for it here. *)
let pyramid t : Meta_log.table -> Pyramid.t = function
  | Mediums -> t.mediums_pyr
  | Segments -> t.segments_pyr
  | Volumes -> t.volumes_pyr
  | Blocks -> invalid_arg "State.pyramid: the block index is typed; use t.blocks"

(* Any table's pyramid with its instance, for what checkpoint and
   recovery do to every table alike. *)
type any_pyramid =
  | Any : (module Purity_pyramid.Pyramid.S with type t = 'p) * 'p -> any_pyramid

let any_pyramid t : Meta_log.table -> any_pyramid = function
  | Blocks -> Any ((module Block_index), t.blocks)
  | Mediums -> Any ((module Pyramid), t.mediums_pyr)
  | Segments -> Any ((module Pyramid), t.segments_pyr)
  | Volumes -> Any ((module Pyramid), t.volumes_pyr)

(* The per-lane scratch arenas for a parallel segment fill, grown (on the
   main domain, before any fan-out) to at least the pool's lane count.
   Lane 0 is the controller's own serial arena. *)
let lane_arenas t ~lanes =
  if Array.length t.arenas < lanes then begin
    let old = t.arenas in
    t.arenas <-
      Array.init lanes (fun i ->
          if i < Array.length old then old.(i) else Arena.create ())
  end;
  t.arenas

(* Stash one metadata record in NVRAM (see {!Meta_log.nvram_backed}).
   Fire-and-forget: the record is durable once admitted, at call time. A
   refusal is dropped here, so a caller that acknowledges on the strength
   of its stashes prices them first, as namespace ops do; the other
   stashers (the flush's commit record, GC and checkpoint bookkeeping)
   have their log copies and the next checkpoint behind them. *)
let stash t ~seq record =
  Nvram.commit (nvram t) ~seq ~len:(String.length record) (fun () -> record) (fun _ -> ())

let online_drive t d = Drive.is_online (Shelf.drive t.shelf d)

(* ---------- fact logging: every metadata mutation is also a log record
   in the current segio, so recovery can rediscover it (Figure 4). ---- *)

exception Out_of_space

(* Forward reference: writer_with_room must persist the boot region when
   an allocation changed the frontier, but the encoder is defined below. *)
let boot_persist_hook : (t -> unit) ref = ref (fun _ -> ())

(* Reserve a single replacement AU on a healthy drive (for segio member
   remaps), erasing any stale contents before use. *)
let allocate_replacement t ~exclude =
  match
    Allocator.allocate_one t.alloc ~allowed:(fun d ->
        online_drive t d && not (List.mem d exclude))
  with
  | None -> None
  | Some (m : Segment.member) ->
    let d = Shelf.drive t.shelf m.Segment.drive in
    if Drive.is_online d && Drive.au_fill d ~au:m.Segment.au > 0 then
      Drive.trim_au d ~au:m.Segment.au;
    Some m

(* Allocate and open a fresh segio writer. Segment-roll granularity:
   runs once per segment (thousands of frames), so its allocations are
   off the steady-state fill loop. *)
let[@purity.lint.coldpath] open_fresh_writer t =
  match Allocator.allocate t.alloc ~online:(online_drive t) with
  | None -> raise Out_of_space
  | Some members ->
    let id = t.next_segment_id in
    t.next_segment_id <- id + 1;
    (* erase-before-reuse: an AU can reach the pool still holding data
       (released while its drive was offline, or torn by a crashed
       controller's aborted flush); trim it now so the append-only
       contract holds *)
    Array.iter
      (fun (m : Segment.member) ->
        let d = Shelf.drive t.shelf m.Segment.drive in
        if Drive.is_online d && Drive.au_fill d ~au:m.Segment.au > 0 then
          Drive.trim_au d ~au:m.Segment.au)
      members;
    let w = Writer.create ~layout:t.layout ~shelf:t.shelf ~rs:t.rs ~members ~id in
    t.open_writer <- Some w;
    Hashtbl.replace t.unflushed id w;
    (* a refill may have changed the persisted frontier: rewrite the
       boot region before this segment accumulates log records *)
    !boot_persist_hook t;
    w

(* Open (allocating if needed) a segment writer with room for [need] more
   payload bytes. Sealing the previous writer is asynchronous; its pages
   are already staged so ordering is preserved. The per-frame fast path
   (open writer with room, members online) allocates nothing. *)
let rec writer_with_room t ~need =
  if not t.online then raise Out_of_space (* dead controllers allocate nothing *);
  if need > Layout.payload_capacity t.layout then
    invalid_arg "writer_with_room: larger than a segment";
  match t.open_writer with
  | None -> open_fresh_writer t
  | Some w ->
    (* a member drive failing after allocation abandons the segio for new
       appends: writes shift to a fully-online write group. Checked with
       a plain loop — an [Array.for_all] closure here would allocate on
       every stored frame. *)
    let members = Writer.members w in
    let members_online = ref true in
    for i = 0 to Array.length members - 1 do
      if not (online_drive t members.(i).Segment.drive) then
        members_online := false
    done;
    if Writer.remaining w >= need && !members_online then w
    else begin
      seal_current t;
      writer_with_room t ~need
    end

(* Seal the open segio: flush it to the drives, register its meta, trim
   the NVRAM records it covers. Segment-roll granularity — everything
   from here down (flush pump, erasure encode, pyramid flush, NVRAM
   trim) amortises over a whole segment of frames. *)
and[@purity.lint.coldpath] seal_current t =
  match t.open_writer with
  | None -> ()
  | Some w ->
    t.open_writer <- None;
    if Writer.is_empty w then begin
      (* never written: hand the AUs back *)
      Hashtbl.remove t.unflushed (Writer.id w);
      Allocator.release t.alloc (Writer.members w)
    end
    else begin
      (* Members whose drive failed since allocation are remapped to fresh
         AUs on healthy drives — the shard data is still in RAM, so the
         stripe reaches the media at full 7+2 redundancy instead of
         flushing already-degraded. *)
      let members = Writer.members w in
      Array.iteri
        (fun i (m : Segment.member) ->
          if not (online_drive t m.Segment.drive) then begin
            let exclude =
              Array.to_list (Array.map (fun (x : Segment.member) -> x.Segment.drive) members)
            in
            match allocate_replacement t ~exclude with
            | Some repl ->
              Allocator.release t.alloc [| m |];
              Writer.set_member w ~index:i repl
            | None -> () (* no healthy spare drive: flush degraded *)
          end)
        members;
      (* Only intents fully applied before this seal are guaranteed to be
         inside this (or an earlier) segio; later intents must stay in
         NVRAM until their own segio flushes. *)
      Queue.add (w, t.last_applied_intent) t.sealed;
      pump_flush t
    end

(* Flush the head of [sealed] (array-wide write staggering: one segio at
   a time, so flushes complete in seal order). *)
and pump_flush t =
  match Queue.peek_opt t.sealed with
  | Some (w, upto) when t.online && not t.flush_active ->
    t.flush_active <- true;
    let remap ~exclude = allocate_replacement t ~exclude in
    let flush_span =
      Span.start t.tracer
        ~tags:
          [
            ("segment", string_of_int (Writer.id w));
            ("data_len", string_of_int (Writer.data_len w));
            ("log_len", string_of_int (Writer.log_len w));
          ]
        "segio_flush"
    in
    Writer.finalize w ~max_writers:segment_writers ~remap ~tracer:t.tracer
      ~parent:flush_span (fun seg ->
        Span.finish flush_span;
        Hashtbl.replace t.segment_metas seg.Segment.id seg;
        Hashtbl.remove t.unflushed seg.Segment.id;
        (* The segment table fact describes the sealed segment; it doubles
           as the commit record, so it is stashed in NVRAM as well — until
           a later flushed segio carries the log copy, the stash is the
           only proof that this segment's contents may be trusted. *)
        let seq = Seqno.next t.seqno in
        let fact =
          Fact.make ~key:(Keys.segment_key seg.Segment.id)
            ~value:(Segment.encode_compact seg) ~seq
        in
        Pyramid.insert t.segments_pyr ~seq ~key:(Keys.segment_key seg.Segment.id)
          ~value:(Segment.encode_compact seg);
        record_fact t Meta_log.Segments fact;
        (* §4.3: every intent at or below [upto] is on the drives now (a
           segio sealed by the log record above queues behind this one) *)
        ignore (Queue.pop t.sealed);
        Nvram.trim_upto (nvram t) upto;
        t.flush_active <- false;
        pump_flush t;
        if Queue.is_empty t.sealed then begin
          (* stored newest-first; fired as stored (see when_flushed) *)
          let waiters = t.flush_waiters in
          t.flush_waiters <- [];
          List.iter (fun f -> f ()) waiters
        end)
  | _ -> ()

(* Append one framed log record, rolling segments as needed (16 bytes
   cover the frame's two varints). *)
and append_log_record t ~seq record =
  Writer.append_log (writer_with_room t ~need:(String.length record + 16)) ~seq record

(* Log a fact in the current segio, and stash it in NVRAM if its table
   is backed. *)
and record_fact t table fact =
  append_log_record t ~seq:fact.Fact.seq (Meta_log.log_fact table fact);
  if Meta_log.nvram_backed table then stash t ~seq:fact.Fact.seq (Meta_log.stash_fact table fact)

(* Log a block-index fact in the current segio (never stashed: the write
   intent that produced it is already in NVRAM). *)
let record_block t (fact : Block_index.Fact.t) =
  append_log_record t ~seq:fact.seq (Meta_log.log_block fact)

(* Store a data blob (cblock frame or patch chunk) in the current segio.
   Returns (segment id, payload offset). *)
let store_blob t data =
  let w = writer_with_room t ~need:(String.length data + 16) in
  (Writer.id w, Writer.append_data w data)

(* [store_blob] for a frame accumulated in a reusable Buffer (the write
   path's arena): the bytes blit straight into the segio. *)
let[@purity.lint.allow
     "hotalloc: the (segment, offset) pair is the stored frame's \
      address — the function's result, two words per frame"] store_frame
    t frame =
  let w = writer_with_room t ~need:(Buffer.length frame + 16) in
  (Writer.id w, Writer.append_buffer w frame)

let record_elide t table ~seq ~lo ~hi =
  append_log_record t ~seq (Meta_log.log_elide table ~seq ~lo ~hi);
  if Meta_log.nvram_backed table then stash t ~seq (Meta_log.stash_elide table ~seq ~lo ~hi)

(* Insert + log helpers used by all mutation paths. *)
let put_fact t (table : Meta_log.table) fact =
  Pyramid.insert_fact (pyramid t table) fact;
  record_fact t table fact

let put t table ~key ~value = put_fact t table (Fact.make ~key ~value ~seq:(Seqno.next t.seqno))
let put_delete t table ~key = put_fact t table (Fact.tombstone ~key ~seq:(Seqno.next t.seqno))

(* Map one block to its reference: the block index's only put. *)
let put_block t ~medium ~block (r : Blockref.t) =
  let fact = Block_index.Fact.make ~key:(medium, block) ~value:r ~seq:(Seqno.next t.seqno) in
  Block_index.insert_fact t.blocks fact;
  record_block t fact

let put_elide t (table : Meta_log.table) ~lo ~hi =
  let seq = Seqno.next t.seqno in
  (match table with
  | Blocks -> Block_index.elide_range t.blocks ~seq ~lo ~hi
  | Mediums | Segments | Volumes -> Pyramid.elide_range (pyramid t table) ~seq ~lo ~hi);
  record_elide t table ~seq ~lo ~hi

(* Persist the current extent rows of a medium as a fact. *)
let medium_value t id = Medium.encode_extents (Medium.extents t.medium_table id)
let persist_medium t id = put t Mediums ~key:(Keys.medium_key id) ~value:(medium_value t id)

let encode_volume_value v =
  let buf = Buffer.create 8 in
  Buffer.add_char buf (match v.kind with Volume -> 'V' | Snapshot -> 'S');
  Varint.write buf v.medium;
  Varint.write buf v.blocks;
  Buffer.contents buf

let decode_volume_value s =
  let buf = Bytes.unsafe_of_string s in
  let kind = match Bytes.get buf 0 with 'V' -> Volume | 'S' -> Snapshot | _ -> invalid_arg "volume value" in
  let medium, p = Varint.read buf ~pos:1 in
  let blocks, _ = Varint.read buf ~pos:p in
  { medium; blocks; kind; observer = fresh_observer () }

let persist_volume t name v = put t Volumes ~key:name ~value:(encode_volume_value v)

(* Nearest level of the medium chain holding this block, one pyramid
   probe per level: the per-block reference [resolve_range] is checked
   against. *)
let resolve_block t ~medium ~block =
  let chain = Medium.resolve t.medium_table medium ~block in
  List.find_map (Block_index.find t.blocks) chain

(* Batched resolution for [nblocks] consecutive logical blocks:
   equivalent to calling [resolve_block] per block, but each medium
   level consulted does one lower_bound + sequential walk per patch
   (Pyramid.find_run) for all its unresolved blocks instead of per-block
   binary searches. Sub-ranges are split along extent boundaries and
   recursed level by level, respecting [skip_local] exactly as
   Medium.resolve does. *)
let resolve_range t ~medium ~block ~nblocks =
  let out = Array.make nblocks None in
  let resolved = Array.make nblocks false in
  (* one level of one extent piece [off .. off+len-1]: one batched
     pyramid run. Every slot of a piece is still unresolved, since [go]
     only descends into runs of unresolved slots. *)
  let lookup_level ~medium ~block ~len ~off =
    let run =
      Block_index.find_run t.blocks ~n:len
        ~key_of:(fun i -> (medium, block + i))
        ~index:(fun (m, b) -> if m = medium then b - block else -1)
    in
    for i = 0 to len - 1 do
      match Block_index.resolve_fact t.blocks run.(i) with
      | Some _ as r ->
        out.(off + i) <- r;
        resolved.(off + i) <- true
      | None -> () (* this level holds nothing; deeper levels may serve *)
    done
  in
  let limit = Medium.count t.medium_table + 1 in
  let rec go ~medium ~block ~n ~off depth =
    if n > 0 && depth <= limit then
      match Medium.extent_of t.medium_table medium ~block with
      | None ->
        (* out of range at this level: the chain for this block ends *)
        go ~medium ~block:(block + 1) ~n:(n - 1) ~off:(off + 1) depth
      | Some e ->
        let len = min n (e.Medium.end_block - block + 1) in
        if not e.Medium.skip_local then lookup_level ~medium ~block ~len ~off;
        (match e.Medium.target with
        | Medium.Base -> ()
        | Medium.Underlying { medium = under; offset } ->
          (* recurse for each contiguous run of still-unresolved slots *)
          let i = ref 0 in
          while !i < len do
            if resolved.(off + !i) then incr i
            else begin
              let j = ref !i in
              while !j < len && not resolved.(off + !j) do
                incr j
              done;
              go ~medium:under
                ~block:(block - e.Medium.start_block + offset + !i)
                ~n:(!j - !i) ~off:(off + !i) (depth + 1);
              i := !j
            end
          done);
        go ~medium ~block:(block + len) ~n:(n - len) ~off:(off + len) depth
  in
  go ~medium ~block ~n:nblocks ~off:0 0;
  out

let find_segment t id = Hashtbl.find_opt t.segment_metas id

(* A medium "has blocks" in [lo..hi] iff the block index holds a live fact
   there — the predicate the GC feeds to Medium.shortcut. *)
let medium_has_blocks t ~medium ~lo ~hi =
  Block_index.exists_live_in_range t.blocks ~lo:(medium, lo) ~hi:(medium, hi)

(* Run [k] once every sealed segio has finished flushing to the drives.
   Prepend (O(1) per registration); pump_flush fires the list as stored,
   preserving the firing order of the old append+rev pairing. *)
let when_flushed t k =
  if Queue.is_empty t.sealed then Clock.schedule t.clock ~delay:0.0 k
  else t.flush_waiters <- k :: t.flush_waiters

(* ---------- boot-region blob ---------- *)

let encode_boot t =
  let buf = Buffer.create 512 in
  Varint.write buf 1;
  let frontier = Allocator.encode_persisted t.alloc in
  Varint.write buf (String.length frontier);
  Buffer.add_string buf frontier;
  Varint.write buf t.next_segment_id;
  Varint.write buf t.medium_next_id;
  Varint.write_i64 buf (Seqno.current t.seqno);
  Varint.write_i64 buf t.checkpoint_seq;
  Varint.write buf (List.length t.checkpoint_dir);
  List.iter
    (fun (name, ranges, chunks) ->
      Varint.write buf (String.length name);
      Buffer.add_string buf name;
      Varint.write buf (String.length ranges);
      Buffer.add_string buf ranges;
      Varint.write buf (List.length chunks);
      List.iter
        (fun (meta, off, len) ->
          Varint.write buf (String.length meta);
          Buffer.add_string buf meta;
          Varint.write buf off;
          Varint.write buf len)
        chunks)
    t.checkpoint_dir;
  Buffer.contents buf

type boot_blob = {
  bb_frontier : string;
  bb_next_segment : int;
  bb_medium_next : int;
  bb_seq : int64;
  bb_ckpt_seq : int64;
  bb_dir : (string * string * (string * int * int) list) list;
}

let decode_boot s =
  let buf = Bytes.unsafe_of_string s in
  let _v, p = Varint.read buf ~pos:0 in
  let flen, p = Varint.read buf ~pos:p in
  let frontier = Bytes.sub_string buf p flen in
  let p = p + flen in
  let next_segment, p = Varint.read buf ~pos:p in
  let medium_next, p = Varint.read buf ~pos:p in
  let seq, p = Varint.read_i64 buf ~pos:p in
  let ckpt_seq, p = Varint.read_i64 buf ~pos:p in
  let ndirs, p = Varint.read buf ~pos:p in
  let pos = ref p in
  let read_str () =
    let len, p1 = Varint.read buf ~pos:!pos in
    let s = Bytes.sub_string buf p1 len in
    pos := p1 + len;
    s
  in
  let dir =
    List.init ndirs (fun _ ->
        let name = read_str () in
        let ranges = read_str () in
        let nchunks, p1 = Varint.read buf ~pos:!pos in
        pos := p1;
        let chunks =
          List.init nchunks (fun _ ->
              let meta = read_str () in
              let off, p2 = Varint.read buf ~pos:!pos in
              let len, p3 = Varint.read buf ~pos:p2 in
              pos := p3;
              (meta, off, len))
        in
        (name, ranges, chunks))
  in
  {
    bb_frontier = frontier;
    bb_next_segment = next_segment;
    bb_medium_next = medium_next;
    bb_seq = seq;
    bb_ckpt_seq = ckpt_seq;
    bb_dir = dir;
  }

(* Rewrite the boot region when the allocator's persisted sets changed
   (fire-and-forget; frontier refills run well before the fresh AUs are
   written, so the window between refill and durability is tiny — see
   DESIGN.md). *)
let maybe_persist_boot t =
  (* a dead controller must never clobber the live one's boot region *)
  let gen = Allocator.persist_generation t.alloc in
  if t.online && gen <> t.boot_generation_written then begin
    t.boot_generation_written <- gen;
    t.medium_next_id <- max t.medium_next_id (Medium.peek_next_id t.medium_table);
    Boot_region.write t.boot (encode_boot t) (fun () -> ())
  end

let () = boot_persist_hook := maybe_persist_boot

(* Controller death: stop every in-flight flush and queued segio. Called
   by Flash_array.crash after clearing [online]. [sealed] keeps its
   segios, so the dead controller's [when_flushed] waiters never fire. *)
let halt_device_activity t = Hashtbl.iter (fun _ w -> Writer.abort w) t.unflushed

(* Paper 4.3: "the primary controller asynchronously warms the cache of
   the secondary". At failover the spare therefore starts with (most of)
   the primary's read cache instead of a cold one. The entries move as
   they are, already decoded: the spare's hits are copies too. *)
let warm_cache ~from ~into =
  if into.cfg.secondary_warming then
    Lru.Ipair.fold
      (fun key data () -> Lru.Ipair.add into.read_cache key data)
      from.read_cache ()
