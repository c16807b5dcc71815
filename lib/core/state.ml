(* Shared state of one Purity array (controller-resident volatile state
   plus the controller's port onto the shelf's persistent devices). The
   public facade is {!Flash_array}; the write/read/GC/recovery paths live in
   sibling modules operating over this record. *)

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

(* The size bucket of a write of [nblocks], by power of two: 1, 2, 4,
   8, 16, 32, 64 blocks (512 B - 32 KiB) are buckets 0-6. *)
let rec size_bucket nblocks i cap =
  if nblocks <= cap || i = 6 then i else size_bucket nblocks (i + 1) (cap * 2)

let observe_write obs ~nblocks =
  let b = size_bucket nblocks 0 1 in
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

(* A sealed segio, the NVRAM watermark its flush may trim to, and the
   barriers (newest first) that run once its flush completes. *)
type sealed_segio = { w : Writer.t; upto : int64; mutable waiters : (unit -> unit) list }

type t = {
  cfg : config;
  clock : Clock.t;
  tel : Registry.t;
  tracer : Span.tracer;
  shelf : Shelf.t;
  port : Shelf.port; (* this controller's only way to change the shelf *)
  layout : Layout.t;
  rs : Rs.t;
  io : Io.t;
  alloc : Allocator.t;
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
  mutable sealed : sealed_segio list;
      (* sealed segios in seal order; with [open_writer], the only record
         of segios not yet on the drives. Flushed one at a time, head
         first, so that at most two drives in the whole array are
         programming simultaneously (the §4.4 discipline that
         keeps read-around-write amplification near the paper's 1.3x)
         and flushes complete in seal order *)
  mutable flush_active : bool; (* the head of [sealed] is flushing *)
  mutable last_applied_intent : int64;
      (* highest NVRAM intent fully applied to segios; the safe trim
         watermark when the current segio seals *)
  mutable checkpoint_dir : Boot_region.dir; (* last checkpoint's patch directory *)
  mutable checkpoint_seq : int64;
      (* seq watermark of the last completed checkpoint: every fact with a
         sequence number at or below it is covered by the patches, and its
         tombstone (if any) may have been dropped by the checkpoint's full
         compaction — so recovery must never replay log records this old,
         or compacted-away deletions would resurrect *)
  mutable medium_next_id : int;
  mutable boot_generation_written : int;
  dedup : Blockref.t Dedup.t; (* recent writes, each with its cblock home *)
  arena : Arena.t; (* compress/frame scratch for the fill loop *)
  read_cache : string Lru.t;
      (* [cache_key] -> the cblock's verified, decompressed bytes *)
  run_slots : Block_index.fact array;
      (* Block_index.find_run's slots for up to 64 keys (a host read's
         longest run), reused; nothing holds them across calls *)
  (* accounting *)
  write_lat : Histogram.t;
  read_lat : Histogram.t;
  ws : write_stats;
  mutable online : bool;
}

let blocks_policy = Block_index.Elide (fun f -> fst f.Block_index.Fact.key)
let mediums_policy = Pyramid.Elide (fun f -> Keys.medium_key_id f.Fact.key)

(* Segios whose bytes are not yet on the drives. *)
let unflushed_count t = List.length t.sealed + if Option.is_some t.open_writer then 1 else 0

(* Derived metrics over controller state: sampled at snapshot time, so
   the registry exposes live table sizes without per-mutation recording. *)
let register_derived_telemetry t =
  let reg = t.tel in
  Registry.derive_int reg "segments/live" (fun () -> Hashtbl.length t.segment_metas);
  Registry.derive_int reg "segments/unflushed" (fun () -> unflushed_count t);
  Registry.derive_int reg "segments/pending_flushes" (fun () -> List.length t.sealed);
  Registry.derive_int reg "segments/next_id" (fun () -> t.next_segment_id);
  Registry.derive_int reg "volumes/count" (fun () -> Stbl.length t.volumes);
  Registry.derive_int reg "pyramid/blocks_facts" (fun () -> Block_index.fact_count t.blocks);
  Registry.derive_int reg "pyramid/blocks_patches" (fun () -> Block_index.patch_count t.blocks);
  Registry.derive_int reg "pyramid/blocks_probes" (fun () ->
      fst (Block_index.probe_stats t.blocks));
  Registry.derive_int reg "pyramid/blocks_fence_skips" (fun () ->
      snd (Block_index.probe_stats t.blocks));
  Registry.attach_counter reg "trace/dropped_spans" (Span.dropped t.tracer);
  (* the dedup index's own lookup, hit and verification counts, beside
     the write path's dedup/inline_blocks and dedup/gc_blocks *)
  Dedup.register_telemetry t.dedup reg;
  (* data-plane kernel throughput: process-wide cells (the kernels sit
     below the telemetry library in the dependency order), re-derived
     into whichever controller registry is current *)
  List.iter
    (fun (k : Purity_util.Kernel_stats.kernel) ->
      Registry.derive_int reg ("kernels/" ^ k.name ^ "_bytes") (fun () -> k.bytes);
      Registry.derive_int reg ("kernels/" ^ k.name ^ "_calls") (fun () -> k.calls);
      Registry.derive_int reg ("kernels/" ^ k.name ^ "_ns") (fun () -> k.ns))
    Purity_util.Kernel_stats.all

let create_over ~config ~clock ~shelf () =
  let layout =
    Layout.make ~k:config.k ~m:config.m ~write_unit:config.write_unit
      ~au_size:config.drive_config.Drive.au_size ()
  in
  let rs = Rs.create ~k:config.k ~m:config.m in
  let alloc =
    Allocator.create ~layout ~drives:config.drives
      ~aus_per_drive:config.drive_config.Drive.num_aus ()
  in
  let pyramid policy table =
    Pyramid.create ~memtable_flush_count:config.memtable_flush ~policy
      ~name:(Meta_log.name table) ()
  in
  let blocks =
    Block_index.create ~memtable_flush_count:config.memtable_flush ~policy:blocks_policy
      ~name:(Meta_log.name Blocks) ()
  in
  let mediums_pyr = pyramid mediums_policy Mediums in
  let segments_pyr = pyramid Pyramid.Tombstones Segments in
  let volumes_pyr = pyramid Pyramid.Tombstones Volumes in
  (* The controller's metric namespace: a fresh registry per controller
     generation (a failover boots the spare with zeroed path counters,
     exactly as the old per-field ints behaved). *)
  let tel = Registry.create () in
  let tracer = Span.create_tracer ~clock () in
  Shelf.register_telemetry shelf tel;
  let io =
    Io.create ~telemetry:tel ~layout ~shelf ~rs ~read_around_write:config.read_around_write
      ~p95_backup:config.p95_backup ()
  in
  let t =
    {
    cfg = config;
    clock;
    tel;
    tracer;
    shelf;
    port = Shelf.attach shelf;
    layout;
    rs;
    io;
    alloc;
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
    sealed = [];
    flush_active = false;
    last_applied_intent = 0L;
    checkpoint_dir = [];
    checkpoint_seq = 0L;
    medium_next_id = 1;
    boot_generation_written = 0;
    dedup = Dedup.create ();
    arena = Arena.create ();
    read_cache = Lru.create ~capacity:config.read_cache_entries;
    run_slots = Array.make 64 Block_index.Fact.absent;
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
  create_over ~config ~clock ~shelf ()

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

(* Stash one metadata record in NVRAM (see {!Meta_log.nvram_backed}).
   Fire-and-forget: the record is durable once admitted, at call time. A
   refusal is dropped here, so a caller that acknowledges on the strength
   of its stashes prices them first, as namespace ops do; the other
   stashers (the flush's commit record, GC and checkpoint bookkeeping)
   have their log copies and the next checkpoint behind them. *)
let stash t ~seq record =
  Shelf.nvram_commit t.port ~seq ~len:(String.length record) (fun () -> record) (fun _ -> ())

let online_drive t d = Drive.is_online (Shelf.drive t.shelf d)

(* ---------- fact logging: every metadata mutation is also a log record
   in the current segio, so recovery can rediscover it (Figure 4). ---- *)

exception Out_of_space

(* Write the boot region (frontier, counters, checkpoint directory);
   [k] runs at durability. *)
let persist_boot t k =
  t.boot_generation_written <- Allocator.persist_generation t.alloc;
  t.medium_next_id <- max t.medium_next_id (Medium.peek_next_id t.medium_table);
  Shelf.write_boot t.port
    (Boot_region.encode
       {
         frontier = Allocator.persisted_frontier t.alloc;
         next_segment = t.next_segment_id;
         next_medium = t.medium_next_id;
         seq = Seqno.current t.seqno;
         checkpoint_seq = t.checkpoint_seq;
         dir = t.checkpoint_dir;
       })
    k

(* Rewrite the boot region when the allocator's persisted sets changed
   (fire-and-forget; frontier refills run well before the fresh AUs are
   written, so the window between refill and durability is tiny — see
   DESIGN.md). *)
let maybe_persist_boot t =
  if Allocator.persist_generation t.alloc <> t.boot_generation_written then
    persist_boot t (fun () -> ())

(* Erase-before-reuse: an AU can reach the pool still holding data
   (released while its drive was offline, or torn by a crashed
   controller's halted flush); trim it before reuse so the append-only
   contract holds. *)
let erase_for_reuse t (m : Segment.member) =
  let d = Shelf.drive t.shelf m.drive in
  if Drive.is_online d && Drive.au_fill d ~au:m.au > 0 then
    Shelf.trim_au t.port ~drive:m.drive ~au:m.au

(* Reserve a single replacement AU on a healthy drive for a segio member
   remap, erasing any stale contents before use. Once a replacement is
   found, the member it replaces goes back to the allocator: no segment
   meta will ever name that AU, so no destroy would free it. *)
let allocate_replacement t ~replacing ~exclude =
  match
    Allocator.allocate_one t.alloc ~allowed:(fun d ->
        online_drive t d && not (List.mem d exclude))
  with
  | None -> None
  | Some m ->
    erase_for_reuse t m;
    Allocator.release t.alloc [| replacing |];
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
    Array.iter (erase_for_reuse t) members;
    let w = Writer.create ~layout:t.layout ~port:t.port ~rs:t.rs ~members ~id in
    t.open_writer <- Some w;
    (* a refill may have changed the persisted frontier: rewrite the
       boot region before this segment accumulates log records *)
    maybe_persist_boot t;
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
      Allocator.release t.alloc (Writer.members w)
    end
    else begin
      (* A member whose drive is offline when its turn to flush comes is
         remapped by [Writer.finalize] (see [pump_flush]). Only intents
         fully applied before this seal are guaranteed to be inside this
         (or an earlier) segio; later intents must stay in NVRAM until
         their own segio flushes. *)
      t.sealed <- t.sealed @ [ { w; upto = t.last_applied_intent; waiters = [] } ];
      pump_flush t
    end

(* Flush the head of [sealed] (array-wide write staggering: one segio at
   a time, so flushes complete in seal order). *)
and pump_flush t =
  match t.sealed with
  | ({ w; upto; _ } as s) :: _ when t.online && not t.flush_active ->
    t.flush_active <- true;
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
    Writer.finalize w ~remap:(allocate_replacement t) ~tracer:t.tracer ~parent:flush_span
      (fun seg ->
        Span.finish flush_span;
        Hashtbl.replace t.segment_metas seg.Segment.id seg;
        (* The segment table fact describes the sealed segment; it doubles
           as the commit record, so it is stashed in NVRAM as well — until
           a later flushed segio carries the log copy, the stash is the
           only proof that this segment's contents may be trusted (on a
           full array, the log copy has nowhere to go: the stash alone). *)
        let seq = Seqno.next t.seqno in
        let fact =
          Fact.make ~key:(Keys.segment_key seg.Segment.id)
            ~value:(Segment.encode_compact seg) ~seq
        in
        Pyramid.insert t.segments_pyr ~seq ~key:(Keys.segment_key seg.Segment.id)
          ~value:(Segment.encode_compact seg);
        (try record_fact t Meta_log.Segments fact
         with Out_of_space -> stash t ~seq (Meta_log.stash_fact Meta_log.Segments fact));
        (* §4.3: every intent at or below [upto] is on the drives now (a
           segio sealed by the log record above queues behind this one) *)
        (match t.sealed with _ :: later -> t.sealed <- later | [] -> ());
        Shelf.nvram_trim_upto t.port upto;
        t.flush_active <- false;
        pump_flush t;
        List.iter (fun f -> f ()) s.waiters)
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
   intent that produced it is already in NVRAM). The record is framed in
   the arena's log buffer and appended from there, so nothing per put is
   allocated. *)
let[@purity.lint.hotpath] record_block t (fact : Block_index.Fact.t) =
  let record = t.arena.Arena.log in
  Buffer.clear record;
  Meta_log.frame_block record fact;
  Writer.append_log_buffer
    (writer_with_room t ~need:(Buffer.length record + 16))
    ~seq:fact.seq record

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

(* Map one block to its reference: the block index's only put. The
   memtable insert and the log record allocate nothing, so a put costs
   the fact it stores. *)
let[@purity.lint.hotpath] [@purity.lint.allow
                            "hotalloc: the stored fact — its record, \
                             (medium, block) key pair, boxed seq, Some \
                             and the caller's Blockref — lives on in the \
                             memtable; nothing else per put is allocated"] put_block
    t ~medium ~block (r : Blockref.t) =
  let fact =
    { Block_index.Fact.key = (medium, block); value = Some r; seq = Seqno.next t.seqno }
  in
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

(* Total: [None] for an unknown kind byte, a truncated, non-shortest or
   out-of-range varint, or bytes past the blocks count, so whatever
   decodes re-encodes to [s]. *)
let[@purity.lint.recovery_root] decode_volume_value s =
  let buf = Bytes.of_string s in
  match
    let kind =
      match Bytes.get buf 0 with 'V' -> Volume | 'S' -> Snapshot | _ -> invalid_arg "volume kind"
    in
    let medium, p = Varint.read buf ~pos:1 in
    let blocks, p = Varint.read buf ~pos:p in
    (kind, medium, blocks, p)
  with
  | kind, medium, blocks, p when p = String.length s ->
    Some { medium; blocks; kind; observer = fresh_observer () }
  | _ | exception Invalid_argument _ -> None

let persist_volume t name v = put t Volumes ~key:name ~value:(encode_volume_value v)

(* Slots for a longer run than the scratch holds: a whole-volume
   resolution (replication's delta, the resolution audit) or a GC
   victim's refs. Not kept, so the scratch never outgrows a host read. *)
let[@purity.lint.coldpath] fresh_run_slots n = Array.make n Block_index.Fact.absent

(* [Block_index.find_run]'s slots for [n] keys, valid until the next
   call: the controller's scratch when it is big enough. *)
let run_slots t n = if n <= Array.length t.run_slots then t.run_slots else fresh_run_slots n

(* One level of one extent piece: slots [off, off + len) of [out], blocks
   [block, block + len) of [medium], every one still unresolved; one
   batched pyramid run. *)
let lookup_level t out ~medium ~block ~len ~off =
  let keys =
    ([| (medium, block) |]
    [@purity.lint.allow "hotalloc: the run's first key, one per level of a read"])
  in
  let slots = run_slots t len in
  Block_index.find_run t.blocks ~keys ~span:len ~into:slots;
  for i = 0 to len - 1 do
    match Block_index.live_value t.blocks slots.(i) with
    | Some _ as r -> out.(off + i) <- r
    | None -> () (* this level holds nothing; deeper levels may serve *)
  done

(* Resolve slots [off, off + n) of [out], blocks [block, block + n) of
   [medium]: each piece an extent of [medium] covers is looked up at this
   level unless [skip_local], then each run of its still-unresolved slots
   at the level under it. Blocks no extent covers end their chain. *)
let rec resolve_level t out ~limit ~medium ~block ~n ~off ~depth =
  if n > 0 && depth <= limit then
    resolve_pieces t out ~limit ~medium ~block ~n ~off ~depth
      (Medium.extents t.medium_table medium)

(* The pieces of [block, block + n) the extents [es] (sorted by start,
   disjoint) cover, in block order. *)
and resolve_pieces t out ~limit ~medium ~block ~n ~off ~depth = function
  | [] -> ()
  | (e : Medium.extent) :: es ->
    if e.start_block < block + n then begin
      let lo = max block e.start_block and hi = min (block + n) (e.end_block + 1) in
      if lo < hi then begin
        let len = hi - lo and off_lo = off + lo - block in
        if not e.skip_local then lookup_level t out ~medium ~block:lo ~len ~off:off_lo;
        match e.target with
        | Medium.Base -> ()
        | Medium.Underlying { medium = under; offset } ->
          resolve_under t out ~limit ~medium:under
            ~block:(lo - e.start_block + offset)
            ~len ~off:off_lo ~depth:(depth + 1)
      end;
      resolve_pieces t out ~limit ~medium ~block ~n ~off ~depth es
    end

(* Each maximal run of still-unresolved slots of [off, off + len), at
   the level [medium], whose block [block] is slot [off]'s. *)
and resolve_under t out ~limit ~medium ~block ~len ~off ~depth =
  let i = ref 0 in
  while !i < len do
    if Option.is_some out.(off + !i) then incr i
    else begin
      let j = ref (!i + 1) in
      while !j < len && Option.is_none out.(off + !j) do
        incr j
      done;
      resolve_level t out ~limit ~medium ~block:(block + !i) ~n:(!j - !i) ~off:(off + !i) ~depth;
      i := !j
    end
  done

(* Batched resolution for [nblocks] consecutive logical blocks:
   equivalent to probing the block index at each level of each block's
   chain ([Medium.resolve]) in turn, but each medium level consulted
   does one lower_bound + sequential walk per patch (Block_index.find_run)
   for all its unresolved blocks instead of per-block binary searches.
   Sub-ranges are split along extent boundaries and recursed level by
   level, respecting [skip_local] exactly as Medium.resolve does. A
   fresh array each call; nothing else is allocated but the first key
   of each level's run. *)
let[@purity.lint.hotpath] resolve_range t ~medium ~block ~nblocks =
  let out =
    (Array.make nblocks None
    [@purity.lint.allow "hotalloc: the returned array, one slot per block"])
  in
  resolve_level t out ~limit:(Medium.count t.medium_table + 1) ~medium ~block ~n:nblocks ~off:0
    ~depth:0;
  out

let find_segment t id = Hashtbl.find_opt t.segment_metas id

(* The segio holding segment [id] while it is not yet on the drives (a
   walk on the read path: it allocates nothing unless it finds one). *)
let rec sealed_writer id = function
  | [] -> None
  | s :: later -> if Writer.id s.w = id then Some s.w else sealed_writer id later

let unflushed_writer t id =
  match t.open_writer with
  | Some w when Writer.id w = id -> t.open_writer
  | Some _ | None -> sealed_writer id t.sealed

(* Report a host operation's error [e] to [k] on the next clock step. *)
let fail t k e = Clock.schedule t.clock ~delay:0.0 (fun () -> k (Error e))

(* Seal the open segio, then run [k] once every segio sealed so far has
   flushed. Flushes complete in seal order, so [k] waits on the newest
   one; segios sealed after the call do not hold it up. *)
let seal_and_flush t k =
  (try seal_current t with Out_of_space -> ());
  match List.rev t.sealed with
  | newest :: _ -> newest.waiters <- k :: newest.waiters
  | [] -> Clock.schedule t.clock ~delay:0.0 k

(* Destroy segments whose contents live on elsewhere (relocated victims,
   a superseded checkpoint): drop each meta, log its tombstone, trim its
   AUs on reachable drives and hand them back to the allocator. Returns
   the bytes of AUs given back. The one place a destroyed segment's AUs
   are released. No inline-dedup source points into them: evacuation
   forgets a victim's sources before relocating it, and a superseded
   checkpoint segment holds only patch chunks. *)
let destroy_segments t ids =
  let destroyed =
    List.filter_map
      (fun id ->
        match Hashtbl.find_opt t.segment_metas id with
        | None -> None
        | Some meta ->
          Hashtbl.remove t.segment_metas id;
          put_delete t Segments ~key:(Keys.segment_key id);
          Array.iter
            (fun (m : Segment.member) ->
              if online_drive t m.drive then Shelf.trim_au t.port ~drive:m.drive ~au:m.au)
            meta.Segment.members;
          Allocator.release t.alloc meta.Segment.members;
          Some (Array.length meta.Segment.members))
      ids
  in
  List.fold_left (fun acc n -> acc + (n * t.cfg.drive_config.Drive.au_size)) 0 destroyed

(* Paper 4.3: "the primary controller asynchronously warms the cache of
   the secondary". At failover the spare therefore starts with (most of)
   the primary's read cache instead of a cold one. The entries move as
   they are, already decoded: the spare's hits are copies too. *)
let warm_cache ~from ~into =
  if into.cfg.secondary_warming then
    (* least recently used first, so the spare's order matches the primary's *)
    Lru.fold (fun key data acc -> (key, data) :: acc) from.read_cache []
    |> List.iter (fun (key, data) -> ignore (Lru.add into.read_cache key data))
