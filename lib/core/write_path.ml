(* The write path (paper §4.2, Figure 4, §4.6, §4.7):

   application write -> NVRAM commit (durability ack) -> inline dedup ->
   compression into cblocks -> segio append + block-index facts (also
   logged into the segio) -> asynchronous segment flush.

   A write's data is split into <= 32 KiB chunks (cblocks are "sized to
   match application writes, up to 32 KiB"); inline dedup carves verified
   duplicate runs out of each chunk, and only the fresh remainder is
   compressed and stored. *)

open State

type error =
  [ `No_such_volume
  | `Read_only
  | `Out_of_range
  | `Unaligned
  | `Backpressure  (** NVRAM full: the segment writer has fallen behind *)
  | `No_space
  | `Offline ]

(* [s] itself when the slice is the whole string: strings are immutable,
   so sharing is indistinguishable from a copy. *)
let slice s off n = if off = 0 && n = String.length s then s else String.sub s off n

(* Store one fresh run of blocks as a cblock; returns its home. The
   frame is built in the controller's arena — compression runs in the
   reused LZ scratch and the frame bytes blit from the reused Buffer
   straight into the segio, so storing a block allocates nothing. *)
let[@purity.lint.hotpath] [@purity.lint.allow
                            "hotalloc: the returned blockref is the \
                             call's result — one four-word record per \
                             stored run, handed straight to the block \
                             index"] store_run t data =
  let arena = t.arenas.(0) in
  let frame = arena.Arena.frame in
  Buffer.clear frame;
  let stored_len =
    Cblock.add_frame_into ~scratch:arena.Arena.lz ~compress:t.cfg.compression
      frame data
  in
  let segment, off = store_frame t frame in
  Registry.add t.ws.stored_bytes stored_len;
  { Blockref.segment; off; stored_len; index = 0 }

(* Store a frame already built (by a pool lane) in some lane's arena.
   [store_blob]'s roll-the-segment decision uses the same length the
   serial [store_frame] would, and the frame bytes are the deterministic
   output of [Cblock.add_frame] on the run — so the segio contents are
   byte-identical to the serial path's. *)
let store_prepared t ~frame ~stored_len =
  let segment, off = store_blob t frame in
  Registry.add t.ws.stored_bytes stored_len;
  { Blockref.segment; off; stored_len; index = 0 }

(* Compress the uncovered runs in parallel, one pool lane per contiguous
   chunk of runs, each lane in its own scratch arena. Returns the framed
   cblocks (with their stored lengths) in run order; [None] means stay on
   the serial zero-alloc path. Compression is a pure function of the run
   bytes (the LZ scratch is epoch-stamped), so the frames — and
   everything stored from them — are byte-identical at any lane count. *)
let[@purity.lint.allow
     "escape: lane-disjoint by construction — each task reads its own \
      [runs] entry and [data] slice and writes only [arenas.(lane)]; [t] \
      supplies read-only config, and the CRC/LZ kernel tables it reaches \
      are warmed before fan-out and read-only after"] compress_runs_par t
    data runs =
  let pool = Purity_par.Pool.global () in
  let lanes = Purity_par.Pool.lanes pool in
  let nruns = Array.length runs in
  if lanes <= 1 || nruns <= 1 then None
  else begin
    let arenas = lane_arenas t ~lanes in
    Some
      (Purity_par.Pool.map pool ~tasks:nruns (fun ~lane r ->
           let start, run_blocks = runs.(r) in
           let run = slice data (start * block_size) (run_blocks * block_size) in
           let arena = arenas.(lane) in
           let frame = arena.Arena.frame in
           Buffer.clear frame;
           let stored_len =
             Cblock.add_frame_into ~scratch:arena.Arena.lz
               ~compress:t.cfg.compression frame run
           in
           (Buffer.contents frame, stored_len)))
  end

(* Apply one <=32 KiB chunk: dedup the duplicate runs, store the rest. *)
let apply_chunk t ~medium ~first_block data =
  let nblocks = String.length data / block_size in
  let hits = if t.cfg.inline_dedup then Dedup.find_duplicates t.dedup data else [] in
  (* translate hits whose source cblock still exists; drop the rest *)
  let hits =
    List.filter_map
      (fun (h : Dedup.hit) ->
        match Hashtbl.find_opt t.dedup_locs h.Dedup.src.Dedup.write_id with
        | Some base
          when Hashtbl.mem t.segment_metas base.Blockref.segment
               || Hashtbl.mem t.unflushed base.Blockref.segment ->
          Some (h, base)
        | _ -> None)
      hits
  in
  let covered = Array.make nblocks false in
  List.iter
    (fun ((h : Dedup.hit), (base : Blockref.t)) ->
      for i = 0 to h.Dedup.run_blocks - 1 do
        let blk = h.Dedup.at_block + i in
        covered.(blk) <- true;
        put_block t ~medium ~block:(first_block + blk)
          { base with Blockref.index = h.Dedup.src.Dedup.block + i };
        Registry.incr t.ws.dedup_blocks
      done)
    hits;
  (* collect the uncovered runs — [covered] is fully determined above, so
     gathering first and storing after is the same traversal the old
     fused loop made *)
  let runs = ref [] in
  let i = ref 0 in
  while !i < nblocks do
    if covered.(!i) then incr i
    else begin
      let start = !i in
      while !i < nblocks && not covered.(!i) do
        incr i
      done;
      runs := (start, !i - start) :: !runs
    end
  done;
  let runs = Array.of_list (List.rev !runs) in
  (* compress in parallel when a pool is live and there is enough work;
     store serially, in run order, either way *)
  let frames = compress_runs_par t data runs in
  Array.iteri
    (fun r (start, run_blocks) ->
      let run = slice data (start * block_size) (run_blocks * block_size) in
      let base =
        match frames with
        | Some fr ->
          let frame, stored_len = fr.(r) in
          store_prepared t ~frame ~stored_len
        | None -> store_run t run
      in
      (* register the fresh run so future writes can dedup against it *)
      if t.cfg.inline_dedup then begin
        let wid = Dedup.register t.dedup run in
        Hashtbl.replace t.dedup_locs wid base
      end;
      for b = 0 to run_blocks - 1 do
        put_block t ~medium ~block:(first_block + start + b)
          { base with Blockref.index = b }
      done)
    runs

let apply_write ?(io_blocks = Cblock.max_logical / block_size) t ~medium ~block data =
  let len = String.length data in
  (* cblocks are "sized to match application writes, up to 32 KiB": chunk
     at the volume's inferred write size so small rereads hit one cblock *)
  let chunk = max block_size (min Cblock.max_logical (io_blocks * block_size)) in
  let off = ref 0 in
  while !off < len do
    let n = min chunk (len - !off) in
    apply_chunk t ~medium ~first_block:(block + (!off / block_size))
      (slice data !off n);
    off := !off + n
  done

(* Public entry: write [data] (a multiple of 512 B) at [block] of [volume].
   The callback fires when the write is durable (NVRAM commit complete). *)
let write t ~volume ~block data k =
  let start = Clock.now t.clock in
  let fail e = Clock.schedule t.clock ~delay:0.0 (fun () -> k (Error e)) in
  if not t.online then fail `Offline
  else
    match Stbl.find_opt t.volumes volume with
    | None -> fail `No_such_volume
    | Some { kind = Snapshot; _ } -> fail `Read_only
    | Some v ->
      let len = String.length data in
      if len = 0 || len mod block_size <> 0 then fail `Unaligned
      else if block < 0 || block + (len / block_size) > v.blocks then fail `Out_of_range
      else begin
        observe_write v.observer ~nblocks:(len / block_size);
        match Medium.write_target t.medium_table v.medium ~block with
        | Error `Read_only -> fail `Read_only
        | Error (`Out_of_range | `No_such_medium) -> fail `Out_of_range
        | Ok medium ->
          (* trace the multi-hop write: the NVRAM commit and memtable apply
             are children of one [write] span (segio flush/program spans
             hang off the asynchronous pump instead) *)
          let wspan =
            Span.start t.tracer
              ~tags:[ ("volume", volume); ("bytes", string_of_int len) ]
              "write"
          in
          let commit_span = Span.start t.tracer ~parent:wspan "nvram_commit" in
          (* intents consume sequence numbers like any other fact; NVRAM
             commit callbacks fire in seq order, so the applied watermark
             is monotone *)
          let intent_seq = Purity_pyramid.Seqno.next t.seqno in
          (* the intent is encoded only if NVRAM admits it: a refused
             attempt under backpressure copies none of the payload *)
          Nvram.commit (nvram t) ~seq:intent_seq
            ~len:(Meta_log.intent_size ~medium ~block len)
            (fun () -> Meta_log.encode_intent ~medium ~block data)
            (function
            | Error `Full ->
              Span.finish ~tags:[ ("error", "backpressure") ] commit_span;
              Span.finish wspan;
              (* NVRAM drains when segios flush; push the current one out
                 if nothing is already flushing, then report backpressure *)
              if Queue.is_empty t.sealed then (try seal_current t with Out_of_space -> ());
              k (Error `Backpressure)
            | Ok () when not t.online ->
              Span.finish ~tags:[ ("error", "offline") ] commit_span;
              Span.finish wspan;
              (* the controller died between commit and apply: the intent
                 is in NVRAM and will replay at failover *)
              k (Error `Offline)
            | Ok () -> (
              Histogram.record t.ws.nvram_commit_us (Clock.now t.clock -. start);
              Span.finish commit_span;
              let apply_span = Span.start t.tracer ~parent:wspan "apply" in
              match
                apply_write ~io_blocks:(inferred_io_blocks v.observer) t ~medium ~block data
              with
              | () ->
                Span.finish apply_span;
                Span.finish wspan;
                t.last_applied_intent <- intent_seq;
                Registry.incr t.ws.app_writes;
                Registry.add t.ws.logical_bytes len;
                Histogram.record t.write_lat (Clock.now t.clock -. start);
                k (Ok ())
              | exception Out_of_space ->
                Span.finish ~tags:[ ("error", "no_space") ] apply_span;
                Span.finish wspan;
                k (Error `No_space)))
      end
