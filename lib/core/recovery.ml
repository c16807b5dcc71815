(* Recovery (paper §4.3, Figure 5): runs on a freshly created State.t over
   the surviving shelf + boot region, after a crash or during controller
   failover, in three phases.

   1. Read, allocating nothing: the boot region (frontier set, counters,
      checkpoint directory); the checkpointed patches; the segment
      headers of the whole array (`Full_scan`, the paper's early 12 s
      path) or of just the persisted frontier set (`Frontier_scan`, the
      0.1 s path); the log records of every scanned segment whose flush
      provably completed (facts are idempotent, so re-inserting
      already-checkpointed ones is harmless); the NVRAM metadata stashes.
   2. Derive, once, from what was read: the segment table, the allocator
      (from that table and the frontier set, as §4.3 rebuilds it), the
      medium table, the volumes and the sequence counter.
   3. Write: re-persist segments known only from their headers, then one
      seq-ordered NVRAM pass that reapplies intents (writes acked but
      possibly not in a flushed segio) and re-logs stashes. *)

open State
module Ptbl = Purity_util.Keytbl.Ipair

type mode = Frontier_scan | Full_scan

type report = {
  mode : mode;
  duration_us : float;
  cold : bool; (* factory-fresh array: nothing to recover *)
  headers_scanned : int;
  segments_found : int;
  log_records : int;
  nvram_records : int;
  checkpoint_bytes : int;
}

(* Deliberate-bug switches for validating purity.check itself: a checker
   that cannot catch a recovery that "forgets" its NVRAM records is not
   checking the durability contract. Never set outside tests. *)
type chaos = { mutable skip_nvram_replay : bool }

let chaos = { skip_nvram_replay = false }

(* Insert one decoded fact or elide into its table. An elide a table's
   policy refuses (or with [lo > hi]) is skipped like any corrupt record,
   as is a string fact for the block index (the decoders give block
   facts as [Block], so none arrives). *)
let replay_meta t : Meta_log.meta -> unit = function
  | Fact (table, fact) -> (
    try Pyramid.insert_fact (pyramid t table) fact with Invalid_argument _ -> ())
  | Block fact -> Block_index.insert_fact t.blocks fact
  | Elide (table, { seq; lo; hi }) -> (
    let (Any ((module P), pyr)) = any_pyramid t table in
    try P.elide_range pyr ~seq ~lo ~hi with Invalid_argument _ -> ())

(* Decoded metadata can name a drive or AU this shelf lacks (a blob that
   decodes but does not describe this array). Such a record is skipped
   like an undecodable one, before anything indexes the shelf with it. *)
let on_shelf t (m : Segment.member) =
  m.Segment.drive >= 0
  && m.Segment.drive < Shelf.drive_count t.shelf
  && m.Segment.au >= 0
  && m.Segment.au < (Drive.config (Shelf.drive t.shelf m.Segment.drive)).Drive.num_aus

let meta_on_shelf t (seg : Segment.t) = Array.for_all (on_shelf t) seg.Segment.members

(* Phase 2: derive the volatile state from the recovered pyramids, the
   boot region's [frontier], the checkpoint-chunk metas [ckpt] and the
   [trusted] scanned segments (in the order they were trusted). *)
let rebuild_derived t ~frontier ~ckpt ~trusted ~medium_next_hint =
  (* The segment table holds every live fact: written at flush completion
     with the final member list (mid-flush remaps included), it overrides
     a stale header copy. A checkpoint-chunk or scanned meta stands in for
     a segment the table has no fact about at all (its 'S' fact rode an
     unflushed segio). A tombstone drops it: the segment was released
     after the covering checkpoint, and GC would release it again, AUs
     long since reused included. Metas keep the order they were found
     in. *)
  let add id = function
    | Some meta when meta_on_shelf t meta && not (Hashtbl.mem t.segment_metas id) ->
      Hashtbl.replace t.segment_metas id meta;
      if id >= t.next_segment_id then t.next_segment_id <- id + 1
    | Some _ | None -> ()
  in
  List.iter
    (fun (seg : Segment.t) ->
      add seg.Segment.id
        (match Pyramid.latest_fact t.segments_pyr (Keys.segment_key seg.Segment.id) with
        | None -> Some seg
        | f -> Option.bind (Pyramid.resolve_fact t.segments_pyr f) Segment.decode_compact))
    (ckpt @ trusted);
  Pyramid.iter_live t.segments_pyr (function
    | { Fact.key; value = Some value; _ } ->
      add (Keys.segment_key_id key) (Segment.decode_compact value)
    | _ -> ());
  let members (seg : Segment.t) = Array.to_list seg.Segment.members in
  Allocator.recover t.alloc ~persisted:frontier
    ~used:(Hashtbl.fold (fun _ seg acc -> members seg @ acc) t.segment_metas [])
    ~rescan:(List.concat_map members trusted);
  (* medium table *)
  let rows = ref [] in
  let max_medium = ref 0 in
  Pyramid.iter_live t.mediums_pyr (function
    | { Fact.key; value = Some value; _ } -> (
      let id = Keys.medium_key_id key in
      if id > !max_medium then max_medium := id;
      match Medium.decode_extents value with
      | Some extents -> rows := (id, extents) :: !rows
      | None -> ())
    | _ -> ());
  (* An elided medium id is permanently dead — its elide range outlives the
     crash — so a freshly allocated medium must never reuse one: the range
     would silently swallow the new medium's facts at the next failover.
     The boot-region hint only advances at checkpoints; the elide table is
     the authority in between. *)
  let max_elided =
    Purity_encoding.Ranges.fold
      (fun ~lo:_ ~hi acc -> max hi acc)
      (Pyramid.elide_table t.mediums_pyr) 0
  in
  let next_id = max medium_next_hint (max (!max_medium + 1) (max_elided + 1)) in
  t.medium_table <- Medium.restore ~rows:!rows ~next_id;
  t.medium_next_id <- next_id;
  (* volumes *)
  Stbl.reset t.volumes;
  Pyramid.iter_live t.volumes_pyr (function
    | { Fact.key; value = Some value; _ } -> (
      match decode_volume_value value with
      | Some v -> Stbl.replace t.volumes key v
      | None -> ())
    | _ -> ());
  (* the sequence counter must move past everything rediscovered *)
  List.iter
    (fun table ->
      let (Any ((module P), pyr)) = any_pyramid t table in
      Seqno.restore_at_least t.seqno (P.max_seq pyr))
    Meta_log.tables

(* Fallback commit evidence for a scanned segment: every member AU on a
   reachable drive holds the complete shard (header plus every data row
   the header's payload length implies).  A member on an offline drive is
   unknowable and does not condemn the segment; a short member on an
   online drive marks the flush as torn.  (A freshly replaced drive also
   reads short — segments that predate the replacement need one of the
   stronger proofs, which is why the 'S' commit record is NVRAM-backed.) *)
let scanned_segment_complete t ~claims (seg : Segment.t) =
  let k = t.layout.Layout.k in
  let wu = t.layout.Layout.write_unit in
  let rows = (seg.Segment.payload_len + (k * wu) - 1) / (k * wu) in
  let expected = t.layout.Layout.header_size + (rows * wu) in
  Array.for_all
    (fun (m : Segment.member) ->
      let d = Shelf.drive t.shelf m.Segment.drive in
      (not (Drive.is_online d))
      || ((* the AU's own header must name this segment: a full AU is no
             proof when it was reused by a newer segment while this stale
             sibling kept the old id *)
          (match Ptbl.find_opt claims (m.Segment.drive, m.Segment.au) with
           | Some id -> id = seg.Segment.id
           | None -> false)
         && Drive.au_fill d ~au:m.Segment.au >= expected))
    seg.Segment.members

let[@purity.lint.recovery_root] recover ?(mode = Frontier_scan) t k =
  let start = Clock.now t.clock in
  let c_runs = Registry.counter t.tel "recovery/runs" in
  let c_headers = Registry.counter t.tel "recovery/headers_scanned" in
  let c_log_records = Registry.counter t.tel "recovery/log_records" in
  let c_nvram_records = Registry.counter t.tel "recovery/nvram_records" in
  let h_recover_us = Registry.histogram t.tel "recovery/duration_us" in
  let rspan =
    Span.start t.tracer
      ~tags:[ ("mode", match mode with Frontier_scan -> "frontier" | Full_scan -> "full") ]
      "recovery"
  in
  let finish ~cold ~headers ~segments ~log_records ~nvram_records ~ckpt_bytes =
    t.online <- true;
    let duration_us = Clock.now t.clock -. start in
    Registry.incr c_runs;
    Registry.add c_headers headers;
    Registry.add c_log_records log_records;
    Registry.add c_nvram_records nvram_records;
    Histogram.record h_recover_us duration_us;
    Span.finish
      ~tags:
        [ ("cold", string_of_bool cold); ("segments", string_of_int segments) ]
      rspan;
    k
      {
        mode;
        duration_us;
        cold;
        headers_scanned = headers;
        segments_found = segments;
        log_records;
        nvram_records;
        checkpoint_bytes = ckpt_bytes;
      }
  in
  Shelf.read_boot t.shelf (function
    | None ->
      (* factory-fresh array *)
      finish ~cold:true ~headers:0 ~segments:0 ~log_records:0 ~nvram_records:0 ~ckpt_bytes:0
    | Some blob ->
      (* ---- phase 1: read ---- *)
      (* A boot region that fails to decode must not fall through to the
         factory-fresh path: that path skips the header scan entirely,
         which is only safe when there is genuinely no data. Nothing the
         corrupt blob recorded (frontier, counters, checkpoint directory)
         can be trusted, so recovery degrades to a full header scan with
         no checkpoint — slower, but every durably flushed segment is
         rediscovered and the logs replay as usual. *)
      let bb = Boot_region.decode blob in
      let mode = match bb with None -> Full_scan | Some _ -> mode in
      (* with no decodable boot block there is no frontier or checkpoint
         directory, and the medium-counter hint degrades to the scanned
         facts' own maximum ([rebuild_derived] takes the max of the two) *)
      let frontier, ckpt_dir, medium_next_hint =
        match bb with
        | None -> ([], [], 0)
        | Some bb ->
          t.next_segment_id <- bb.next_segment;
          (* ids are never reused: pin the medium counter before anything
             can allocate and rewrite the boot region *)
          t.medium_next_id <- bb.next_medium;
          t.medium_table <- Medium.restore ~rows:[] ~next_id:bb.next_medium;
          Seqno.restore_at_least t.seqno bb.seq;
          t.checkpoint_dir <- bb.dir;
          t.checkpoint_seq <- bb.checkpoint_seq;
          (List.filter (on_shelf t) bb.frontier, bb.dir, bb.next_medium)
      in
      (* The boot counter can be stale, and the newest surviving facts can
         undercount the dead generation's allocations when they rode a torn
         segment.  NVRAM outlives the crash, so the counter must also clear
         every record it holds — reusing a dead generation's sequence
         numbers would let its stale stashes outrank this generation's new
         facts. *)
      let records = Shelf.nvram_records t.shelf in
      List.iter (fun (r : Nvram.record) -> Seqno.restore_at_least t.seqno r.Nvram.seq) records;
      let records = if chaos.skip_nvram_replay then [] else records in
      let decoded =
        List.filter_map
          (fun { Nvram.seq; payload } ->
            Option.map (fun d -> (seq, d)) (Meta_log.decode_nvram payload))
          records
      in
      (* load checkpoint patches *)
      let ckpt_bytes = ref 0 in
      let ckpt = ref [] in
      let load_chunks chunks k =
        let parts = Array.make (List.length chunks) "" in
        let pending = ref (List.length chunks) in
        if !pending = 0 then k ""
        else
          List.iteri
            (fun i ((meta : Segment.t), off, len) ->
              let got result =
                (match result with
                | Ok data -> parts.(i) <- Bytes.to_string data
                | Error `Unrecoverable -> ());
                decr pending;
                if !pending = 0 then k (String.concat "" (Array.to_list parts))
              in
              if meta_on_shelf t meta then begin
                ckpt := meta :: !ckpt;
                Io.read t.io meta ~off ~len got
              end
              else got (Error `Unrecoverable))
            chunks
      in
      let rec load_dir dir k =
        match dir with
        | [] -> k ()
        | (name, ranges, chunks) :: rest -> (
          match Meta_log.table_of_name name with
          | None -> load_dir rest k
          | Some table ->
            let (Any ((module P), pyr)) = any_pyramid t table in
            load_chunks chunks (fun blob ->
                ckpt_bytes := !ckpt_bytes + String.length blob;
                (if String.length blob > 0 then
                   match P.Patch.deserialize blob with
                   | Some patch -> P.replace_patches pyr [ patch ]
                   | None -> ());
                (if String.length ranges > 0 && P.policy_is_elision pyr then
                   match Purity_encoding.Ranges.decode ranges with
                   | Some r -> (
                     (* a policy mismatch degrades to fewer elisions
                        instead of crashing the failover *)
                     try P.restore_elides pyr r
                     with Invalid_argument _ -> ())
                   | None -> ());
                load_dir rest k))
      in
      load_dir ckpt_dir (fun () ->
          let ckpt = List.rev !ckpt in
          t.checkpoint_segments <-
            List.sort_uniq Int.compare (List.map (fun (s : Segment.t) -> s.Segment.id) ckpt);
          (* scan for log records; [claims] records which segment each
             physical AU's on-disk header actually names *)
          let claims = Ptbl.create 64 in
          let scan =
            match mode with
            | Full_scan -> Scan.scan_all ~layout:t.layout ~shelf:t.shelf ~claims
            | Frontier_scan -> Scan.scan_members ~layout:t.layout ~shelf:t.shelf ~claims frontier
          in
          scan (fun headers segs ->
              (* A scanned id is burned even when the segment turns out to
                 be torn and is dropped: its header stays on disk until the
                 AU is erased for reuse, and a new segment under the same id
                 would be shadowed by the stale header at the next
                 failover's scan (first copy wins). *)
              List.iter
                (fun (s : Segment.t) ->
                  if s.Segment.id >= t.next_segment_id then
                    t.next_segment_id <- s.Segment.id + 1)
                segs;
              (* Only segments whose flush provably completed may be
                 trusted and have their log regions replayed: a torn
                 flush can leave the log region readable (it lives on the
                 members that finished) while the data rows are gone, so
                 replaying its records would point blockrefs at
                 unreconstructable rows — shadowing the still-live copies
                 they were relocating.  Commit proof: the segment is in
                 the checkpoint, in the segments pyramid, or has a live
                 'S' stash in NVRAM; log replay of a trusted segment can
                 commit further segments, so the trust rounds iterate to a
                 fixpoint.  Failing all that, a fully-present on-disk
                 image (every online member holds header + all rows) is
                 accepted — the fallback when NVRAM contents were lost. *)
              (* stashes at or below the checkpoint watermark carry no
                 information the patches don't (or were deliberately
                 compacted away): in particular a released segment's
                 stale 'S' stash must not count as commit proof *)
              let stashes =
                List.filter_map
                  (function
                    | seq, Meta_log.Stash m when Int64.compare seq t.checkpoint_seq > 0 -> Some m
                    | _ -> None)
                  decoded
              in
              let nvram_commits = Hashtbl.create 16 in
              List.iter
                (function
                  | Meta_log.Fact (Segments, { key; value = Some _; _ }) ->
                    Hashtbl.replace nvram_commits (Keys.segment_key_id key) ()
                  | _ -> ())
                stashes;
              let committed (seg : Segment.t) =
                List.mem seg.Segment.id t.checkpoint_segments
                || Option.is_some (Pyramid.find t.segments_pyr (Keys.segment_key seg.Segment.id))
                || Hashtbl.mem nvram_commits seg.Segment.id
                || scanned_segment_complete t ~claims seg
              in
              let log_records = ref 0 in
              let rec replay_logs segs k =
                match segs with
                | [] -> k ()
                | (seg : Segment.t) :: rest ->
                  if seg.Segment.log_len = 0 then replay_logs rest k
                  else
                    Io.read t.io seg ~off:seg.Segment.log_off ~len:seg.Segment.log_len
                      (fun result ->
                        (match result with
                        | Ok region ->
                          let rs = Writer.decode_log_region region in
                          List.iter
                            (fun (seq, record) ->
                              (* records at or below the checkpoint watermark
                                 are covered by the patches — and worse, their
                                 tombstones may have been dropped by the
                                 checkpoint's full compaction, so replaying
                                 them would resurrect deleted facts (e.g. a
                                 released segment's commit record, whose
                                 re-release would trim AUs reused by live
                                 segments) *)
                              if Int64.compare seq t.checkpoint_seq > 0 then
                                match Meta_log.decode_log record with
                                | Some m ->
                                  replay_meta t m;
                                  incr log_records
                                | None -> ())
                            rs
                        | Error `Unrecoverable -> ());
                        replay_logs rest k)
              in
              (* [trusted] collects the trusted segments, last trusted
                 first; torn ones are simply dropped: their AUs return to
                 the pool via erase-before-reuse, acked writes they held
                 are still covered by NVRAM intents (the trim only runs at
                 flush completion), and relocated data still has its
                 source segment (released only after a covering
                 checkpoint). *)
              let rec trust_rounds trusted pending k =
                match List.partition committed pending with
                | [], _torn -> k trusted
                | now, later ->
                  replay_logs now (fun () -> trust_rounds (List.rev_append now trusted) later k)
              in
              trust_rounds []
                (List.filter (meta_on_shelf t) segs)
                (fun trusted ->
                  List.iter (replay_meta t) stashes;
                  (* ---- phase 2: derive ---- *)
                  rebuild_derived t ~frontier ~ckpt ~trusted:(List.rev trusted)
                    ~medium_next_hint;
                  (* ---- phase 3: write ---- *)
                  (* Segments known only from their scanned headers (their
                     'S' fact was in an unflushed segio at the crash) must
                     be re-persisted, or the next checkpoint would drop
                     their AUs from the scan set and a later failover would
                     lose them entirely. *)
                  List.iter
                    (fun (seg : Segment.t) ->
                      let key = Keys.segment_key seg.Segment.id in
                      match Hashtbl.find_opt t.segment_metas seg.Segment.id with
                      | Some meta when Option.is_none (Pyramid.find t.segments_pyr key) -> (
                        try put t Segments ~key ~value:(Segment.encode_compact meta)
                        with Out_of_space -> ())
                      | Some _ | None -> ())
                    trusted;
                  (* Intents are reapplied through the write path.
                     Replayed metadata must become durable again: its NVRAM
                     record will be trimmed at the next segio flush, and the
                     bare replay would leave the fact memtable-only.  It is
                     re-logged under its ORIGINAL sequence number —
                     re-putting with a fresh one would let a stale stash
                     outrank newer facts recovered from the patches or the
                     segment logs.  It is not stashed again: the original
                     stays in NVRAM until the flush of a segio carrying the
                     re-logged copy trims past it, so a second copy would
                     only pile up across repeated failovers. *)
                  List.iter
                    (function
                      | seq, Meta_log.Intent { medium; block; data } ->
                        (try Write_path.apply_write t ~medium ~block data
                         with Out_of_space -> ());
                        t.last_applied_intent <- seq
                      | seq, Stash m when Int64.compare seq t.checkpoint_seq > 0 -> (
                        try append_log_record t ~seq (Meta_log.encode_log m)
                        with Out_of_space -> ())
                      | _, Stash _ -> ())
                    decoded;
                  finish ~cold:false ~headers ~segments:(List.length trusted)
                    ~log_records:!log_records ~nvram_records:(List.length records)
                    ~ckpt_bytes:!ckpt_bytes))))
