(* Recovery (paper §4.3, Figure 5): runs on a freshly created State.t over
   the surviving shelf + boot region, after a crash or during controller
   failover.

   1. read the boot region: frontier set, counters, checkpoint directory;
   2. load the checkpointed patches into the pyramids;
   3. scan segment headers for log records — either the whole array
      (`Full_scan`, the paper's early 12 s path) or just the persisted
      frontier set (`Frontier_scan`, the 0.1 s path);
   4. replay discovered log records into the pyramids (facts are
      idempotent, so re-inserting already-checkpointed ones is harmless);
   5. replay NVRAM intents (writes acked but not yet in a flushed segio);
   6. rebuild the volatile derived state (medium table, volumes, segment
      metas, allocator occupancy, sequence counter). *)

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
   that cannot catch a recovery that "forgets" step 5 is not checking the
   durability contract. Never set outside tests. *)
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

(* Rebuild volatile state from the recovered pyramids. *)
let rebuild_derived t ~medium_next_hint =
  (* segment metas *)
  Pyramid.iter_live t.segments_pyr (fun ~key ~value ->
      let id = Keys.segment_key_id key in
      match Segment.decode_compact value with
      | Some meta ->
        (* the segment-table fact is written at flush completion with the
           final member list (mid-flush remaps included), so it overrides
           any stale header copy the scan decoded *)
        Hashtbl.replace t.segment_metas id meta
      | None -> ());
  (* A checkpoint can list a segment that was released right after it: GC
     releases victims only once the covering checkpoint completes, so the
     release tombstone always postdates the patches and arrives via log or
     NVRAM replay. The tombstone wins — drop the meta, or GC would release
     the dead segment a second time and trim AUs long since reused by
     newer segments. (Its already-marked AUs stay out of circulation; the
     overlap with live segments makes releasing them here unsafe.) *)
  let dead =
    Hashtbl.fold
      (fun id _ acc ->
        let key = Keys.segment_key id in
        if
          Option.is_none (Pyramid.find t.segments_pyr key)
          && Option.is_some (Pyramid.find_ignoring_retractions t.segments_pyr key)
        then id :: acc
        else acc)
      t.segment_metas []
  in
  List.iter (Hashtbl.remove t.segment_metas) dead;
  Hashtbl.iter
    (fun id meta ->
      Allocator.mark_used t.alloc meta.Segment.members;
      if id >= t.next_segment_id then t.next_segment_id <- id + 1)
    t.segment_metas;
  (* medium table *)
  let rows = ref [] in
  let max_medium = ref 0 in
  Pyramid.iter_live t.mediums_pyr (fun ~key ~value ->
      let id = Keys.medium_key_id key in
      if id > !max_medium then max_medium := id;
      match Medium.decode_extents value with
      | Some extents -> rows := (id, extents) :: !rows
      | None -> ());
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
  Pyramid.iter_live t.volumes_pyr (fun ~key ~value ->
      match decode_volume_value value with
      | Some v -> Stbl.replace t.volumes key v
      | None -> ());
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
  Boot_region.read t.boot (function
    | None ->
      (* factory-fresh array *)
      finish ~cold:true ~headers:0 ~segments:0 ~log_records:0 ~nvram_records:0 ~ckpt_bytes:0
    | Some blob ->
      (* A boot region that fails to decode must not fall through to the
         factory-fresh path: that path skips the header scan entirely,
         which is only safe when there is genuinely no data. Nothing the
         corrupt blob recorded (frontier, counters, checkpoint directory)
         can be trusted, so recovery degrades to a full header scan with
         no checkpoint — slower, but every durably flushed segment is
         rediscovered and the logs replay as usual. *)
      let bb = Boot_region.decode blob in
      let mode = match bb with None -> Full_scan | Some _ -> mode in
      (match bb with
      | None -> ()
      | Some bb ->
        Allocator.restore_persisted t.alloc bb.frontier;
        t.next_segment_id <- bb.next_segment;
        (* ids are never reused: pin the medium counter before anything can
           allocate and rewrite the boot region *)
        t.medium_next_id <- bb.next_medium;
        t.medium_table <- Medium.restore ~rows:[] ~next_id:bb.next_medium;
        Seqno.restore_at_least t.seqno bb.seq;
        t.checkpoint_dir <- bb.dir;
        t.checkpoint_seq <- bb.checkpoint_seq);
      (* The boot counter can be stale, and the newest surviving facts can
         undercount the dead generation's allocations when they rode a torn
         segment.  NVRAM outlives the crash, so the counter must also clear
         every record it holds — reusing a dead generation's sequence
         numbers would let its stale stashes outrank this generation's new
         facts. *)
      List.iter
        (fun (r : Nvram.record) -> Seqno.restore_at_least t.seqno r.Nvram.seq)
        (Nvram.records (nvram t));
      t.boot_generation_written <- Allocator.persist_generation t.alloc;
      (* with no decodable boot block there is no checkpoint directory to
         load, and the medium-counter hint degrades to the scanned facts'
         own maximum ([rebuild_derived] takes the max of the two) *)
      let ckpt_dir, medium_next_hint =
        match bb with
        | Some bb -> (bb.dir, bb.next_medium)
        | None -> ([], 0)
      in
      (* load checkpoint patches *)
      let ckpt_bytes = ref 0 in
      let ckpt_segments = ref [] in
      let load_chunks chunks k =
        let parts = Array.make (List.length chunks) "" in
        let pending = ref (List.length chunks) in
        if !pending = 0 then k ""
        else
          List.iteri
            (fun i ((meta : Segment.t), off, len) ->
              if not (Hashtbl.mem t.segment_metas meta.Segment.id) then begin
                Hashtbl.replace t.segment_metas meta.Segment.id meta;
                Allocator.mark_used t.alloc meta.Segment.members;
                ckpt_segments := meta.Segment.id :: !ckpt_segments
              end;
              Io.read t.io meta ~off ~len (fun result ->
                  (match result with
                  | Ok data -> parts.(i) <- Bytes.to_string data
                  | Error `Unrecoverable -> ());
                  decr pending;
                  if !pending = 0 then k (String.concat "" (Array.to_list parts))))
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
          t.checkpoint_segments <- List.sort_uniq Int.compare !ckpt_segments;
          (* scan for log records; [claims] records which segment each
             physical AU's on-disk header actually names *)
          let claims = Ptbl.create 64 in
          let scan k =
            match mode with
            | Full_scan ->
              let headers =
                Array.fold_left
                  (fun acc d ->
                    if Drive.is_online d then acc + (Drive.config d).Drive.num_aus else acc)
                  0 (Shelf.drives t.shelf)
              in
              Scan.scan_all ~layout:t.layout ~shelf:t.shelf ~claims (fun segs ->
                  k (headers, segs))
            | Frontier_scan ->
              let slots = Allocator.persisted_frontier t.alloc in
              Scan.scan_members ~layout:t.layout ~shelf:t.shelf ~claims slots (fun segs ->
                  k (List.length slots, segs))
          in
          scan (fun (headers, segs) ->
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
                 installed and have their log regions replayed: a torn
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
              let nvram_commits = Hashtbl.create 16 in
              List.iter
                (fun (r : Nvram.record) ->
                  (* stashes at or below the checkpoint watermark carry no
                     information the patches don't: in particular a released
                     segment's stale 'S' stash must not count as commit
                     proof *)
                  if Int64.compare r.Nvram.seq t.checkpoint_seq > 0 then
                    match Meta_log.decode_stash r.Nvram.payload with
                    | Some (Fact (Segments, { key; value = Some _; _ })) ->
                      Hashtbl.replace nvram_commits (Keys.segment_key_id key) ()
                    | Some _ | None -> ())
                (Nvram.records (nvram t));
              let committed (seg : Segment.t) =
                Hashtbl.mem t.segment_metas seg.Segment.id
                || Option.is_some (Pyramid.find t.segments_pyr (Keys.segment_key seg.Segment.id))
                || Hashtbl.mem nvram_commits seg.Segment.id
                || scanned_segment_complete t ~claims seg
              in
              let log_records = ref 0 in
              let trusted = ref [] in
              let install (seg : Segment.t) =
                trusted := seg :: !trusted;
                if not (Hashtbl.mem t.segment_metas seg.Segment.id) then begin
                  Hashtbl.replace t.segment_metas seg.Segment.id seg;
                  Allocator.mark_used t.alloc seg.Segment.members
                end;
                (* The log records just replayed from this segment are not
                   covered by any checkpoint yet: keep its members in the
                   scan set, or the next boot-region rewrite would hide
                   them from a later failover's frontier scan. *)
                Allocator.requeue_scan t.alloc seg.Segment.members
              in
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
              let rec trust_rounds pending k =
                match List.partition committed pending with
                | [], later -> k later
                | now, later ->
                  List.iter install now;
                  replay_logs now (fun () -> trust_rounds later k)
              in
              let after_logs () =
                rebuild_derived t ~medium_next_hint;
                (* Segments known only from their scanned headers (their
                   'S' fact was in an unflushed segio at the crash) must be
                   re-persisted, or the next checkpoint would drop their
                   AUs from the scan set and a later failover would lose
                   them entirely. One with an 'S' stash is left to the
                   NVRAM replay below, which re-logs that fact. *)
                List.iter
                  (fun (seg : Segment.t) ->
                    let key = Keys.segment_key seg.Segment.id in
                    (* absent only — a tombstoned key means the segment was
                       released after the covering checkpoint; re-inserting
                       its fact would resurrect a dead segment over its own
                       tombstone *)
                    if
                      (not (Hashtbl.mem nvram_commits seg.Segment.id))
                      && Option.is_none (Pyramid.find t.segments_pyr key)
                      && Option.is_none (Pyramid.find_ignoring_retractions t.segments_pyr key)
                    then
                      try put t Segments ~key ~value:(Segment.encode_compact seg)
                      with Out_of_space -> ())
                  !trusted;
                (* NVRAM intents: writes acked but possibly not in any
                   flushed segio; reapply them through the write path *)
                let records =
                  if chaos.skip_nvram_replay then [] else Nvram.records (nvram t)
                in
                let n = List.length records in
                (* Replayed metadata must become durable again: its NVRAM
                   record will be trimmed at the next segio flush, and the
                   bare replay would leave the fact memtable-only.  It is
                   re-inserted and re-logged under its ORIGINAL sequence
                   number — re-putting with a fresh one would let a stale
                   stash outrank newer facts recovered from the patches or
                   the segment logs.  It is not stashed again: the
                   original stays in NVRAM until the flush of a segio
                   carrying the re-logged copy trims past it, so a second
                   copy would only pile up across repeated failovers.
                   Metadata stashes at or below the checkpoint watermark
                   are already in the patches (or deliberately compacted
                   away) and are not replayed. *)
                List.iter
                  (fun (r : Nvram.record) ->
                    match Meta_log.decode_nvram r.Nvram.payload with
                    | Some (Intent { medium; block; data }) ->
                      (try Write_path.apply_write t ~medium ~block data
                       with Out_of_space -> ());
                      t.last_applied_intent <- r.Nvram.seq
                    | Some (Stash m) when Int64.compare r.Nvram.seq t.checkpoint_seq > 0 -> (
                      replay_meta t m;
                      try append_log_record t ~seq:r.Nvram.seq (Meta_log.encode_log m)
                      with Out_of_space -> ())
                    | Some (Stash _) | None -> ())
                  records;
                (* derived state again: replayed intents may have grown things *)
                rebuild_derived t ~medium_next_hint;
                finish ~cold:false ~headers ~segments:(List.length !trusted)
                  ~log_records:!log_records ~nvram_records:n ~ckpt_bytes:!ckpt_bytes
              in
              trust_rounds segs (fun torn ->
                  (* Torn segments are simply dropped: their AUs return to
                     the pool via erase-before-reuse, acked writes they
                     held are still covered by NVRAM intents (the trim
                     only runs at flush completion), and relocated data
                     still has its source segment (released only after a
                     covering checkpoint). *)
                  ignore torn;
                  after_logs ()))))
