(* The garbage collector (paper §4.5, §4.7, §4.10):

   - exact liveness scan of the block index (the paper keeps approximate
     counters and "fixes them up by issuing additional reads at runtime";
     the scan is those reads);
   - victim selection: live segments with the highest dead ratio
     (unordered log-structured cleaning);
   - relocation of live cblocks into the current segio, collapsing
     byte-identical cblocks on the way (the background dedup pass);
   - medium-tree flattening via shortcuts so reads stay within the
     three-cblock bound;
   - pyramid compaction, which is where elided facts actually vanish;
   - victims' AUs trimmed and returned to the allocator only after the
     relocated data has reached the drives. *)

open State
module I64tbl = Purity_util.Keytbl.I64
module Xxhash = Purity_util.Xxhash

type report = {
  victims : int list;
  relocated_cblocks : int;
  relocated_bytes : int;
  reclaimed_bytes : int;
  gc_dedup_hits : int;
  shared_cblocks : int;
      (* cblocks with more references than logical blocks, segregated into
         their own segments (paper 4.7: multiply-referenced blocks are
         less likely to die, so mixing them with ordinary data would make
         future segments harder to clean) *)
  duration_us : float;
}

(* Map segment -> (cblock off -> (stored_len, [(medium, block, index)])). *)
let liveness t =
  let table : (int, (int, int * (int * int * int) list ref) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  Pyramid.iter_live t.blocks (fun ~key ~value ->
      let r = Blockref.decode value in
      let medium = Keys.block_key_medium key and block = Keys.block_key_block key in
      let per_seg =
        match Hashtbl.find_opt table r.Blockref.segment with
        | Some h -> h
        | None ->
          let h = Hashtbl.create 16 in
          Hashtbl.replace table r.Blockref.segment h;
          h
      in
      (match Hashtbl.find_opt per_seg r.Blockref.off with
      | Some (_, refs) -> refs := (medium, block, r.Blockref.index) :: !refs
      | None ->
        Hashtbl.replace per_seg r.Blockref.off
          (r.Blockref.stored_len, ref [ (medium, block, r.Blockref.index) ])));
  table

let live_bytes_of per_seg = Hashtbl.fold (fun _ (len, _) acc -> acc + len) per_seg 0

(* Relocate every live cblock of one segment; calls [k true] when every
   live cblock was moved (data durability is the caller's seal+flush),
   [k false] if any read failed — the victim must then be kept alive, or
   the surviving references would dangle. *)
let relocate_segment t ~live ~content_cache ~counters seg_id k =
  match (Hashtbl.find_opt t.segment_metas seg_id, Hashtbl.find_opt live seg_id) with
  | None, _ -> k true
  | Some _, None -> k true
  | Some meta, Some per_seg ->
    (* shared first: a cblock with more references than ~logical blocks is
       deduplicated; segregating the phases clusters such cblocks together
       (the caller seals between phases across victims) *)
    let entries = Hashtbl.fold (fun off v acc -> (off, v) :: acc) per_seg [] in
    let shared, plain =
      List.partition
        (fun (_, (stored_len, refs)) ->
          List.length !refs > max 1 (stored_len / 512))
        entries
    in
    let entries = shared @ plain in
    let relocated, rel_bytes, dedup_hits = counters in
    let all_ok = ref true in
    let rec go = function
      | [] -> k !all_ok
      | (off, (stored_len, refs)) :: rest ->
        Io.read t.io meta ~off ~len:stored_len (fun result ->
            (match result with
            | Error `Unrecoverable ->
              (* cannot move this cblock right now (too many drives out or
                 busy): keep the victim; a later pass retries *)
              all_ok := false
            | Ok frame -> (
              (* [store_blob]/[put] raise Out_of_space if the controller
                 died while the read was in flight (dead controllers
                 allocate nothing); the victim is then simply kept *)
              try
                let fingerprint = Xxhash.hash frame ~pos:0 ~len:(Bytes.length frame) in
                let base =
                  match I64tbl.find_opt content_cache fingerprint with
                  | Some (base, cached) when String.equal cached (Bytes.to_string frame) ->
                    incr dedup_hits;
                    Registry.incr t.ws.gc_dedup_blocks;
                    base
                  | _ ->
                    let segment, new_off = store_blob t (Bytes.to_string frame) in
                    let base =
                      { Blockref.segment; off = new_off; stored_len; index = 0 }
                    in
                    I64tbl.replace content_cache fingerprint (base, Bytes.to_string frame);
                    incr relocated;
                    rel_bytes := !rel_bytes + stored_len;
                    base
                in
                List.iter
                  (fun (medium, block, index) ->
                    put t Blocks ~key:(Keys.block_key ~medium ~block)
                      ~value:(Blockref.encode { base with Blockref.index }))
                  !refs
              with Out_of_space -> all_ok := false));
            go rest)
    in
    go entries

(* Destroy a relocated segment; returns the bytes of AUs it gave back. *)
let release_segment t seg_id =
  match Hashtbl.find_opt t.segment_metas seg_id with
  | None -> 0
  | Some meta ->
    Hashtbl.remove t.segment_metas seg_id;
    put_delete t Segments ~key:(Keys.segment_key seg_id);
    Array.iter
      (fun (m : Segment.member) ->
        let d = Shelf.drive t.shelf m.Segment.drive in
        if Drive.is_online d then Drive.trim_au d ~au:m.Segment.au)
      meta.Segment.members;
    Allocator.release t.alloc meta.Segment.members;
    (* inline-dedup sources living in the victim are gone *)
    let stale =
      Hashtbl.fold
        (fun wid (r : Blockref.t) acc -> if r.Blockref.segment = seg_id then wid :: acc else acc)
        t.dedup_locs []
    in
    List.iter
      (fun wid ->
        Hashtbl.remove t.dedup_locs wid;
        Dedup.forget t.dedup ~write_id:wid)
      stale;
    Array.length meta.Segment.members * t.cfg.drive_config.Drive.au_size

(* Evacuate [victims]: relocate each one's live cblocks, run [settle]
   (the caller's step between relocation and checkpoint), checkpoint, then
   destroy the victims whose every live cblock moved. [k] gets those, in
   victim order, and the bytes their release reclaimed. Destroying a
   victim also destroys its header log records, which may hold the only
   durable copy of metadata facts whose NVRAM stashes were already
   trimmed: a checkpoint must cover them first, so the release waits for
   one. A crash mid-pass abandons it, and [k] never runs. *)
let evacuate t ~live ~content_cache ~counters ~settle victims k =
  let released = ref [] in
  let rec go = function
    | [] ->
      if t.online then
        settle (fun () ->
            Checkpoint.run t (fun _ckpt ->
                let released = List.rev !released in
                let reclaimed =
                  List.fold_left (fun acc id -> acc + release_segment t id) 0 released
                in
                maybe_persist_boot t;
                k released reclaimed))
    | seg_id :: rest ->
      relocate_segment t ~live ~content_cache ~counters seg_id (fun ok ->
          if ok then released := seg_id :: !released;
          go rest)
  in
  go victims

let flatten_mediums t =
  Medium.shortcut t.medium_table ~has_blocks:(fun ~medium ~lo ~hi ->
      medium_has_blocks t ~medium ~lo ~hi);
  List.iter (fun m -> persist_medium t m) (Medium.live_mediums t.medium_table)

let run ?(min_dead_ratio = 0.25) ?(max_victims = 4) t k =
  let start = Clock.now t.clock in
  (* pass-level telemetry (registration is idempotent, so grabbing the
     handles here keeps them tied to the current controller's registry) *)
  let c_passes = Registry.counter t.tel "gc/passes" in
  let c_victims = Registry.counter t.tel "gc/victim_segments" in
  let c_relocated = Registry.counter t.tel "gc/relocated_cblocks" in
  let c_rel_bytes = Registry.counter t.tel "gc/relocated_bytes" in
  let c_reclaimed = Registry.counter t.tel "gc/reclaimed_bytes" in
  let h_pass_us = Registry.histogram t.tel "gc/pass_us" in
  let gc_span = Span.start t.tracer "gc_pass" in
  let live = liveness t in
  let open_id = match t.open_writer with Some w -> Writer.id w | None -> -1 in
  let protected_ = open_id :: t.checkpoint_segments in
  let candidates =
    Hashtbl.fold
      (fun seg_id (meta : Segment.t) acc ->
        if List.mem seg_id protected_ then acc
        else begin
          let data_bytes = meta.Segment.payload_len in
          if data_bytes = 0 then acc
          else begin
            let lb =
              match Hashtbl.find_opt live seg_id with
              | Some per_seg -> live_bytes_of per_seg
              | None -> 0
            in
            let dead_ratio = 1.0 -. (float_of_int lb /. float_of_int data_bytes) in
            if dead_ratio >= min_dead_ratio then (seg_id, dead_ratio) :: acc else acc
          end
        end)
      t.segment_metas []
  in
  let victims =
    List.sort (fun (_, a) (_, b) -> Float.compare b a) candidates
    |> List.filteri (fun i _ -> i < max_victims)
    |> List.map fst
  in
  let content_cache = I64tbl.create 64 in
  let relocated = ref 0 and rel_bytes = ref 0 and dedup_hits = ref 0 in
  let counters = (relocated, rel_bytes, dedup_hits) in
  (* 4.7 segregation: relocate multiply-referenced cblocks in their own
     phase, sealing the segio in between, so deduplicated data clusters in
     dedicated segments *)
  let shared_count = ref 0 in
  let finish releasable reclaimed =
    let duration_us = Clock.now t.clock -. start in
    Registry.incr c_passes;
    Registry.add c_victims (List.length releasable);
    Registry.add c_relocated !relocated;
    Registry.add c_rel_bytes !rel_bytes;
    Registry.add c_reclaimed reclaimed;
    Histogram.record h_pass_us duration_us;
    Span.finish
      ~tags:
        [
          ("victims", string_of_int (List.length releasable));
          ("relocated", string_of_int !relocated);
        ]
      gc_span;
    k
      {
        victims = releasable;
        relocated_cblocks = !relocated;
        relocated_bytes = !rel_bytes;
        reclaimed_bytes = reclaimed;
        gc_dedup_hits = !dedup_hits;
        shared_cblocks = !shared_count;
        duration_us;
      }
  in
  (* count the shared cblocks for the report (segregation happens inside
     relocate_segment's two-phase ordering) *)
  List.iter
    (fun seg_id ->
      match Hashtbl.find_opt live seg_id with
      | None -> ()
      | Some per_seg ->
        Hashtbl.iter
          (fun _ (stored_len, refs) ->
            if List.length !refs > max 1 (stored_len / 512) then incr shared_count)
          per_seg)
    victims;
  (* flatten medium trees before the checkpoint, which then persists the
     relocation and flatten facts along with covering the victims *)
  evacuate t ~live ~content_cache ~counters
    ~settle:(fun k ->
      flatten_mediums t;
      k ())
    victims finish
