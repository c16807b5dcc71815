(* The garbage collector (paper §4.5, §4.7, §4.10), and the one
   evacuation path it shares with scrub (§5.1) and drive rebuild:

   - exact liveness scan of the block index (the paper keeps approximate
     counters and "fixes them up by issuing additional reads at runtime";
     the scan is those reads);
   - victim selection: live segments with the highest dead ratio
     (unordered log-structured cleaning) — the only step that is GC's
     own; scrub picks corrupt segments and rebuild a drive's segments;
   - [evacuate]: relocation of live cblocks into the current segio,
     collapsing byte-identical cblocks on the way (the background dedup
     pass), a checkpoint, and the victims' destruction, so their AUs are
     trimmed and returned to the allocator only after the relocated data
     and the metadata their log records held are durable elsewhere;
   - medium-tree flattening via shortcuts so reads stay within the
     three-cblock bound (GC's step before the checkpoint);
   - pyramid compaction, which is where elided facts actually vanish. *)

open State
module I64tbl = Purity_util.Keytbl.I64
module Xxhash = Purity_util.Xxhash

type report = {
  victims : int list; (* destroyed, in victim order *)
  relocated_cblocks : int;
  relocated_bytes : int;
  reclaimed_bytes : int;
  gc_dedup_hits : int;
  shared_cblocks : int;
      (* cblocks with more references than logical blocks, relocated
         ahead of the rest (paper 4.7: multiply-referenced blocks are less
         likely to die, so mixing them with ordinary data would make
         future segments harder to clean) *)
  duration_us : float;
}

(* One cblock's part of a liveness scan: its stored length and its refs,
   the block index's own live facts that map into it. *)
type cblock = { stored_len : int; mutable refs : Block_index.fact list }

(* Map segment -> (cblock off -> cblock). [iter_live] walks keys in
   ascending order, once each, and each ref is prepended: a cblock's refs
   come out in strictly descending key order, which [still_mapped] relies
   on. A run of blocks maps into one cblock, so the scan keeps the cblock
   it last touched and looks the tables up only when a ref leaves it. *)
let liveness t =
  let table : (int, (int, cblock) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let last_seg = ref (-1) and last_off = ref (-1) in
  let last = ref { stored_len = 0; refs = [] } in
  Block_index.iter_live t.blocks (fun fact ->
      match fact.Block_index.Fact.value with
      | None -> ()
      | Some r ->
        if r.Blockref.segment <> !last_seg || r.Blockref.off <> !last_off then begin
          let per_seg =
            match Hashtbl.find_opt table r.Blockref.segment with
            | Some h -> h
            | None ->
              let h = Hashtbl.create 16 in
              Hashtbl.replace table r.Blockref.segment h;
              h
          in
          (last :=
             match Hashtbl.find_opt per_seg r.Blockref.off with
             | Some cb -> cb
             | None ->
               let cb = { stored_len = r.Blockref.stored_len; refs = [] } in
               Hashtbl.replace per_seg r.Blockref.off cb;
               cb);
          last_seg := r.Blockref.segment;
          last_off := r.Blockref.off
        end;
        !last.refs <- fact :: !last.refs);
  table

let live_bytes_of per_seg = Hashtbl.fold (fun _ cb acc -> acc + cb.stored_len) per_seg 0

(* One evacuation's running totals, and its content cache: fingerprint ->
   (home, frame) of each cblock relocated so far, so a byte-identical
   cblock met later collapses onto that copy (the background dedup). *)
type tally = {
  cache : (Blockref.t * string) I64tbl.t;
  mutable relocated : int;
  mutable relocated_bytes : int;
  mutable dedup_hits : int;
  mutable shared : int;
}

(* Compact the refs of the cblock at [off] of [seg_id] that still map to
   it into the first slots of [refs], in scan order, and return their
   count: host writes acked since the liveness scan may have overwritten
   some, and a remap from the scan would shadow them. One batched index
   walk over the refs' keys, each a run of one. A block still mapped
   there keeps the scan's index, since no write dedups onto a victim
   once its pass has begun. [refs] are in strictly descending key order
   (see [liveness]), so walk slot [i] is [refs.(n - 1 - i)]; the order is
   checked, since a ref missed here would be left pointing into a
   destroyed segment. *)
let still_mapped t ~seg_id ~off (refs : Block_index.fact array) =
  let n = Array.length refs in
  let keys = Array.init n (fun i -> refs.(n - 1 - i).Block_index.Fact.key) in
  for i = 1 to n - 1 do
    if Keys.Block.compare keys.(i - 1) keys.(i) >= 0 then
      invalid_arg "Gc.still_mapped: refs not in descending key order"
  done;
  let slots = run_slots t n in
  Block_index.find_run t.blocks ~keys ~span:1 ~into:slots;
  let mapped = ref 0 in
  for j = 0 to n - 1 do
    match Block_index.live_value t.blocks slots.(n - 1 - j) with
    | Some (r : Blockref.t) when r.segment = seg_id && r.off = off ->
      refs.(!mapped) <- refs.(j);
      incr mapped
    | Some _ | None -> ()
  done;
  !mapped

(* Relocate every live cblock of one segment; calls [k true] when every
   live cblock was moved (data durability is the caller's checkpoint),
   [k false] if any read failed — the victim must then be kept alive, or
   the surviving references would dangle. A cblock every block of which
   was overwritten since the scan is dead, and is not moved. *)
let relocate_segment t ~live tally seg_id k =
  match (Hashtbl.find_opt t.segment_metas seg_id, Hashtbl.find_opt live seg_id) with
  | None, _ -> k true
  | Some _, None -> k true
  | Some meta, Some per_seg ->
    (* shared first: a cblock with more references than ~logical blocks is
       deduplicated; relocating those first clusters them together *)
    let entries = Hashtbl.fold (fun off cb acc -> (off, cb) :: acc) per_seg [] in
    let shared, plain =
      List.partition
        (fun (_, cb) -> List.length cb.refs > max 1 (cb.stored_len / 512))
        entries
    in
    tally.shared <- tally.shared + List.length shared;
    let entries = shared @ plain in
    let all_ok = ref true in
    let rec go = function
      | [] -> k !all_ok
      | (off, { stored_len; refs }) :: rest ->
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
              let refs = Array.of_list refs in
              match still_mapped t ~seg_id ~off refs with
              | 0 -> ()
              | mapped -> (
                try
                  let fingerprint = Xxhash.hash frame ~pos:0 ~len:(Bytes.length frame) in
                  let data = Bytes.to_string frame in
                  let base =
                    match I64tbl.find_opt tally.cache fingerprint with
                    | Some (base, cached) when String.equal cached data ->
                      tally.dedup_hits <- tally.dedup_hits + 1;
                      Registry.incr t.ws.gc_dedup_blocks;
                      base
                    | _ ->
                      let segment, new_off = store_blob t data in
                      let base =
                        { Blockref.segment; off = new_off; stored_len; index = 0 }
                      in
                      I64tbl.replace tally.cache fingerprint (base, data);
                      tally.relocated <- tally.relocated + 1;
                      tally.relocated_bytes <- tally.relocated_bytes + stored_len;
                      base
                  in
                  for i = 0 to mapped - 1 do
                    match refs.(i) with
                    | { key = medium, block; value = Some r; _ } ->
                      put_block t ~medium ~block { base with Blockref.index = r.index }
                    | { value = None; _ } -> ()
                  done
                with Out_of_space -> all_ok := false)));
            go rest)
    in
    go entries

(* The one evacuation sequence GC, scrub and drive rebuild share; they
   differ only in how they pick [victims]. Relocate each victim's live
   cblocks, run [before_checkpoint] (GC flattens medium trees there, so
   the checkpoint persists the flatten facts too), checkpoint, then
   destroy the victims whose every live cblock moved. [k] gets the report,
   its [victims] being those destroyed, in victim order. Destroying a
   victim also destroys its header log records, which may hold the only
   durable copy of metadata facts whose NVRAM stashes were already
   trimmed: a checkpoint must cover them first, so the release waits for
   one. A crash mid-pass abandons it, and [k] never runs. *)
let evacuate t ~live ~before_checkpoint victims k =
  let start = Clock.now t.clock in
  (* a write that dedups onto a victim's cblock after the liveness scan
     would be left pointing into a destroyed segment *)
  Dedup.forget_where t.dedup (fun r -> List.mem r.Blockref.segment victims);
  let tally =
    { cache = I64tbl.create 64; relocated = 0; relocated_bytes = 0; dedup_hits = 0; shared = 0 }
  in
  let released = ref [] in
  let rec go = function
    | [] ->
      if t.online then begin
        before_checkpoint ();
        Checkpoint.run t (fun _ckpt ->
            let victims = List.rev !released in
            let reclaimed_bytes = destroy_segments t victims in
            maybe_persist_boot t;
            k
              {
                victims;
                relocated_cblocks = tally.relocated;
                relocated_bytes = tally.relocated_bytes;
                reclaimed_bytes;
                gc_dedup_hits = tally.dedup_hits;
                shared_cblocks = tally.shared;
                duration_us = Clock.now t.clock -. start;
              })
      end
    | seg_id :: rest ->
      relocate_segment t ~live tally seg_id (fun ok ->
          if ok then released := seg_id :: !released;
          go rest)
  in
  go victims

(* The ascending maximal runs of blocks [medium] owns, from one walk of
   its facts in the block index. Taken at flatten time, not from the
   pass's liveness scan: a snapshot taken mid-pass can freeze a medium
   after that scan missed its newest blocks. *)
let owned_runs t medium =
  Block_index.range t.blocks ~lo:(medium, 0) ~hi:(medium, max_int)
  |> List.fold_left
       (fun runs ((_, block), _) ->
         match runs with
         | (lo, hi) :: rest when hi + 1 = block -> (lo, block) :: rest
         | _ -> (block, block) :: runs)
       []
  |> List.rev

let flatten_mediums t =
  Medium.shortcut t.medium_table ~owned:(owned_runs t);
  List.iter (fun m -> persist_medium t m) (Medium.live_mediums t.medium_table)

let run ?(min_dead_ratio = 0.25) ?(max_victims = 4) t k =
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
  let candidates =
    Hashtbl.fold
      (fun seg_id (meta : Segment.t) acc ->
        if List.mem seg_id t.checkpoint_segments then acc
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
  evacuate t ~live
    ~before_checkpoint:(fun () -> flatten_mediums t)
    victims
    (fun r ->
      Registry.incr c_passes;
      Registry.add c_victims (List.length r.victims);
      Registry.add c_relocated r.relocated_cblocks;
      Registry.add c_rel_bytes r.relocated_bytes;
      Registry.add c_reclaimed r.reclaimed_bytes;
      Histogram.record h_pass_us r.duration_us;
      Span.finish
        ~tags:
          [
            ("victims", string_of_int (List.length r.victims));
            ("relocated", string_of_int r.relocated_cblocks);
          ]
        gc_span;
      k r)
