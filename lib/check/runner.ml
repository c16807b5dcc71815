(* The single-array suite: executes a {!Plan} against a real array
   while the reference {!Model} shadows it and predicts the one outcome
   of every I/O and namespace op, and audits the durability contract.
   The run loop, shrinking, replay and reports are {!Suite}'s. *)

module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module State = Purity_core.State
module Recovery = Purity_core.Recovery
module Segment = Purity_segment.Segment
module Writer = Purity_segment.Writer
module Allocator = Purity_segment.Allocator
module Ipair = Purity_util.Keytbl.Ipair
module Shelf = Purity_ssd.Shelf
module Drive = Purity_ssd.Drive
module Nvram = Purity_ssd.Nvram

exception Violation = Suite.Violation

type ctx = {
  clock : Clock.t;
  arr : Fa.t;
  payloads : Payload.t;
  model : Model.t;
  mutable pulled : int list;
  mutable unrebuilt : int list;  (* replaced, rebuild not yet completed *)
  mutable corrupt_units : int;
  mutable pending_crash_mode : Plan.mode option;
  mutable reads_issued : int;
  mutable losses : int;
  mutable digest : int;
}

(* Live fault budget: the same ceiling the generator respects, re-checked
   at execution time because shrinking can remove the event that would
   have cleared a unit. A fault that would exceed the array's erasure
   tolerance is skipped — the scenario must stay one the contract covers.
   [admits ctx d]: drive [d] is not awaiting a rebuild, and one more unit
   fits once [d]'s own pull, if any, is counted out. *)
let admits ctx d =
  let units = List.length ctx.pulled + List.length ctx.unrebuilt + ctx.corrupt_units in
  let freed = if List.mem d ctx.pulled then 1 else 0 in
  (not (List.mem d ctx.unrebuilt)) && units - freed < Suite.config.Fa.m

let residual_corrupt_units ctx =
  let n = ref 0 in
  for d = 0 to Suite.config.Fa.drives - 1 do
    if Drive.injected_corrupt_pages (Shelf.drive (Fa.shelf ctx.arr) d) > 0 then incr n
  done;
  !n

let apply_fault ctx (fault : Plan.fault) =
  match fault with
  | Plan.Lose_nvram ->
    Nvram.lose (Shelf.nvram (Fa.shelf ctx.arr));
    Model.nvram_lost ctx.model;
    ctx.losses <- ctx.losses + 1
  | Plan.Crash mode ->
    if Fa.is_online ctx.arr then begin
      ctx.pending_crash_mode <- Some mode;
      Fa.crash ctx.arr
    end
  | Plan.Pull_drive d ->
    if (not (List.mem d ctx.pulled)) && admits ctx d then begin
      Fa.pull_drive ctx.arr d;
      ctx.pulled <- d :: ctx.pulled
    end
  | Plan.Reinsert_drive d ->
    if List.mem d ctx.pulled then begin
      Fa.reinsert_drive ctx.arr d;
      ctx.pulled <- List.filter (( <> ) d) ctx.pulled
    end
  | Plan.Replace_drive d ->
    if admits ctx d then begin
      Fa.replace_drive ctx.arr d;
      ctx.pulled <- List.filter (( <> ) d) ctx.pulled;
      ctx.unrebuilt <- d :: ctx.unrebuilt
    end
  | Plan.Corrupt_page { drive; au_rank; page_rank } ->
    if (not (List.mem drive ctx.pulled)) && admits ctx drive then begin
      let dr = Shelf.drive (Fa.shelf ctx.arr) drive in
      let dcfg = Suite.config.Fa.drive_config in
      let filled = ref [] in
      for au = dcfg.Drive.num_aus - 1 downto 0 do
        if Drive.au_fill dr ~au > 0 then filled := au :: !filled
      done;
      match !filled with
      | [] -> ()
      | aus ->
        let au = List.nth aus (au_rank mod List.length aus) in
        let pages = max 1 (Drive.au_fill dr ~au / dcfg.Drive.page_size) in
        Drive.inject_page_corruption dr ~au ~page:(page_rank mod pages);
        ctx.corrupt_units <- ctx.corrupt_units + 1
    end

(* Every used AU has exactly one owner: a segment meta, the open segio or
   a sealed one. A used AU nobody names is lost to the array for good; an
   AU two owners name gets overwritten under one of them. *)
let audit_space arr =
  let st = Fa.state arr in
  let owners = Ipair.create 256 in
  let own what id (members : Segment.member array) =
    Array.iter
      (fun (m : Segment.member) ->
        let au = (m.Segment.drive, m.Segment.au) in
        let fail why =
          raise
            (Violation
               (Printf.sprintf "AU d%d/au%d of %s %d %s" m.Segment.drive m.Segment.au what id
                  why))
        in
        (match Ipair.find_opt owners au with
        | Some (w, i) -> fail (Printf.sprintf "is also owned by %s %d" w i)
        | None -> Ipair.replace owners au (what, id));
        if not (Allocator.is_used st.State.alloc m) then fail "is not marked used")
      members
  in
  Hashtbl.iter (fun id (seg : Segment.t) -> own "segment" id seg.Segment.members)
    st.State.segment_metas;
  Option.iter (fun w -> own "open segio" (Writer.id w) (Writer.members w)) st.State.open_writer;
  List.iter
    (fun (s : State.sealed_segio) -> own "sealed segio" (Writer.id s.State.w) (Writer.members s.State.w))
    st.State.sealed;
  let used = Allocator.used_au_count st.State.alloc in
  let owned = Ipair.length owners in
  if used <> owned then
    raise (Violation (Printf.sprintf "%d AUs marked used but %d owned" used owned))

let handle_offline ctx =
  Model.crashed ctx.model;
  let mode =
    match ctx.pending_crash_mode with
    | Some Plan.Full -> Recovery.Full_scan
    | _ -> Recovery.Frontier_scan
  in
  ctx.pending_crash_mode <- None;
  match Clock.await ctx.clock (fun k -> Fa.failover ~mode ctx.arr k) with
  | None -> raise (Violation "failover never completed")
  | Some (_ : Recovery.report) ->
    Suite.expect (Model.reconcile ctx.model (Fa.list_volumes ctx.arr))

(* A timed fault can re-crash the array as soon as failover finishes; the
   loop is bounded because every armed fault fires at most once. *)
let settle ctx =
  let guard = ref 10 in
  while not (Fa.is_online ctx.arr) do
    decr guard;
    if !guard < 0 then raise (Violation "array never settles after crashes");
    handle_offline ctx
  done;
  audit_space ctx.arr

let pp_listing ppf l =
  Format.fprintf ppf "[%s]"
    (String.concat "; "
       (List.map
          (fun (n, k, b) ->
            Printf.sprintf "%s:%s:%d" n (match k with `Volume -> "vol" | `Snapshot -> "snap") b)
          l))

let do_read ctx ~view ~block ~nblocks =
  ctx.reads_issued <- ctx.reads_issued + 1;
  let op = Plan.Read { view; block; nblocks } in
  let predicted = Model.predict_op ctx.model op in
  match Clock.await ctx.clock (Fa.read ctx.arr ~volume:view ~block ~nblocks) with
  | None | Some (Error `Offline) -> ()  (* a crash landed mid-read; nothing was promised *)
  | Some result ->
    Suite.expect_outcome Plan.pp_op op ~predicted result;
    Result.iter
      (fun data ->
        ctx.digest <- Suite.mix ctx.digest data;
        Suite.expect (Model.check_read ctx.model ~view ~block ~nblocks data))
      result

let exec_op ctx (op : Plan.op) =
  let m = ctx.model and arr = ctx.arr in
  let predicted = Model.predict_op m op in
  (* Namespace calls are synchronous: hold the result to the predicted
     outcome and, on success, apply [f] to the model. [`Busy] (NVRAM
     cannot take the op's metadata stashes) promises that nothing
     changed, so the model stays as it was. *)
  let namespace result f =
    match result with
    | Error `Busy when predicted = `Ok -> ()
    | result ->
      Suite.expect_outcome Plan.pp_op op ~predicted result;
      if Result.is_ok result then f ()
  in
  match op with
  | Plan.Create_volume { name; blocks } ->
    namespace (Fa.create_volume arr name ~blocks) (fun () -> Model.create_volume m name ~blocks)
  | Plan.Delete_volume name ->
    namespace (Fa.delete_volume arr name) (fun () -> Model.delete m name)
  | Plan.Resize_volume { name; blocks } ->
    namespace (Fa.resize_volume arr name ~blocks) (fun () -> Model.resize_volume m name ~blocks)
  | Plan.Snapshot { volume; snap } ->
    namespace (Fa.snapshot arr ~volume ~snap) (fun () -> Model.snapshot m ~volume ~snap)
  | Plan.Clone { snapshot; volume } ->
    namespace (Fa.clone arr ~snapshot ~volume) (fun () -> Model.clone m ~snapshot ~volume)
  | Plan.Delete_snapshot name ->
    namespace (Fa.delete_snapshot arr name) (fun () -> Model.delete m name)
  | Plan.Write { view; block; nblocks; wid } -> (
    let data = Payload.of_write ctx.payloads ~wid ~nblocks in
    match Clock.await ctx.clock (Fa.write arr ~volume:view ~block data) with
    | Some (Error `Backpressure) -> ()  (* not acked, no state change promised *)
    | None | Some (Error (`Offline | `No_space)) ->
      (* the controller died mid-write, or allocation failed partway: not
         acked, and the blocks may be torn between old and new *)
      Model.write m ~view ~block ~wid ~nblocks ~acked:false
    | Some result ->
      Suite.expect_outcome Plan.pp_op op ~predicted result;
      if Result.is_ok result then Model.write m ~view ~block ~wid ~nblocks ~acked:true)
  | Plan.Read { view; block; nblocks } -> do_read ctx ~view ~block ~nblocks
  | Plan.Flush -> (
    match Clock.await ctx.clock (fun k -> Fa.flush arr (fun () -> k ())) with
    | Some () when Fa.is_online arr -> Model.stabilized ctx.model
    | _ -> ())
  | Plan.Checkpoint -> (
    match Clock.await ctx.clock (fun k -> Fa.checkpoint arr k) with
    | Some _ when Fa.is_online arr -> Model.stabilized ctx.model
    | _ -> ())
  | Plan.Gc ->
    ignore
      (Clock.await ctx.clock (fun k -> Fa.gc ~min_dead_ratio:0.2 ~max_victims:8 arr k))
  | Plan.Scrub -> (
    match Clock.await ctx.clock (fun k -> Fa.scrub arr k) with
    | Some _ when Fa.is_online arr ->
      (* scrub relocated what it found; re-derive the live corruption
         budget from the marks actually left on the drives *)
      ctx.corrupt_units <- residual_corrupt_units ctx
    | _ -> ())
  | Plan.Rebuild d -> (
    match Clock.await ctx.clock (fun k -> Fa.rebuild_drive arr d k) with
    | Some (_ : int) when Fa.is_online arr ->
      ctx.unrebuilt <- List.filter (( <> ) d) ctx.unrebuilt
    | _ -> () (* interrupted: still missing shards; finalize retries *))

(* ---------- audits ---------- *)

let audit_namespace ctx =
  let arr_l = Fa.list_volumes ctx.arr in
  let mod_l = Model.listing ctx.model in
  if arr_l <> mod_l then
    raise
      (Violation
         (Format.asprintf "namespace drift: array %a, model %a" pp_listing arr_l pp_listing
            mod_l))

let audit_data ctx =
  List.iter
    (fun (view, _, blocks) ->
      Suite.iter_chunks blocks (fun block nblocks -> do_read ctx ~view ~block ~nblocks))
    (Model.listing ctx.model)

(* Nearest level of the medium chain holding this block, one per-patch
   scan per level: the per-block reference [State.resolve_range] is
   checked against. Not [Block_index.find]: that is a [find_run] of one
   key, the path under audit. *)
let chain_lookup (st : State.t) ~medium ~block =
  let chain = Purity_medium.Medium.resolve st.State.medium_table medium ~block in
  List.find_map (Purity_core.Block_index.find_naive st.State.blocks) chain

(* Batched range resolution is a pure performance artifact: for every
   block of every view it must agree exactly with the per-block chain
   walk, no matter what faults (crashes, GC, elides, medium retirement)
   the scenario threw at the block index. *)
let audit_resolution ctx =
  let st = Fa.state ctx.arr in
  State.Stbl.iter
    (fun name (v : State.volume) ->
      let medium = v.State.medium and blocks = v.State.blocks in
      if blocks > 0 then begin
        let refs = State.resolve_range st ~medium ~block:0 ~nblocks:blocks in
        for b = 0 to blocks - 1 do
          if refs.(b) <> chain_lookup st ~medium ~block:b then
            raise
              (Violation
                 (Printf.sprintf
                    "batched-resolution drift: %s block %d resolve_range disagrees with \
                     per-block resolution"
                    name b))
        done
      end)
    st.State.volumes

let audit_counters ctx =
  let s = Fa.stats ctx.arr in
  let shelf_losses = Nvram.losses (Shelf.nvram (Fa.shelf ctx.arr)) in
  if shelf_losses <> ctx.losses then
    raise
      (Violation
         (Printf.sprintf "NVRAM loss counter %d, runner injected %d" shelf_losses ctx.losses));
  if s.Fa.app_reads <> ctx.reads_issued then
    raise
      (Violation
         (Printf.sprintf "stats.app_reads = %d but %d reads were issued" s.Fa.app_reads
            ctx.reads_issued));
  if s.Fa.app_writes <> Model.acked_writes ctx.model then
    raise
      (Violation
         (Printf.sprintf
            "stats.app_writes = %d but %d writes were acked since the last failover"
            s.Fa.app_writes
            (Model.acked_writes ctx.model)));
  if s.Fa.availability < 0.0 || s.Fa.availability > 1.0 then
    raise (Violation (Printf.sprintf "availability %f out of range" s.Fa.availability));
  if s.Fa.physical_bytes_used > s.Fa.physical_capacity then
    raise (Violation "physical_bytes_used exceeds capacity")

let finalize ctx =
  settle ctx;
  (* finish interrupted rebuilds so the audit runs at full redundancy *)
  let guard = ref 10 in
  while ctx.unrebuilt <> [] do
    decr guard;
    if !guard < 0 then raise (Violation "rebuild never completes");
    exec_op ctx (Plan.Rebuild (List.hd ctx.unrebuilt));
    settle ctx
  done;
  audit_namespace ctx;
  audit_data ctx;
  audit_resolution ctx;
  audit_space ctx.arr;
  (* and once more through a clean failover: recovery must reproduce the
     same state from the shelf alone *)
  Fa.crash ctx.arr;
  settle ctx;
  audit_namespace ctx;
  audit_data ctx;
  audit_resolution ctx;
  audit_counters ctx;
  let s = Fa.stats ctx.arr in
  Suite.mix
    (Suite.mix ctx.digest
       Fa.(s.app_writes, s.app_reads, s.stored_bytes_written, s.physical_bytes_used,
           s.dedup_blocks, s.gc_dedup_blocks, s.segments_live, s.cache_hits, s.cache_misses))
    (int_of_float (Clock.now ctx.clock))

(* ---------- plan execution ---------- *)

let start clock seed =
  let payloads = Payload.create ~seed ~block_size:Fa.block_size in
  {
    clock;
    arr = Fa.create ~config:Suite.config ~clock ();
    payloads;
    model = Model.create payloads;
    pulled = [];
    unrebuilt = [];
    corrupt_units = 0;
    pending_crash_mode = None;
    reads_issued = 0;
    losses = 0;
    digest = 0;
  }

include Suite.Make (struct
  include Plan

  type nonrec ctx = ctx

  let name = "durability"
  let start = start
  let exec_op = exec_op
  let apply_fault = apply_fault
  let after_event ctx = if not (Fa.is_online ctx.arr) then settle ctx
  let finalize = finalize
end)
