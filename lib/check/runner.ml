(* The single-array suite: executes a {!Plan} against a real array
   while the reference {!Model} shadows it, and audits the durability
   contract. The run loop, shrinking, replay and reports are {!Suite}'s. *)

module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module State = Purity_core.State
module Recovery = Purity_core.Recovery
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
   tolerance is skipped — the scenario must stay one the contract covers. *)
let units ctx =
  List.length ctx.pulled + List.length ctx.unrebuilt + ctx.corrupt_units

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
    if (not (List.mem d ctx.pulled))
       && (not (List.mem d ctx.unrebuilt))
       && units ctx < Suite.config.Fa.m
    then begin
      Fa.pull_drive ctx.arr d;
      ctx.pulled <- d :: ctx.pulled
    end
  | Plan.Reinsert_drive d ->
    if List.mem d ctx.pulled then begin
      Fa.reinsert_drive ctx.arr d;
      ctx.pulled <- List.filter (( <> ) d) ctx.pulled
    end
  | Plan.Replace_drive d ->
    let freed = if List.mem d ctx.pulled then 1 else 0 in
    if (not (List.mem d ctx.unrebuilt)) && units ctx - freed < Suite.config.Fa.m
    then begin
      Fa.replace_drive ctx.arr d;
      ctx.pulled <- List.filter (( <> ) d) ctx.pulled;
      ctx.unrebuilt <- d :: ctx.unrebuilt
    end
  | Plan.Corrupt_page { drive; au_rank; page_rank } ->
    if (not (List.mem drive ctx.pulled))
       && (not (List.mem drive ctx.unrebuilt))
       && units ctx < Suite.config.Fa.m
    then begin
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

let handle_offline ctx =
  Model.crashed ctx.model;
  let mode =
    match ctx.pending_crash_mode with
    | Some Plan.Full -> Recovery.Full_scan
    | _ -> Recovery.Frontier_scan
  in
  ctx.pending_crash_mode <- None;
  match Suite.await ctx.clock (fun k -> Fa.failover ~mode ctx.arr k) with
  | None -> raise (Violation "failover never completed")
  | Some (_ : Recovery.report) -> (
    match Model.reconcile ctx.model (Fa.list_volumes ctx.arr) with
    | Ok () -> ()
    | Error msg -> raise (Violation msg))

(* A timed fault can re-crash the array as soon as failover finishes; the
   loop is bounded because every armed fault fires at most once. *)
let settle ctx =
  let guard = ref 10 in
  while not (Fa.is_online ctx.arr) do
    decr guard;
    if !guard < 0 then raise (Violation "array never settles after crashes");
    handle_offline ctx
  done

let pp_listing ppf l =
  Format.fprintf ppf "[%s]"
    (String.concat "; "
       (List.map
          (fun (n, k, b) ->
            Printf.sprintf "%s:%s:%d" n (match k with `Volume -> "vol" | `Snapshot -> "snap") b)
          l))

let vol_err_name = function
  | `Exists -> "Exists"
  | `No_such_volume -> "No_such_volume"
  | `Busy -> "Busy"
  | `Is_snapshot -> "Is_snapshot"
  | `Is_volume -> "Is_volume"
  | `Shrink -> "Shrink"

(* Namespace calls are synchronous; run one and hold the array to the
   outcome the model predicts. [`Busy] (NVRAM cannot take the op's
   metadata stashes) promises that nothing changed, so the model stays
   as it was. *)
let ns_op ~what ~expect_ok actual ~on_ok =
  match (actual, expect_ok) with
  | Ok (), true -> on_ok ()
  | Error _, false | Error `Busy, true -> ()
  | Ok (), false -> raise (Violation (what ^ ": succeeded but the model forbids it"))
  | Error e, true ->
    raise (Violation (Printf.sprintf "%s: unexpected %s" what (vol_err_name e)))

let do_read ctx ~view ~block ~nblocks =
  ctx.reads_issued <- ctx.reads_issued + 1;
  let m = ctx.model in
  let expect =
    match Model.blocks m view with
    | None -> `No_such
    | Some b when block + nblocks > b -> `Out_of_range
    | Some _ -> `Data
  in
  match Suite.await ctx.clock (Fa.read ctx.arr ~volume:view ~block ~nblocks) with
  | None -> ()  (* interrupted by a crash; nothing was promised *)
  | Some (Ok data) -> (
    ctx.digest <- Suite.mix ctx.digest data;
    if expect <> `Data then
      raise
        (Violation
           (Printf.sprintf "read %s[%d..%d] succeeded but the model forbids it" view block
              (block + nblocks - 1)));
    match Model.check_read m ~view ~block ~nblocks data with
    | Ok () -> ()
    | Error msg -> raise (Violation msg))
  | Some (Error `No_such_volume) ->
    if expect <> `No_such then raise (Violation ("spurious No_such_volume reading " ^ view))
  | Some (Error `Out_of_range) ->
    if expect <> `Out_of_range then raise (Violation ("spurious Out_of_range reading " ^ view))
  | Some (Error `Offline) -> ()  (* crash landed mid-read *)
  | Some (Error `Fenced) ->
    (* single-array plans never fence: only the ActiveCluster layer does *)
    raise (Violation ("spurious Fenced reading " ^ view))
  | Some (Error `Media_failure) ->
    raise
      (Violation
         (Printf.sprintf "read %s[%d..%d]: Media_failure inside the fault budget" view block
            (block + nblocks - 1)))

let exec_op ctx (op : Plan.op) =
  let m = ctx.model in
  match op with
  | Plan.Create_volume { name; blocks } ->
    ns_op ~what:("create " ^ name)
      ~expect_ok:(not (Model.exists m name))
      (Fa.create_volume ctx.arr name ~blocks)
      ~on_ok:(fun () -> Model.create_volume m name ~blocks)
  | Plan.Delete_volume name ->
    ns_op ~what:("delete " ^ name)
      ~expect_ok:(Model.kind m name = Some `Volume)
      (Fa.delete_volume ctx.arr name)
      ~on_ok:(fun () -> Model.delete m name)
  | Plan.Resize_volume { name; blocks } ->
    let expect_ok =
      match Model.blocks m name with
      | Some b when Model.kind m name = Some `Volume -> blocks >= b
      | _ -> false
    in
    ns_op ~what:("resize " ^ name) ~expect_ok
      (Fa.resize_volume ctx.arr name ~blocks)
      ~on_ok:(fun () -> Model.resize_volume m name ~blocks)
  | Plan.Snapshot { volume; snap } ->
    ns_op
      ~what:(Printf.sprintf "snapshot %s of %s" snap volume)
      ~expect_ok:(Model.kind m volume = Some `Volume && not (Model.exists m snap))
      (Fa.snapshot ctx.arr ~volume ~snap)
      ~on_ok:(fun () -> Model.snapshot m ~volume ~snap)
  | Plan.Clone { snapshot; volume } ->
    ns_op
      ~what:(Printf.sprintf "clone %s from %s" volume snapshot)
      ~expect_ok:(Model.kind m snapshot = Some `Snapshot && not (Model.exists m volume))
      (Fa.clone ctx.arr ~snapshot ~volume)
      ~on_ok:(fun () -> Model.clone m ~snapshot ~volume)
  | Plan.Delete_snapshot name ->
    ns_op ~what:("delete snapshot " ^ name)
      ~expect_ok:(Model.kind m name = Some `Snapshot)
      (Fa.delete_snapshot ctx.arr name)
      ~on_ok:(fun () -> Model.delete m name)
  | Plan.Write { view; block; nblocks; wid } -> (
    let expect =
      match Model.kind m view with
      | None -> `No_such
      | Some `Snapshot -> `Read_only
      | Some `Volume ->
        if block + nblocks > Option.get (Model.blocks m view) then `Out_of_range else `Ok
    in
    let data = Payload.of_write ctx.payloads ~wid ~nblocks in
    match Suite.await ctx.clock (Fa.write ctx.arr ~volume:view ~block data) with
    | None ->
      (* controller died mid-write: not acked, outcome ambiguous *)
      if expect = `Ok then Model.write m ~view ~block ~wid ~nblocks ~acked:false
    | Some (Ok ()) ->
      if expect <> `Ok then
        raise (Violation (Printf.sprintf "write#%d to %s succeeded but the model forbids it" wid view));
      Model.write m ~view ~block ~wid ~nblocks ~acked:true
    | Some (Error `Backpressure) -> ()  (* not acked, no state change promised *)
    | Some (Error `Offline) ->
      if expect = `Ok then Model.write m ~view ~block ~wid ~nblocks ~acked:false
    | Some (Error `No_space) ->
      (* allocation failed partway: blocks may be torn between old and new *)
      if expect = `Ok then Model.write m ~view ~block ~wid ~nblocks ~acked:false
    | Some (Error `No_such_volume) ->
      if expect <> `No_such then raise (Violation ("spurious No_such_volume writing " ^ view))
    | Some (Error `Read_only) ->
      if expect <> `Read_only then raise (Violation ("spurious Read_only writing " ^ view))
    | Some (Error `Out_of_range) ->
      if expect <> `Out_of_range then raise (Violation ("spurious Out_of_range writing " ^ view))
    | Some (Error `Unaligned) -> raise (Violation "spurious Unaligned write")
    | Some (Error `Fenced) -> raise (Violation ("spurious Fenced writing " ^ view)))
  | Plan.Read { view; block; nblocks } -> do_read ctx ~view ~block ~nblocks
  | Plan.Flush -> (
    match Suite.await ctx.clock (fun k -> Fa.flush ctx.arr (fun () -> k ())) with
    | Some () when Fa.is_online ctx.arr -> Model.stabilized ctx.model
    | _ -> ())
  | Plan.Checkpoint -> (
    match Suite.await ctx.clock (fun k -> Fa.checkpoint ctx.arr k) with
    | Some _ when Fa.is_online ctx.arr -> Model.stabilized ctx.model
    | _ -> ())
  | Plan.Gc ->
    ignore
      (Suite.await ctx.clock (fun k -> Fa.gc ~min_dead_ratio:0.2 ~max_victims:8 ctx.arr k))
  | Plan.Scrub -> (
    match Suite.await ctx.clock (fun k -> Fa.scrub ctx.arr k) with
    | Some _ when Fa.is_online ctx.arr ->
      (* scrub relocated what it found; re-derive the live corruption
         budget from the marks actually left on the drives *)
      ctx.corrupt_units <- residual_corrupt_units ctx
    | _ -> ())
  | Plan.Rebuild d -> (
    match Suite.await ctx.clock (fun k -> Fa.rebuild_drive ctx.arr d k) with
    | Some (_ : int) when Fa.is_online ctx.arr ->
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

(* The mapping cache and batched range resolution are pure performance
   artifacts: for every block of every view they must agree exactly with
   a from-scratch chain walk, no matter what faults (crashes, GC,
   elides, medium retirement) the scenario threw at the cache's
   invalidation hooks. *)
let audit_mapping_cache ctx =
  let st = Fa.state ctx.arr in
  State.Stbl.iter
    (fun name (v : State.volume) ->
      let medium = v.State.medium and blocks = v.State.blocks in
      if blocks > 0 then begin
        let refs = State.resolve_range st ~medium ~block:0 ~nblocks:blocks in
        for b = 0 to blocks - 1 do
          let cached = State.resolve_block st ~medium ~block:b in
          let uncached = State.resolve_block_uncached st ~medium ~block:b in
          if cached <> uncached then
            raise
              (Violation
                 (Printf.sprintf
                    "mapping-cache drift: %s block %d cached and uncached resolution disagree"
                    name b));
          if refs.(b) <> uncached then
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
    let d = List.hd ctx.unrebuilt in
    (match Suite.await ctx.clock (fun k -> Fa.rebuild_drive ctx.arr d k) with
    | Some (_ : int) when Fa.is_online ctx.arr ->
      ctx.unrebuilt <- List.filter (( <> ) d) ctx.unrebuilt
    | _ -> ());
    settle ctx
  done;
  audit_namespace ctx;
  audit_data ctx;
  audit_mapping_cache ctx;
  (* and once more through a clean failover: recovery must reproduce the
     same state from the shelf alone *)
  Fa.crash ctx.arr;
  settle ctx;
  audit_namespace ctx;
  audit_data ctx;
  audit_mapping_cache ctx;
  audit_counters ctx;
  let s = Fa.stats ctx.arr in
  Suite.mix
    (Suite.mix ctx.digest
       Fa.(s.app_writes, s.app_reads, s.stored_bytes_written, s.physical_bytes_used,
           s.dedup_blocks, s.gc_dedup_blocks, s.segments_live, s.cache_hits, s.cache_misses))
    (int_of_float (Clock.now ctx.clock))

(* ---------- plan execution ---------- *)

let start clock (plan : Plan.t) =
  let payloads = Payload.create ~seed:plan.Plan.seed ~block_size:Fa.block_size in
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
  let seed p = p.seed
  let events p = p.events
  let with_events p events = { p with events }
  let start = start
  let exec_op = exec_op
  let apply_fault = apply_fault
  let after_event ctx = if not (Fa.is_online ctx.arr) then settle ctx
  let finalize = finalize
end)
