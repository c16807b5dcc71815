open State

type config = State.config = {
  drives : int;
  drive_config : Purity_ssd.Drive.config;
  k : int;
  m : int;
  write_unit : int;
  nvram_capacity : int;
  memtable_flush : int;
  read_around_write : bool;
  p95_backup : bool;
  read_cache_entries : int;
  secondary_warming : bool;
  seed : int64;
}

let default_config = State.default_config
let block_size = State.block_size

type t = {
  config : config;
  clk : Clock.t;
  mutable st : State.t;
  app_reads : Registry.counter; (* array-lifetime: adopted by every controller's registry *)
  mutable crash_time : float option;
  mutable total_downtime : float;
  mutable fenced : bool;
  created_at : float;
}

(* Array-level figures, each defined once: the registry derives them and
   [stats] reads them through the same definitions. *)
let physical_bytes_used st =
  Allocator.used_au_count st.alloc * st.cfg.drive_config.Drive.au_size

let live_logical_bytes st = Block_index.live_key_count st.blocks * block_size

let provisioned_bytes st =
  State.Stbl.fold (fun _ (v : State.volume) acc -> acc + (v.State.blocks * block_size)) st.volumes 0

let data_reduction st =
  let used = physical_bytes_used st in
  if used = 0 then 1.0 else float_of_int (live_logical_bytes st) /. float_of_int used

let availability t =
  let elapsed = Clock.now t.clk -. t.created_at in
  let down =
    t.total_downtime +. (match t.crash_time with Some at -> Clock.now t.clk -. at | None -> 0.0)
  in
  if elapsed <= 0.0 then 1.0 else (elapsed -. down) /. elapsed

(* Registered against the *current* controller's registry — re-run after
   every failover, since the spare boots with a fresh namespace (path
   counters reset, exactly as before telemetry existed) while these
   array-lifetime figures persist: the array owns the [app_reads] cell
   and each registry adopts it. *)
let register_array_telemetry t =
  let reg = t.st.tel in
  Registry.attach_counter reg "array/app_reads" t.app_reads;
  Registry.attach_counter reg "array/boot_region_writes" (Boot_region.writes t.st.boot);
  Registry.derive_int reg "array/physical_bytes_used" (fun () -> physical_bytes_used t.st);
  Registry.derive_int reg "array/physical_capacity" (fun () ->
      Shelf.physical_bytes t.st.shelf);
  Registry.derive_int reg "array/live_logical_bytes" (fun () -> live_logical_bytes t.st);
  Registry.derive_int reg "array/provisioned_bytes" (fun () -> provisioned_bytes t.st);
  Registry.derive_float reg "array/data_reduction" (fun () -> data_reduction t.st);
  Registry.derive_float reg "array/availability" (fun () -> availability t)

let create ?(config = default_config) ~clock () =
  let t =
    { config; clk = clock; st = State.create ~config ~clock (); app_reads = Registry.cell ();
      crash_time = None; total_downtime = 0.0; fenced = false;
      created_at = Clock.now clock }
  in
  register_array_telemetry t;
  t

let clock t = t.clk
let shelf t = t.st.shelf
let state t = t.st
let is_online t = t.st.online
let telemetry t = t.st.tel
let tracer t = t.st.tracer

type vol_error = [ `Exists | `No_such_volume | `Busy | `Is_snapshot | `Is_volume ]
type write_error = [ Write_path.error | `Fenced ]
type read_error = [ Read_path.error | `Fenced ]

(* Cluster-level fencing (ActiveCluster split-brain resolution): a fenced
   array refuses host I/O at the front door until the cluster layer
   unfences it. The flag lives outside [st] on purpose — it is imposed on
   the appliance, not on a controller, so a failover boots the spare
   still fenced. Maintenance (GC, scrub, rebuild, checkpoint) keeps
   running: fencing stops the host, not the array. *)
let fence t = t.fenced <- true
let unfence t = t.fenced <- false
let is_fenced t = t.fenced

(* ---------- volumes ---------- *)

(* A namespace op's metadata writes, in the order it makes them. *)
type ns_write =
  | Persist_medium of int  (* the medium's current extent rows *)
  | Bind of string * volume  (* a name now denotes this volume or snapshot *)
  | Unbind of string
  | Drop_medium of int  (* elide a dropped medium's rows and blocks *)

(* The NVRAM stash a write makes, priced before its sequence number is
   drawn: at the widest one, so pricing can only err towards [`Busy].
   Every namespace table is NVRAM-backed; the blocks elide of a dropped
   medium is not stashed. *)
let ns_stash st w =
  let seq = Int64.max_int in
  Meta_log.encode_nvram
    (Stash
       (match w with
       | Persist_medium m ->
         Fact (Mediums, Fact.make ~key:(Keys.medium_key m) ~value:(medium_value st m) ~seq)
       | Bind (name, v) -> Fact (Volumes, Fact.make ~key:name ~value:(encode_volume_value v) ~seq)
       | Unbind name -> Fact (Volumes, Fact.tombstone ~key:name ~seq)
       | Drop_medium m -> Elide (Mediums, { seq; lo = m; hi = m })))

let ns_apply st = function
  | Persist_medium m -> persist_medium st m
  | Bind (name, v) ->
    State.Stbl.replace st.volumes name v;
    persist_volume st name v
  | Unbind name ->
    State.Stbl.remove st.volumes name;
    put_delete st Volumes ~key:name
  | Drop_medium m ->
    put_elide st Mediums ~lo:m ~hi:m;
    put_elide st Blocks ~lo:m ~hi:m

(* Namespace ops are acknowledged when they return, and until their segio
   log records reach the drives, their NVRAM stashes are what makes them
   durable. So an op NVRAM cannot take in full is [`Busy] and changes
   nothing. [plan] may mutate only the medium table (restored on
   [`Busy]) and returns the op's writes. *)
let ns_op st plan =
  let saved = Medium.copy st.medium_table in
  let writes = plan () in
  if Nvram.admits (nvram st) (List.map (fun w -> String.length (ns_stash st w)) writes) then begin
    st.medium_next_id <- max st.medium_next_id (Medium.peek_next_id st.medium_table);
    List.iter (ns_apply st) writes;
    Ok ()
  end
  else begin
    st.medium_table <- saved;
    Error `Busy
  end

let create_volume t name ~blocks =
  let st = t.st in
  if State.Stbl.mem st.volumes name then Error `Exists
  else if blocks <= 0 then Error `Out_of_range
  else begin
    let r =
      ns_op st (fun () ->
          let medium = Medium.create_base st.medium_table ~blocks in
          let v = { medium; blocks; kind = Volume; observer = fresh_observer () } in
          [ Persist_medium medium; Bind (name, v) ])
    in
    if Result.is_ok r then maybe_persist_boot st;
    r
  end

(* Is a medium the current medium of any volume or snapshot but [except]? *)
let medium_in_use st ~except medium =
  State.Stbl.fold
    (fun name v acc -> acc || (v.medium = medium && not (String.equal name except)))
    st.volumes false

(* Drop a medium and cascade into ancestors that become unreferenced,
   returning the dropped ids in drop order. Each drop is one elide insert
   per table — the paper's point. *)
let rec drop_medium_cascade st ~except medium =
  if
    Medium.exists st.medium_table medium
    && (not (medium_in_use st ~except medium))
    && (match Medium.referenced_by st.medium_table medium with [] -> true | _ :: _ -> false)
  then begin
    let targets =
      Medium.extents st.medium_table medium
      |> List.filter_map (fun (e : Medium.extent) ->
             match e.Medium.target with
             | Medium.Underlying { medium = m; _ } -> Some m
             | Medium.Base -> None)
      |> List.sort_uniq Int.compare
    in
    Medium.drop st.medium_table medium;
    medium :: List.concat_map (drop_medium_cascade st ~except) targets
  end
  else []

(* Retract a name and drop the mediums only it kept alive. *)
let unbind st name (v : volume) =
  ns_op st (fun () ->
      Unbind name
      :: List.map (fun m -> Drop_medium m) (drop_medium_cascade st ~except:name v.medium))

let delete_volume t name =
  match State.Stbl.find_opt t.st.volumes name with
  | None -> Error `No_such_volume
  | Some { kind = Snapshot; _ } -> Error `Is_snapshot
  | Some v -> unbind t.st name v

let resize_volume t name ~blocks =
  let st = t.st in
  match State.Stbl.find_opt st.volumes name with
  | None -> Error `No_such_volume
  | Some { kind = Snapshot; _ } -> Error `Is_snapshot
  | Some v ->
    if blocks < v.blocks then Error `Shrink
    else if blocks = v.blocks then Ok ()
    else
      ns_op st (fun () ->
          Medium.extend st.medium_table v.medium ~blocks:(blocks - v.blocks);
          [ Persist_medium v.medium; Bind (name, { v with blocks }) ])

let snapshot t ~volume ~snap =
  let st = t.st in
  match State.Stbl.find_opt st.volumes volume with
  | None -> Error `No_such_volume
  | Some { kind = Snapshot; _ } -> Error `Is_snapshot
  | Some v ->
    if State.Stbl.mem st.volumes snap then Error `Exists
    else
      ns_op st (fun () ->
          let frozen = v.medium in
          let snap_medium, successor = Medium.take_snapshot st.medium_table frozen in
          let s =
            { medium = snap_medium; blocks = v.blocks; kind = Snapshot; observer = fresh_observer () }
          in
          [
            Persist_medium frozen;
            Persist_medium snap_medium;
            Persist_medium successor;
            Bind (volume, { v with medium = successor });
            Bind (snap, s);
          ])

let clone t ~snapshot:snap_name ~volume =
  let st = t.st in
  match State.Stbl.find_opt st.volumes snap_name with
  | None -> Error `No_such_volume
  | Some { kind = Volume; _ } -> Error `Is_volume
  | Some s ->
    if State.Stbl.mem st.volumes volume then Error `Exists
    else
      ns_op st (fun () ->
          (* clone the medium the snapshot references (its frozen parent):
             the snapshot handle itself is an empty pass-through layer *)
          let parent =
            match Medium.extents st.medium_table s.medium with
            | [ { Medium.target = Medium.Underlying { medium; _ }; _ } ] -> medium
            | _ -> s.medium
          in
          let medium = Medium.clone st.medium_table parent () in
          let v = { medium; blocks = s.blocks; kind = Volume; observer = fresh_observer () } in
          [ Persist_medium medium; Bind (volume, v) ])

let delete_snapshot t name =
  match State.Stbl.find_opt t.st.volumes name with
  | None -> Error `No_such_volume
  | Some { kind = Volume; _ } -> Error `Is_volume
  | Some v -> unbind t.st name v

let list_volumes t =
  State.Stbl.fold
    (fun name v acc ->
      (name, (match v.kind with Volume -> `Volume | Snapshot -> `Snapshot), v.blocks) :: acc)
    t.st.volumes []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let volume_exists t name = State.Stbl.mem t.st.volumes name

(* ---------- data path ---------- *)

let write t ~volume ~block data k =
  if t.fenced then Clock.schedule t.clk ~delay:0.0 (fun () -> k (Error `Fenced))
  else
    Write_path.write t.st ~volume ~block data (fun r ->
        maybe_persist_boot t.st;
        k (r :> (unit, write_error) result))

let read t ~volume ~block ~nblocks k =
  if t.fenced then Clock.schedule t.clk ~delay:0.0 (fun () -> k (Error `Fenced))
  else begin
    Registry.incr t.app_reads;
    Read_path.read t.st ~volume ~block ~nblocks (fun r ->
        k (r :> (string, read_error) result))
  end

let flush t k = seal_and_flush t.st k

(* ---------- maintenance ---------- *)

let checkpoint t k = Checkpoint.run t.st k
let gc ?min_dead_ratio ?max_victims t k = Gc.run ?min_dead_ratio ?max_victims t.st k
let scrub t k = Scrub.run t.st k

(* ---------- faults ---------- *)

let pull_drive t i = Shelf.pull_drive t.st.shelf i
let reinsert_drive t i = Shelf.reinsert_drive t.st.shelf i
let replace_drive t i = Shelf.replace_drive t.st.shelf i

let rebuild_drive t drive k =
  let st = t.st in
  (* every segment written before the call is then a flushed victim *)
  seal_and_flush st (fun () ->
      let victims =
        Hashtbl.fold
          (fun id (meta : Segment.t) acc ->
            let touches =
              Array.exists
                (fun (m : Segment.member) -> m.Segment.drive = drive)
                meta.Segment.members
            in
            if touches then id :: acc else acc)
          st.segment_metas []
      in
      match victims with
      | [] -> k 0
      | _ :: _ ->
        Gc.evacuate st ~live:(Gc.liveness st) ~before_checkpoint:ignore victims (fun r ->
            k (List.length r.Gc.victims)))

let crash t =
  t.st.online <- false;
  State.halt_device_activity t.st;
  t.crash_time <- Some (Clock.now t.clk)

let failover ?mode t k =
  if t.st.online then crash t;
  let st' =
    State.create_over ~config:t.config ~clock:t.clk ~shelf:t.st.shelf ~boot:t.st.boot ()
  in
  let old_st = t.st in
  Recovery.recover ?mode st' (fun report ->
      State.warm_cache ~from:old_st ~into:st';
      t.st <- st';
      (* the spare controller's registry is fresh: re-derive the
         array-lifetime metrics over the new state *)
      register_array_telemetry t;
      (match t.crash_time with
      | Some at ->
        t.total_downtime <- t.total_downtime +. (Clock.now t.clk -. at);
        t.crash_time <- None
      | None -> ());
      k report)

(* ---------- statistics ---------- *)

type stats = {
  app_writes : int;
  app_reads : int;
  logical_bytes_written : int;
  stored_bytes_written : int;
  live_logical_bytes : int;
  physical_bytes_used : int;
  physical_capacity : int;
  data_reduction : float;
  provisioned_virtual_bytes : int;
  dedup_blocks : int;
  gc_dedup_blocks : int;
  write_latency : Purity_util.Histogram.t;
  read_latency : Purity_util.Histogram.t;
  boot_region_writes : int;
  segments_live : int;
  availability : float;
  cache_hits : int;
  cache_misses : int;
}

let stats t =
  let st = t.st in
  (* the path counters live in the telemetry registry; [stats] reads
     them back through their handles, so both views always agree *)
  {
    app_writes = Registry.value st.ws.app_writes;
    app_reads = Registry.value t.app_reads;
    logical_bytes_written = Registry.value st.ws.logical_bytes;
    stored_bytes_written = Registry.value st.ws.stored_bytes;
    live_logical_bytes = live_logical_bytes st;
    physical_bytes_used = physical_bytes_used st;
    physical_capacity = Shelf.physical_bytes st.shelf;
    data_reduction = data_reduction st;
    provisioned_virtual_bytes = provisioned_bytes st;
    dedup_blocks = Registry.value st.ws.dedup_blocks;
    gc_dedup_blocks = Registry.value st.ws.gc_dedup_blocks;
    write_latency = st.write_lat;
    read_latency = st.read_lat;
    boot_region_writes = Registry.value (Boot_region.writes st.boot);
    segments_live = Hashtbl.length st.segment_metas;
    availability = availability t;
    cache_hits = Registry.value st.ws.cache_hits;
    cache_misses = Registry.value st.ws.cache_misses;
  }
