module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module State = Purity_core.State
module Block_index = Purity_core.Block_index
module Medium = Purity_medium.Medium
module Registry = Purity_telemetry.Registry
module Span = Purity_telemetry.Span

type link = { mb_s : float; rtt_us : float }

let default_link = { mb_s = 100.0; rtt_us = 20_000.0 }

type protected_vol = {
  mutable cycle : int;
  mutable last_snap : string option; (* fully applied on the target *)
  mutable in_flight : bool;
}

type t = {
  link : link;
  source : Fa.t;
  target : Fa.t;
  clock : Clock.t;
  volumes : (string, protected_vol) Hashtbl.t;
  mutable link_free_at : float;
  cycles : Registry.counter;
  shipped_bytes : Registry.counter;
  changed_blocks : Registry.counter;
}

(* Expose the replicator's counters in the source array's registry. The
   replicator owns the cells: a failover hands the source a fresh
   registry, and re-attaching — idempotent, cheap — re-joins it. *)
let register_telemetry t =
  let reg = Fa.telemetry t.source in
  Registry.attach_counter reg "replication/cycles" t.cycles;
  Registry.attach_counter reg "replication/shipped_bytes" t.shipped_bytes;
  Registry.attach_counter reg "replication/changed_blocks" t.changed_blocks;
  Registry.derive_int reg "replication/protected_volumes" (fun () ->
      Hashtbl.length t.volumes)

let create ?(link = default_link) ~source ~target () =
  if Fa.clock source != Fa.clock target then
    invalid_arg "Replication.create: arrays must share one clock";
  let t =
    {
      link;
      source;
      target;
      clock = Fa.clock source;
      volumes = Hashtbl.create 8;
      link_free_at = 0.0;
      cycles = Registry.cell ();
      shipped_bytes = Registry.cell ();
      changed_blocks = Registry.cell ();
    }
  in
  register_telemetry t;
  t

let protect t name =
  if Hashtbl.mem t.volumes name then Error `Already
  else if not (Fa.volume_exists t.source name) then Error `No_such_volume
  else begin
    Hashtbl.replace t.volumes name { cycle = 0; last_snap = None; in_flight = false };
    Ok ()
  end

(* Delta machinery shared with the synchronous ActiveCluster layer
   (lib/activecluster): both replication flavours reduce "what must cross
   the wire" to sorted block lists and consecutive runs. *)
module Delta = struct
  (* The frozen medium a snapshot handle references. *)
  let snap_medium st snap_name =
    match State.Stbl.find_opt st.State.volumes snap_name with
    | Some v -> (
      match Medium.extents st.State.medium_table v.State.medium with
      | [ { Medium.target = Medium.Underlying { medium; _ }; _ } ] -> Some medium
      | _ -> Some v.State.medium)
    | None -> None

  (* Mediums that accumulated writes between two replication snapshots:
     walk the successor chain [from_medium] downwards until [until]
     (exclusive). Replication successors reference whole mediums at offset
     0, so the walk is a straight line. *)
  let mediums_between st ~from_medium ~until =
    let rec go m acc =
      if Some m = until then acc
      else begin
        let acc = m :: acc in
        match Medium.extents st.State.medium_table m with
        | [ { Medium.target = Medium.Underlying { medium; offset = 0 }; start_block = 0; _ } ]
          ->
          go medium acc
        | _ -> acc
      end
    in
    go from_medium []

  (* Blocks with live facts in the given mediums, from the block index. *)
  let changed_blocks st mediums =
    let module IS = Set.Make (Int) in
    let set = ref IS.empty in
    List.iter
      (fun medium ->
        List.iter
          (fun ((_, block), _) -> set := IS.add block !set)
          (Block_index.range st.State.blocks ~lo:(medium, 0) ~hi:(medium, max_int)))
      mediums;
    IS.elements !set

  (* Every block the medium resolves somewhere in its chain — the initial
     full-sync block list, from one batched range resolution. *)
  let live_blocks st ~medium ~blocks =
    if blocks <= 0 then []
    else begin
      let refs = State.resolve_range st ~medium ~block:0 ~nblocks:blocks in
      let acc = ref [] in
      for b = blocks - 1 downto 0 do
        match refs.(b) with Some _ -> acc := b :: !acc | None -> ()
      done;
      !acc
    end

  (* Group sorted blocks into runs of consecutive addresses, capped so one
     run is one source read / wire transfer / target write. *)
  let runs_of blocks ~max_run =
    let rec go acc current = function
      | [] -> List.rev (match current with None -> acc | Some r -> r :: acc)
      | b :: rest -> (
        match current with
        | Some (start, len) when b = start + len && len < max_run ->
          go acc (Some (start, len + 1)) rest
        | Some r -> go (r :: acc) (Some (b, 1)) rest
        | None -> go acc (Some (b, 1)) rest)
    in
    go [] None blocks
end

open Delta

let ship t bytes k =
  (* serialize transfers on the WAN; per-run RTT overhead *)
  let start = Float.max (Clock.now t.clock) t.link_free_at in
  let finish = start +. t.link.rtt_us +. (float_of_int bytes /. (t.link.mb_s *. 1.048576)) in
  t.link_free_at <- finish;
  Clock.schedule_at t.clock ~at:finish k

type cycle_report = {
  volume : string;
  cycle : int;
  changed_blocks : int;
  shipped_bytes : int;
  duration_us : float;
  rpo_snapshot : string;
}

let ensure_target_volume t name blocks =
  if Fa.volume_exists t.target name then begin
    match
      List.find_opt (fun (n, _, _) -> String.equal n name) (Fa.list_volumes t.target)
    with
    | Some (_, _, current) when blocks > current ->
      ignore (Fa.resize_volume t.target name ~blocks)
    | Some _ | None -> ()
  end
  else ignore (Fa.create_volume t.target name ~blocks)

let replicate_once t volume k =
  let p =
    match Hashtbl.find_opt t.volumes volume with
    | Some p -> p
    | None -> invalid_arg "Replication.replicate_once: volume not protected"
  in
  if p.in_flight then invalid_arg "Replication.replicate_once: cycle already in flight";
  p.in_flight <- true;
  (* the source may have failed over since the last cycle *)
  register_telemetry t;
  let started = Clock.now t.clock in
  let cycle = p.cycle + 1 in
  let cycle_span =
    Span.start (Fa.tracer t.source)
      ~tags:[ ("volume", volume); ("cycle", string_of_int (p.cycle + 1)) ]
      "replication_cycle"
  in
  let snap_name = Printf.sprintf "%s@repl-%d" volume cycle in
  (match Fa.snapshot t.source ~volume ~snap:snap_name with
  | Ok () -> ()
  | Error _ -> invalid_arg "Replication: source snapshot failed");
  let st = Fa.state t.source in
  let size =
    match State.Stbl.find_opt st.State.volumes volume with
    | Some v -> v.State.blocks
    | None -> 0
  in
  ensure_target_volume t volume size;
  let new_medium =
    match snap_medium st snap_name with
    | Some m -> m
    | None -> invalid_arg "Replication: snapshot medium missing after snapshot"
  in
  let prev_medium =
    match p.last_snap with Some s -> snap_medium st s | None -> None
  in
  let blocks =
    match p.last_snap with
    | Some _ ->
      changed_blocks st (mediums_between st ~from_medium:new_medium ~until:prev_medium)
    | None ->
      (* initial sync: every block the volume actually holds, scanned as
         one batched range resolution instead of per-block chain walks *)
      live_blocks st ~medium:new_medium ~blocks:size
  in
  let runs = runs_of blocks ~max_run:256 in
  let shipped = ref 0 in
  let finish () =
    (* target now holds the full image: cut its consistent snapshot *)
    (match Fa.snapshot t.target ~volume ~snap:snap_name with
    | Ok () -> ()
    | Error _ -> ());
    (* retire the previous replication snapshots on both sides *)
    (match p.last_snap with
    | Some old ->
      ignore (Fa.delete_snapshot t.source old);
      ignore (Fa.delete_snapshot t.target old)
    | None -> ());
    p.cycle <- cycle;
    p.last_snap <- Some snap_name;
    p.in_flight <- false;
    Registry.incr t.cycles;
    Registry.add t.shipped_bytes !shipped;
    Registry.add t.changed_blocks (List.length blocks);
    Span.finish
      ~tags:
        [
          ("changed_blocks", string_of_int (List.length blocks));
          ("shipped_bytes", string_of_int !shipped);
        ]
      cycle_span;
    k
      {
        volume;
        cycle;
        changed_blocks = List.length blocks;
        shipped_bytes = !shipped;
        duration_us = Clock.now t.clock -. started;
        rpo_snapshot = snap_name;
      }
  in
  let rec pump = function
    | [] -> finish ()
    | (start, len) :: rest ->
      (* read from the frozen snapshot, ship, apply on the target *)
      Fa.read t.source ~volume:snap_name ~block:start ~nblocks:len (function
        | Error _ -> pump rest (* unreadable: skip; next cycle retries *)
        | Ok data ->
          shipped := !shipped + String.length data;
          ship t (String.length data) (fun () ->
              Fa.write t.target ~volume ~block:start data (fun _ -> pump rest)))
  in
  pump runs

let replicate_all t k =
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) t.volumes [] in
  let names = List.sort compare names in
  let reports = ref [] in
  let rec go = function
    | [] -> k (List.rev !reports)
    | name :: rest ->
      replicate_once t name (fun r ->
          reports := r :: !reports;
          go rest)
  in
  go names
