module Layout = Purity_segment.Layout
module Segment = Purity_segment.Segment
module Shelf = Purity_ssd.Shelf
module Drive = Purity_ssd.Drive
module Rs = Purity_erasure.Reed_solomon
module Clock = Purity_sim.Clock
module Histogram = Purity_util.Histogram
module Registry = Purity_telemetry.Registry

type t = {
  layout : Layout.t;
  shelf : Shelf.t;
  rs : Rs.t;
  read_around_write : bool;
  p95_backup : bool;
  chunk_reads : Registry.counter;
  direct_reads : Registry.counter;
  reconstruct_reads : Registry.counter;
  backup_reads : Registry.counter;
  peer_reads : Registry.counter;
  failures : Registry.counter;
  latencies : Histogram.t;
  direct_latencies : Histogram.t; (* feeds the p95 hedge threshold *)
}

let create ~telemetry:reg ~layout ~shelf ~rs ?(read_around_write = true) ?(p95_backup = false)
    () =
  let counter name = Registry.counter reg ("sched/" ^ name) in
  let t =
    {
      layout;
      shelf;
      rs;
      read_around_write;
      p95_backup;
      chunk_reads = counter "chunk_reads";
      direct_reads = counter "direct_reads";
      reconstruct_reads = counter "reconstruct_reads";
      backup_reads = counter "backup_reads";
      peer_reads = counter "peer_reads";
      failures = counter "failures";
      latencies = Registry.histogram reg "sched/segment_read_us";
      direct_latencies = Registry.histogram reg "sched/direct_read_us";
    }
  in
  Registry.derive_float reg "sched/read_amplification" (fun () ->
      let chunks = Registry.value t.chunk_reads in
      if chunks = 0 then 1.0
      else
        float_of_int (Registry.value t.direct_reads + Registry.value t.peer_reads)
        /. float_of_int chunks);
  t

let member seg column = (seg.Segment.members).(column)
let drive t (m : Segment.member) = Shelf.drive t.shelf m.Segment.drive

(* A shard read is only meaningful if the member AU actually holds the
   range: a freshly replaced drive (or an AU torn by a crashed flush)
   reads as zeros, which must count as a missing shard — serving it
   directly, or feeding it to Reed-Solomon as a peer, would fabricate
   wrong bytes instead of degrading to reconstruction. *)
let shard_holds t seg column ~au_offset ~len =
  let m = member seg column in
  Drive.au_fill (drive t m) ~au:m.Segment.au >= au_offset + len

(* Rebuild the chunk at (row, within, len) for data column [target] from
   sibling shards. Reed-Solomon is elementwise over byte positions, so the
   sub-range of each write unit decodes independently. *)
let reconstruct_chunk t seg ~row ~within ~len ~target k =
  let nm = Layout.members t.layout in
  let needed = t.layout.Layout.k in
  (* Candidate peers: online siblings, idle drives first. *)
  let peers =
    let all = List.filter (fun c -> c <> target) (List.init nm Fun.id) in
    let usable =
      List.filter
        (fun c ->
          Drive.is_online (drive t (member seg c))
          &&
          let loc = Layout.row_chunk t.layout ~row ~within ~len ~column:c in
          shard_holds t seg c ~au_offset:loc.Layout.au_offset ~len)
        all
    in
    let idle, busy = List.partition (fun c -> not (Drive.busy_writing (drive t (member seg c)))) usable in
    idle @ busy
  in
  if List.length peers < needed then begin
    k None
  end
  else begin
    let chosen = List.filteri (fun i _ -> i < needed) peers in
    let spares = ref (List.filteri (fun i _ -> i >= needed) peers) in
    let shards = Array.make nm None in
    let pending = ref (List.length chosen) in
    let failed = ref false in
    let finish () =
      if !failed then k None
      else
        match Rs.reconstruct_shard t.rs shards target with
        | shard -> k (Some shard)
        | exception Invalid_argument _ -> k None
    in
    (* A peer read can itself fail (a latently corrupt page discovered on
       the way): fall back to an unused sibling rather than giving up —
       the row is recoverable as long as any k shards are good. *)
    let rec issue c =
      let { Segment.drive = d; au } = member seg c in
      let loc = Layout.row_chunk t.layout ~row ~within ~len ~column:c in
      Registry.incr t.peer_reads;
      Shelf.read_chunk t.shelf ~drive:d ~au ~off:loc.Layout.au_offset ~len (fun result ->
          (match result with
          | Ok data -> shards.(c) <- Some data
          | Error _ -> (
            match !spares with
            | s :: rest ->
              spares := rest;
              incr pending;
              issue s
            | [] -> failed := true));
          decr pending;
          if !pending = 0 then finish ())
    in
    List.iter issue chosen
  end

(* Serve one chunk (entirely inside one write unit). *)
let read_chunk t seg (loc : Layout.location) k =
  Registry.incr t.chunk_reads;
  let clock = Shelf.clock t.shelf in
  let column = loc.Layout.column in
  let row = (loc.Layout.au_offset - t.layout.Layout.header_size) / t.layout.Layout.write_unit in
  let within = (loc.Layout.au_offset - t.layout.Layout.header_size) mod t.layout.Layout.write_unit in
  let len = loc.Layout.length in
  let ({ Segment.drive = d; au } as m) = member seg column in
  let drive = drive t m in
  let reconstruct tag =
    (match tag with
    | `Primary -> Registry.incr t.reconstruct_reads
    | `Backup -> Registry.incr t.backup_reads);
    reconstruct_chunk t seg ~row ~within ~len ~target:column
  in
  let fail () =
    Registry.incr t.failures;
    k (Error `Unrecoverable)
  in
  let missing = not (shard_holds t seg column ~au_offset:loc.Layout.au_offset ~len) in
  let avoid_busy =
    t.read_around_write && Drive.is_online drive && Drive.busy_writing drive
  in
  if (not (Drive.is_online drive)) || missing || avoid_busy then
    (* Offline, missing shard, or writing: rebuild from siblings; if
       that is impossible and the drive is merely busy, wait it out with
       a direct read. *)
    reconstruct `Primary (function
      | Some data -> k (Ok data)
      | None ->
        if Drive.is_online drive && not missing then begin
          Registry.incr t.direct_reads;
          Shelf.read_chunk t.shelf ~drive:d ~au ~off:loc.Layout.au_offset ~len (function
            | Ok data -> k (Ok data)
            | Error _ -> fail ())
        end
        else fail ())
  else begin
    Registry.incr t.direct_reads;
    let start = Clock.now clock in
    let delivered = ref false in
    let deliver result =
      if not !delivered then begin
        delivered := true;
        (match result with
        | Ok _ -> Histogram.record t.direct_latencies (Clock.now clock -. start)
        | Error _ -> ());
        k result
      end
    in
    (* p95 hedge: if the direct read is slow, race a reconstruction. *)
    if t.p95_backup && Histogram.count t.direct_latencies >= 100 then begin
      let p95 = Histogram.percentile t.direct_latencies 95.0 in
      Clock.schedule clock ~delay:p95 (fun () ->
          if not !delivered then
            reconstruct `Backup (function
              | Some data -> deliver (Ok data)
              | None -> ()))
    end;
    Shelf.read_chunk t.shelf ~drive:d ~au ~off:loc.Layout.au_offset ~len (function
      | Ok data -> deliver (Ok data)
      | Error _ ->
        (* Corrupted or just-pulled drive: degrade to reconstruction. *)
        reconstruct `Primary (function
          | Some data -> deliver (Ok data)
          | None -> if not !delivered then fail ()))
  end

let read t seg ~off ~len k =
  let clock = Shelf.clock t.shelf in
  let start = Clock.now clock in
  if len = 0 then
    Clock.schedule clock ~delay:0.0 (fun () -> k (Ok Bytes.empty))
  else begin
    match Layout.locate t.layout ~off ~len with
    | exception Invalid_argument _ ->
      (* an out-of-range (off, len) can only come from corrupt persisted
         metadata (recovery replaying a torn record): deliver the same
         error an unrecoverable read does rather than crash failover *)
      Registry.incr t.failures;
      Clock.schedule clock ~delay:0.0 (fun () -> k (Error `Unrecoverable))
    | locs ->
    let out = Bytes.create len in
    let pending = ref (List.length locs) in
    let failed = ref false in
    let cursor = ref 0 in
    let offsets =
      List.map
        (fun (loc : Layout.location) ->
          let o = !cursor in
          cursor := o + loc.Layout.length;
          o)
        locs
    in
    let finish () =
      if !failed then k (Error `Unrecoverable)
      else begin
        Histogram.record t.latencies (Clock.now clock -. start);
        k (Ok out)
      end
    in
    List.iter2
      (fun (loc : Layout.location) out_off ->
        read_chunk t seg loc (fun result ->
            (match result with
            | Ok data -> Bytes.blit data 0 out out_off (Bytes.length data)
            | Error `Unrecoverable -> failed := true);
            decr pending;
            if !pending = 0 then finish ()))
      locs offsets
  end
