module Shelf = Purity_ssd.Shelf
module Drive = Purity_ssd.Drive

let scan_slots ~layout ~shelf ?claims slots k =
  let found : (int, Segment.t) Hashtbl.t = Hashtbl.create 64 in
  let pending = ref 0 in
  let finish () =
    let segs = Hashtbl.fold (fun _ s acc -> s :: acc) found [] in
    k (List.length slots) (List.sort (fun a b -> Int.compare a.Segment.id b.Segment.id) segs)
  in
  let header_len = layout.Layout.header_size in
  let launch { Segment.drive; au } =
    if Drive.is_online (Shelf.drive shelf drive) then begin
      incr pending;
      Shelf.read_chunk shelf ~drive ~au ~off:0 ~len:header_len (fun result ->
          (match result with
          | Ok page -> (
            match Segment.decode_header page with
            | Some seg ->
              (* record which physical AU presented this header: an AU can
                 be reused by a newer segment while stale siblings keep the
                 old id, so a member list alone does not prove ownership *)
              (match claims with
              | Some c -> Purity_util.Keytbl.Ipair.replace c (drive, au) seg.Segment.id
              | None -> ());
              if not (Hashtbl.mem found seg.Segment.id) then Hashtbl.replace found seg.Segment.id seg
            | None -> ())
          | Error _ -> ());
          decr pending;
          if !pending = 0 then finish ())
    end
  in
  List.iter launch slots;
  if !pending = 0 then finish ()

let scan_all ~layout ~shelf ?claims k =
  let slots = ref [] in
  Array.iter
    (fun d ->
      if Drive.is_online d then begin
        let cfg = Drive.config d in
        for au = 0 to cfg.Drive.num_aus - 1 do
          slots := { Segment.drive = Drive.id d; au } :: !slots
        done
      end)
    (Shelf.drives shelf);
  scan_slots ~layout ~shelf ?claims !slots k

let scan_members ~layout ~shelf ?claims members k =
  scan_slots ~layout ~shelf ?claims (Segment.distinct_members members) k
