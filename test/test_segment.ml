module Clock = Purity_sim.Clock
module Drive = Purity_ssd.Drive
module Shelf = Purity_ssd.Shelf
module Rs = Purity_erasure.Reed_solomon
module Layout = Purity_segment.Layout
module Segment = Purity_segment.Segment
module Allocator = Purity_segment.Allocator
module Writer = Purity_segment.Writer
module Scan = Purity_segment.Scan
module Io = Purity_sched.Io
module Rng = Purity_util.Rng
module Registry = Purity_telemetry.Registry

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* Small geometry: 64 KiB AUs, 4 KiB header, 4 KiB write units, 3+2. *)
let au_size = 64 * 1024

let layout = Layout.make ~k:3 ~m:2 ~write_unit:4096 ~header_size:4096 ~au_size ()

let drive_config =
  { Drive.default_config with Drive.au_size; num_aus = 64; dies = 4 }

type env = {
  clock : Clock.t;
  shelf : Shelf.t;
  rs : Rs.t;
  alloc : Allocator.t;
  tel : Registry.t; (* the scheduler's counters *)
  io : Io.t;
}

let env_seed = 2024L

let make_env ?(drives = 6) ?read_around_write () =
  let clock = Clock.create () in
  let rng = Rng.create ~seed:env_seed in
  let shelf = Shelf.create ~drive_config ~clock ~rng ~drives () in
  let rs = Rs.create ~k:3 ~m:2 in
  let alloc = Allocator.create ~layout ~drives ~aus_per_drive:64 () in
  let tel = Registry.create () in
  let io = Io.create ~telemetry:tel ~layout ~shelf ~rs ?read_around_write () in
  { clock; shelf; rs; alloc; tel; io }

let await env f = Testkit.await env.clock f

let online env d = Drive.is_online (Shelf.drive env.shelf d)

let write_segment env ~id payload logs =
  let members = Option.get (Allocator.allocate env.alloc ~online:(online env)) in
  let w = Writer.create ~layout ~port:(Shelf.attach env.shelf) ~rs:env.rs ~members ~id in
  List.iter (fun s -> ignore (Writer.append_data w s)) payload;
  List.iter (fun (seq, r) -> Writer.append_log w ~seq r) logs;
  await env (Writer.finalize w)

(* ---------- Layout ---------- *)

let test_layout_geometry () =
  check int "members" 5 (Layout.members layout);
  check int "payload capacity" (3 * 15 * 4096) (Layout.payload_capacity layout)

let test_layout_locate_single () =
  match Layout.locate layout ~off:0 ~len:100 with
  | [ loc ] ->
    check int "column" 0 loc.Layout.column;
    check int "au offset" 4096 loc.Layout.au_offset;
    check int "length" 100 loc.Layout.length
  | _ -> Alcotest.fail "expected one chunk"

let test_layout_locate_striping () =
  (* Offset exactly one write unit in goes to column 1, same row. *)
  match Layout.locate layout ~off:4096 ~len:10 with
  | [ loc ] ->
    check int "column 1" 1 loc.Layout.column;
    check int "same row au offset" 4096 loc.Layout.au_offset
  | _ -> Alcotest.fail "expected one chunk"

let test_layout_locate_row_advance () =
  (* Offset k write-units in wraps to column 0, next row. *)
  match Layout.locate layout ~off:(3 * 4096) ~len:10 with
  | [ loc ] ->
    check int "column 0" 0 loc.Layout.column;
    check int "next row" (4096 + 4096) loc.Layout.au_offset
  | _ -> Alcotest.fail "expected one chunk"

let test_layout_locate_split () =
  let locs = Layout.locate layout ~off:4000 ~len:8192 in
  check int "three chunks" 3 (List.length locs);
  let total = List.fold_left (fun acc l -> acc + l.Layout.length) 0 locs in
  check int "lengths sum" 8192 total

let test_layout_bounds () =
  Alcotest.check_raises "oob" (Invalid_argument "Layout.locate: out of bounds") (fun () ->
      ignore (Layout.locate layout ~off:(Layout.payload_capacity layout) ~len:1))

let test_layout_bad_geometry () =
  match Layout.make ~k:3 ~m:2 ~write_unit:5000 ~header_size:4096 ~au_size () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "indivisible write unit accepted"

(* ---------- Segment headers ---------- *)

let sample_segment =
  {
    Segment.id = 42;
    members = [| { Segment.drive = 0; au = 3 }; { Segment.drive = 1; au = 7 } |];
    payload_len = 12345;
    log_off = 12000;
    log_len = 345;
    seq_lo = 17L;
    seq_hi = 99L;
  }

let test_header_roundtrip () =
  let page = Segment.encode_header layout sample_segment ~shard:1 in
  check int "page size" 4096 (Bytes.length page);
  match Segment.decode_header page with
  | Some seg ->
    check int "id" 42 seg.Segment.id;
    check int "members" 2 (Array.length seg.Segment.members);
    check int "payload" 12345 seg.Segment.payload_len;
    check Alcotest.int64 "seq_hi" 99L seg.Segment.seq_hi
  | None -> Alcotest.fail "decode failed"

let test_header_rejects_garbage () =
  check bool "zeros" true (Segment.decode_header (Bytes.make 4096 '\000') = None);
  check bool "short" true (Segment.decode_header (Bytes.make 4 'P') = None);
  let page = Segment.encode_header layout sample_segment ~shard:0 in
  Bytes.set_uint8 page 20 (Bytes.get_uint8 page 20 lxor 0xFF);
  check bool "corrupted" true (Segment.decode_header page = None)

(* Does the page carry the magic and a CRC that covers its meta bytes? *)
let header_crc_matches page =
  Bytes.length page >= 16
  && Bytes.sub_string page 0 4 = Bytes.sub_string (Segment.encode_header layout sample_segment ~shard:0) 0 4
  &&
  match Purity_util.Varint.read page ~pos:8 with
  | meta_len, p ->
    meta_len <= Bytes.length page - p
    && Int32.equal (Purity_util.Crc32c.digest page ~pos:p ~len:meta_len) (Bytes.get_int32_le page 4)
  | exception Invalid_argument _ -> false

(* Valid header pages of varied segments, damaged by a cut, a bit flip or
   overwritten bytes, plus arbitrary bytes behind the magic: the decoder
   never raises, decodes only a page whose CRC still matches, and a flip
   in the zero padding past the meta leaves the segment intact. *)
let prop_header_total_on_damage =
  let gen =
    let open QCheck.Gen in
    let* id = nat and* payload_len = nat and* seq = map Int64.of_int nat in
    let* shard = 0 -- 1 in
    let seg = { sample_segment with Segment.id; payload_len; seq_hi = Int64.add seq 17L } in
    let page = Segment.encode_header layout seg ~shard in
    let n = Bytes.length page in
    let* damage =
      oneof
        [
          map (fun k -> `Cut (k mod (n + 1))) nat;
          map2 (fun i b -> `Flip (i mod n, 1 lsl (b mod 8))) nat nat;
          map2 (fun i s -> `Overwrite (i mod n, s)) nat (string_size (1 -- 32));
          map (fun s -> `Garbage s) (string_size (0 -- 64));
        ]
    in
    return (seg, page, damage)
  in
  QCheck.Test.make ~name:"Segment.decode_header total on damage" ~count:2000 (QCheck.make gen)
    (fun (seg, page, damage) ->
      let damaged = Bytes.copy page in
      (* magic, CRC, a one-byte length, then the meta *)
      let meta_end = 8 + 1 + String.length (Segment.encode_compact seg) in
      let damaged, padding_flip =
        match damage with
        | `Cut k -> (Bytes.sub damaged 0 k, false)
        | `Flip (i, bit) ->
          Bytes.set_uint8 damaged i (Bytes.get_uint8 damaged i lxor bit);
          (damaged, i >= meta_end)
        | `Overwrite (i, s) ->
          let len = min (String.length s) (Bytes.length damaged - i) in
          Bytes.blit_string s 0 damaged i len;
          (damaged, false)
        | `Garbage s -> (Bytes.cat (Bytes.sub damaged 0 4) (Bytes.of_string s), false)
      in
      match Segment.decode_header damaged with
      | None -> not padding_flip
      | Some t -> header_crc_matches damaged && ((not padding_flip) || t = seg))

(* ---------- Allocator ---------- *)

let test_alloc_distinct_drives () =
  let env = make_env () in
  match Allocator.allocate env.alloc ~online:(online env) with
  | None -> Alcotest.fail "allocation failed"
  | Some members ->
    check int "k+m members" 5 (Array.length members);
    let drives = Array.to_list (Array.map (fun m -> m.Segment.drive) members) in
    check int "distinct drives" 5 (List.length (List.sort_uniq compare drives))

let test_alloc_skips_offline () =
  let env = make_env () in
  Shelf.pull_drive env.shelf 0;
  match Allocator.allocate env.alloc ~online:(online env) with
  | None -> Alcotest.fail "allocation failed"
  | Some members ->
    Array.iter (fun m -> check bool "not drive 0" true (m.Segment.drive <> 0)) members

let test_alloc_fails_with_too_few_drives () =
  let env = make_env () in
  Shelf.pull_drive env.shelf 0;
  Shelf.pull_drive env.shelf 1;
  (* 4 online < 5 needed *)
  check bool "cannot allocate" true (Allocator.allocate env.alloc ~online:(online env) = None)

let test_alloc_from_frontier_only () =
  let env = make_env () in
  let m1 = Option.get (Allocator.allocate env.alloc ~online:(online env)) in
  let persisted = Allocator.persisted_frontier env.alloc in
  Array.iter
    (fun m ->
      check bool "allocated AU was in persisted frontier" true
        (List.exists
           (fun f -> f.Segment.drive = m.Segment.drive && f.Segment.au = m.Segment.au)
           persisted))
    m1

let test_alloc_persist_rarely () =
  let env = make_env () in
  let gens = ref [] in
  for _ = 1 to 16 do
    ignore (Allocator.allocate env.alloc ~online:(online env));
    gens := Allocator.persist_generation env.alloc :: !gens
  done;
  let final_gen = List.hd !gens in
  check bool "frontier persisted far less than once per allocation" true (final_gen <= 4)

let test_alloc_release_recycles () =
  let env = make_env () in
  let m = Option.get (Allocator.allocate env.alloc ~online:(online env)) in
  check int "used" 5 (Allocator.used_au_count env.alloc);
  let free_before = Allocator.free_au_count env.alloc in
  Allocator.release env.alloc m;
  check int "unused" 0 (Allocator.used_au_count env.alloc);
  check int "released AUs rejoin the free pool" (free_before + 5)
    (Allocator.free_au_count env.alloc)

let test_alloc_exhaustion () =
  let env = make_env () in
  (* 6 drives x 64 AUs = 384 AUs; each segment takes 5 -> at most 76. *)
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match Allocator.allocate env.alloc ~online:(online env) with
    | Some _ -> incr count
    | None -> continue := false
  done;
  check bool "allocated most of the array" true (!count >= 70 && !count <= 76)

let test_alloc_frontier_roundtrip () =
  let env = make_env () in
  let seg =
    match Allocator.allocate env.alloc ~online:(online env) with
    | Some members -> members
    | None -> Alcotest.fail "allocation failed"
  in
  let module Boot = Purity_core.Boot_region in
  let a = Allocator.persisted_frontier env.alloc in
  let contents =
    {
      Boot.frontier = a;
      next_segment = 1;
      next_medium = 1;
      seq = 0L;
      checkpoint_seq = 0L;
      dir = [];
    }
  in
  match Boot.decode (Boot.encode contents) with
  | None -> Alcotest.fail "boot contents did not decode"
  | Some c ->
    let fresh = Allocator.create ~layout ~drives:6 ~aus_per_drive:64 () in
    (* a member on a drive this shelf lacks is dropped, not indexed *)
    Allocator.recover fresh
      ~persisted:(c.Boot.frontier @ [ { Segment.drive = 6; au = 0 } ])
      ~used:(Array.to_list seg) ~rescan:[];
    check bool "same frontier" true (a = Allocator.persisted_frontier fresh);
    check bool "frontier not empty" true (a <> []);
    check int "the segment's AUs are used" (Array.length seg) (Allocator.used_au_count fresh);
    check int "the AUs outside the frontier are free" ((6 * 64) - List.length a)
      (Allocator.free_au_count fresh)

(* ---------- Writer + Scan + Io end to end ---------- *)

let test_segment_write_read_roundtrip () =
  let env = make_env () in
  let payload = String.init 20000 (fun i -> Char.chr ((i * 13) mod 256)) in
  let seg = write_segment env ~id:1 [ payload ] [] in
  check int "payload recorded" 20000 seg.Segment.payload_len;
  match await env (Io.read env.io seg ~off:0 ~len:20000) with
  | Ok data -> check Alcotest.string "roundtrip" payload (Bytes.to_string data)
  | Error `Unrecoverable -> Alcotest.fail "read failed"

let test_segment_partial_reads () =
  let env = make_env () in
  let payload = String.init 30000 (fun i -> Char.chr ((i * 7) mod 256)) in
  let seg = write_segment env ~id:2 [ payload ] [] in
  List.iter
    (fun (off, len) ->
      match await env (Io.read env.io seg ~off ~len) with
      | Ok data ->
        check Alcotest.string
          (Printf.sprintf "slice %d+%d" off len)
          (String.sub payload off len) (Bytes.to_string data)
      | Error `Unrecoverable -> Alcotest.fail "read failed")
    [ (0, 1); (4095, 2); (10000, 12288); (29990, 10) ]

let test_segment_read_with_two_failures () =
  let env = make_env () in
  let payload = String.init 25000 (fun i -> Char.chr ((i * 31) mod 256)) in
  let seg = write_segment env ~id:3 [ payload ] [] in
  (* Pull two member drives: any data must still be readable (7+2 in the
     paper, 3+2 here). *)
  Shelf.pull_drive env.shelf seg.Segment.members.(0).Segment.drive;
  Shelf.pull_drive env.shelf seg.Segment.members.(1).Segment.drive;
  (match await env (Io.read env.io seg ~off:0 ~len:25000) with
  | Ok data -> check Alcotest.string "degraded read" payload (Bytes.to_string data)
  | Error `Unrecoverable -> Alcotest.fail "degraded read failed");
  check bool "reconstruction used" true (Registry.read_int env.tel "sched/reconstruct_reads" > 0)

let test_segment_read_three_failures_unrecoverable () =
  let env = make_env () in
  let payload = String.make 20000 'q' in
  let seg = write_segment env ~id:4 [ payload ] [] in
  Shelf.pull_drive env.shelf seg.Segment.members.(0).Segment.drive;
  Shelf.pull_drive env.shelf seg.Segment.members.(1).Segment.drive;
  Shelf.pull_drive env.shelf seg.Segment.members.(2).Segment.drive;
  match await env (Io.read env.io seg ~off:0 ~len:100) with
  | Error `Unrecoverable -> ()
  | Ok _ -> Alcotest.fail "three losses with m=2 must be unrecoverable"

let test_log_records_roundtrip () =
  let env = make_env () in
  let logs = List.init 20 (fun i -> (Int64.of_int (i + 1), Printf.sprintf "log-record-%03d" i)) in
  let seg = write_segment env ~id:5 [ String.make 5000 'd' ] logs in
  check Alcotest.int64 "seq_lo" 1L seg.Segment.seq_lo;
  check Alcotest.int64 "seq_hi" 20L seg.Segment.seq_hi;
  check int "log after data" 5000 seg.Segment.log_off;
  match await env (Io.read env.io seg ~off:seg.Segment.log_off ~len:seg.Segment.log_len) with
  | Ok region ->
    let got = Writer.decode_log_region region in
    check int "all records" 20 (List.length got);
    List.iter2
      (fun (eseq, er) (gseq, gr) ->
        check Alcotest.int64 "seq" eseq gseq;
        check Alcotest.string "record" er gr)
      logs got
  | Error `Unrecoverable -> Alcotest.fail "log read failed"

(* Log records framed as the writer frames them: seq, length, bytes. *)
let frame_log records =
  let b = Buffer.create 64 in
  List.iter
    (fun (seq, r) ->
      Purity_util.Varint.write_i64 b seq;
      Purity_util.Varint.write b (String.length r);
      Buffer.add_string b r)
    records;
  Buffer.to_bytes b

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | x :: a, y :: b -> x = y && is_prefix a b
  | _ :: _, [] -> false

(* A framed region cut anywhere decodes to a prefix of its records; cut,
   bit-flipped or arbitrary bytes never make the decoder raise, and what it
   returns re-frames to a prefix of the bytes it was given. *)
let prop_log_region_total_on_damage =
  let gen =
    let open QCheck.Gen in
    let* records =
      list_size (0 -- 12) (pair (map Int64.of_int nat) (string_size (0 -- 40)))
    in
    let region = frame_log records in
    let n = Bytes.length region in
    let* damage =
      oneof
        [
          map (fun k -> `Cut (k mod (n + 1))) nat;
          map2 (fun i b -> `Flip (i, 1 lsl (b mod 8))) nat nat;
          map (fun s -> `Garbage s) (string_size (0 -- 96));
        ]
    in
    return (records, region, damage)
  in
  QCheck.Test.make ~name:"Writer.decode_log_region total on damage" ~count:2000
    (QCheck.make gen) (fun (records, region, damage) ->
      let damaged =
        match damage with
        | `Cut k -> Bytes.sub region 0 k
        | `Flip (i, bit) ->
          let b = Bytes.copy region in
          if Bytes.length b > 0 then begin
            let i = i mod Bytes.length b in
            Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor bit)
          end;
          b
        | `Garbage s -> Bytes.of_string s
      in
      let got = Writer.decode_log_region damaged in
      let reframed = frame_log got in
      Bytes.length reframed <= Bytes.length damaged
      && Bytes.equal reframed (Bytes.sub damaged 0 (Bytes.length reframed))
      && match damage with `Cut _ -> is_prefix got records | `Flip _ | `Garbage _ -> true)

let test_writer_capacity_respected () =
  let env = make_env () in
  let members = Option.get (Allocator.allocate env.alloc ~online:(online env)) in
  let w = Writer.create ~layout ~port:(Shelf.attach env.shelf) ~rs:env.rs ~members ~id:6 in
  let cap = Layout.payload_capacity layout in
  check int "fits" 0 (Writer.append_data w (String.make (cap - 100) 'x'));
  (* room is the caller's precondition: an append past it raises *)
  Alcotest.check_raises "overflow rejected" (Invalid_argument "Writer.append_data: no room")
    (fun () -> ignore (Writer.append_data w (String.make 200 'y')));
  let frame = Buffer.create 200 in
  Buffer.add_string frame (String.make 200 'f');
  Alcotest.check_raises "frame overflow rejected"
    (Invalid_argument "Writer.append_buffer: no room") (fun () ->
      ignore (Writer.append_buffer w frame));
  Alcotest.check_raises "log overflow rejected" (Invalid_argument "Writer.append_log: no room")
    (fun () -> Writer.append_log w ~seq:1L (String.make 200 'z'));
  check int "rejected appends change nothing" 100 (Writer.remaining w);
  (* a 50-byte record frames as one seq byte + one length byte + 50 *)
  Writer.append_log w ~seq:1L (String.make 50 'z');
  check int "small log fits" 48 (Writer.remaining w)

(* A log frame lands straight in the segio's log: no frame buffer per
   record. The log's own growth allocates its new bytes outside the minor
   heap. *)
let test_writer_append_log_allocation () =
  let env = make_env () in
  let members = Option.get (Allocator.allocate env.alloc ~online:(online env)) in
  let w = Writer.create ~layout ~port:(Shelf.attach env.shelf) ~rs:env.rs ~members ~id:8 in
  let record = String.make 48 'r' in
  let seqs = Array.init 1001 Int64.of_int in
  Writer.append_log w ~seq:seqs.(0) record;
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do
    Writer.append_log w ~seq:seqs.(i) record
  done;
  let words = (Gc.minor_words () -. w0) /. 1000. in
  if words > 2. then Alcotest.failf "Writer.append_log allocates %.2f words per record" words;
  let framed = List.init 1001 (fun seq -> Purity_util.Varint.size seq + 1 + 48) in
  check int "every frame kept" (List.fold_left ( + ) 0 framed) (Writer.log_len w)

let test_writer_data_and_logs_meet () =
  (* data from the front, logs from the back; they share the capacity *)
  let env = make_env () in
  let members = Option.get (Allocator.allocate env.alloc ~online:(online env)) in
  let w = Writer.create ~layout ~port:(Shelf.attach env.shelf) ~rs:env.rs ~members ~id:7 in
  let cap = Layout.payload_capacity layout in
  ignore (Writer.append_data w (String.make (cap / 2) 'd'));
  Writer.append_log w ~seq:1L (String.make ((cap / 2) - 64) 'l');
  check int "remaining tiny" 0 (max 0 (Writer.remaining w - 64))

let test_finalize_remaps_failed_member () =
  (* pull a member drive mid-flush: the remap callback re-homes its shard
     and the stripe still tolerates two further failures *)
  let env = make_env () in
  let members = Option.get (Allocator.allocate env.alloc ~online:(online env)) in
  let w = Writer.create ~layout ~port:(Shelf.attach env.shelf) ~rs:env.rs ~members ~id:9 in
  let payload = String.init 30000 (fun i -> Char.chr ((i * 11) mod 256)) in
  ignore (Writer.append_data w payload);
  let victim_member = members.(0) in
  let victim = victim_member.Segment.drive in
  (* a spare AU for the remap, on a drive outside the stripe *)
  let spare_drive =
    List.find
      (fun d -> not (Array.exists (fun (m : Segment.member) -> m.Segment.drive = d) members))
      (List.init 6 Fun.id)
  in
  let replaced = ref [] in
  let remap ~replacing ~exclude =
    if List.mem spare_drive exclude then None
    else begin
      replaced := replacing :: !replaced;
      Some { Segment.drive = spare_drive; au = 60 }
    end
  in
  let result = ref None in
  Writer.finalize w ~remap (fun seg -> result := Some seg);
  (* kill the victim while the flush is in flight *)
  Shelf.pull_drive env.shelf victim;
  Clock.run env.clock;
  let seg = Option.get !result in
  check bool "victim no longer a member" false
    (Array.exists (fun (m : Segment.member) -> m.Segment.drive = victim) seg.Segment.members);
  check bool "spare drive joined" true
    (Array.exists (fun (m : Segment.member) -> m.Segment.drive = spare_drive) seg.Segment.members);
  check bool "remap told which member it replaced" true (!replaced = [ victim_member ]);
  (* two MORE failures on top of the dead victim: still readable *)
  let others =
    Array.to_list (Array.map (fun (m : Segment.member) -> m.Segment.drive) seg.Segment.members)
  in
  (match others with
  | a :: b :: _ ->
    Shelf.pull_drive env.shelf a;
    Shelf.pull_drive env.shelf b
  | _ -> ());
  match await env (Io.read env.io seg ~off:0 ~len:30000) with
  | Ok data -> check Alcotest.string "full redundancy after remap" payload (Bytes.to_string data)
  | Error `Unrecoverable -> Alcotest.fail "remapped stripe lost data"

let test_scan_all_discovers_segments () =
  let env = make_env () in
  let s1 = write_segment env ~id:1 [ String.make 1000 'a' ] [ (5L, "r1") ] in
  let s2 = write_segment env ~id:2 [ String.make 1000 'b' ] [ (9L, "r2") ] in
  ignore s1;
  ignore s2;
  let segs = await env (fun k -> Scan.scan_all ~layout ~shelf:env.shelf (fun _ segs -> k segs)) in
  check (Alcotest.list int) "both found" [ 1; 2 ] (List.map (fun s -> s.Segment.id) segs)

let test_scan_members_only_frontier () =
  let env = make_env () in
  let s1 = write_segment env ~id:1 [ String.make 1000 'a' ] [] in
  let _s2 = write_segment env ~id:2 [ String.make 1000 'b' ] [] in
  let members = Array.to_list s1.Segment.members in
  let headers, segs =
    await env (fun k ->
        Scan.scan_members ~layout ~shelf:env.shelf (members @ members) (fun n segs ->
            k (n, segs)))
  in
  check int "each listed slot scanned once" (List.length members) headers;
  check (Alcotest.list int) "only the scanned segment" [ 1 ]
    (List.map (fun s -> s.Segment.id) segs)

let test_scan_survives_pulled_drive () =
  let env = make_env () in
  let s1 = write_segment env ~id:1 [ String.make 1000 'a' ] [] in
  Shelf.pull_drive env.shelf s1.Segment.members.(0).Segment.drive;
  let segs = await env (fun k -> Scan.scan_all ~layout ~shelf:env.shelf (fun _ segs -> k segs)) in
  check (Alcotest.list int) "found via surviving header copies" [ 1 ]
    (List.map (fun s -> s.Segment.id) segs)

let test_scan_all_slower_than_members () =
  let env = make_env () in
  let s1 = write_segment env ~id:1 [ String.make 1000 'a' ] [] in
  let t0 = Clock.now env.clock in
  ignore (await env (fun k -> Scan.scan_all ~layout ~shelf:env.shelf (fun _ segs -> k segs)));
  let full_time = Clock.now env.clock -. t0 in
  let t1 = Clock.now env.clock in
  ignore
    (await env (fun k ->
         Scan.scan_members ~layout ~shelf:env.shelf (Array.to_list s1.Segment.members)
           (fun _ segs -> k segs)));
  let frontier_time = Clock.now env.clock -. t1 in
  check bool
    (Printf.sprintf "frontier scan much faster (%.0f vs %.0f us)" frontier_time full_time)
    true
    (frontier_time *. 5.0 < full_time)

(* Start a second segio flushing, then read a 4 KiB chunk of the first
   segment from a data column whose drive the flush is programming (its
   first [Writer.max_writers] members start at once). Checks the bytes
   and returns how many chunks the scheduler rebuilt from siblings. *)
let read_beside_flush ~read_around_write =
  let env = make_env ~read_around_write () in
  let payload = String.init 30000 (fun i -> Char.chr (i mod 256)) in
  let seg = write_segment env ~id:1 [ payload ] [] in
  Registry.reset env.tel;
  let members2 = Option.get (Allocator.allocate env.alloc ~online:(online env)) in
  let w2 = Writer.create ~layout ~port:(Shelf.attach env.shelf) ~rs:env.rs ~members:members2 ~id:2 in
  ignore (Writer.append_data w2 (String.make 40000 'w'));
  let flush_done = ref false in
  Writer.finalize w2 (fun _ -> flush_done := true);
  let programming column =
    Drive.busy_writing (Shelf.drive env.shelf seg.Segment.members.(column).Segment.drive)
  in
  let column =
    match List.find_opt programming [ 0; 1; 2 ] with
    | Some c -> c
    | None -> Alcotest.fail "no data column of the first segment is on a programming drive"
  in
  (* row 0 of column c holds payload bytes [c * 4096, (c + 1) * 4096) *)
  let off = column * 4096 in
  let read_result = ref None in
  Io.read env.io seg ~off ~len:4096 (fun r -> read_result := Some r);
  Clock.run env.clock;
  check bool "flush finished" true !flush_done;
  (match !read_result with
  | Some (Ok data) ->
    check Alcotest.string "data intact" (String.sub payload off 4096) (Bytes.to_string data)
  | _ -> Alcotest.fail "read failed");
  check int "one chunk read" 1 (Registry.read_int env.tel "sched/chunk_reads");
  Registry.read_int env.tel "sched/reconstruct_reads"

let test_read_around_write_avoids_busy_drive () =
  check int "rebuilt around the programming drive" 1
    (read_beside_flush ~read_around_write:true)

let test_read_around_write_off_reads_directly () =
  check int "served by the programming drive" 0 (read_beside_flush ~read_around_write:false)

(* Every environment in this file derives from [env_seed]; a failing
   test reports it so the run can be reproduced. *)
let test_case name speed f =
  Alcotest.test_case name speed (fun () ->
      ignore (Testkit.with_seed_report ~seed:env_seed (fun _ -> f ())))

let () =
  Alcotest.run "segment"
    [
      ( "layout",
        [
          test_case "geometry" `Quick test_layout_geometry;
          test_case "locate single" `Quick test_layout_locate_single;
          test_case "locate striping" `Quick test_layout_locate_striping;
          test_case "locate row advance" `Quick test_layout_locate_row_advance;
          test_case "locate split" `Quick test_layout_locate_split;
          test_case "bounds" `Quick test_layout_bounds;
          test_case "bad geometry" `Quick test_layout_bad_geometry;
        ] );
      ( "header",
        [
          test_case "roundtrip" `Quick test_header_roundtrip;
          test_case "rejects garbage" `Quick test_header_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_header_total_on_damage;
        ] );
      ( "allocator",
        [
          test_case "distinct drives" `Quick test_alloc_distinct_drives;
          test_case "skips offline" `Quick test_alloc_skips_offline;
          test_case "too few drives" `Quick test_alloc_fails_with_too_few_drives;
          test_case "frontier-only allocation" `Quick test_alloc_from_frontier_only;
          test_case "persists rarely" `Quick test_alloc_persist_rarely;
          test_case "release recycles" `Quick test_alloc_release_recycles;
          test_case "exhaustion" `Quick test_alloc_exhaustion;
          test_case "frontier roundtrip" `Quick test_alloc_frontier_roundtrip;
        ] );
      ( "writer+io",
        [
          test_case "write/read roundtrip" `Quick test_segment_write_read_roundtrip;
          QCheck_alcotest.to_alcotest prop_log_region_total_on_damage;
          test_case "partial reads" `Quick test_segment_partial_reads;
          test_case "read through two failures" `Quick test_segment_read_with_two_failures;
          test_case "three failures unrecoverable" `Quick
            test_segment_read_three_failures_unrecoverable;
          test_case "log records roundtrip" `Quick test_log_records_roundtrip;
          test_case "capacity respected" `Quick test_writer_capacity_respected;
          test_case "append_log allocation" `Quick test_writer_append_log_allocation;
          test_case "data and logs meet" `Quick test_writer_data_and_logs_meet;
          test_case "read around write" `Quick test_read_around_write_avoids_busy_drive;
          test_case "read around write off" `Quick test_read_around_write_off_reads_directly;
          test_case "mid-flush remap" `Quick test_finalize_remaps_failed_member;
        ] );
      ( "scan",
        [
          test_case "scan_all discovers" `Quick test_scan_all_discovers_segments;
          test_case "scan_members scoped" `Quick test_scan_members_only_frontier;
          test_case "survives pulled drive" `Quick test_scan_survives_pulled_drive;
          test_case "frontier scan faster" `Quick test_scan_all_slower_than_members;
        ] );
    ]
