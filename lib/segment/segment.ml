module Varint = Purity_util.Varint
module Crc32c = Purity_util.Crc32c

type member = { drive : int; au : int }

type t = {
  id : int;
  members : member array;
  payload_len : int;
  log_off : int;
  log_len : int;
  seq_lo : int64;
  seq_hi : int64;
}

let distinct_members members =
  let seen = Purity_util.Keytbl.Ipair.create 64 in
  List.filter
    (fun m ->
      let key = (m.drive, m.au) in
      if Purity_util.Keytbl.Ipair.mem seen key then false
      else begin
        Purity_util.Keytbl.Ipair.replace seen key ();
        true
      end)
    members

let magic = "PSEG"

let encode_meta t ~shard =
  let buf = Buffer.create 128 in
  Varint.write buf t.id;
  Varint.write buf shard;
  Varint.write buf (Array.length t.members);
  Array.iter
    (fun m ->
      Varint.write buf m.drive;
      Varint.write buf m.au)
    t.members;
  Varint.write buf t.payload_len;
  Varint.write buf t.log_off;
  Varint.write buf t.log_len;
  Varint.write_i64 buf t.seq_lo;
  Varint.write_i64 buf t.seq_hi;
  Buffer.contents buf

let encode_header layout t ~shard =
  let meta = encode_meta t ~shard in
  let page = Bytes.make layout.Layout.header_size '\000' in
  Bytes.blit_string magic 0 page 0 4;
  let crc = Crc32c.digest_string meta in
  for i = 0 to 3 do
    Bytes.set_uint8 page (4 + i)
      (Int32.to_int (Int32.logand (Int32.shift_right_logical crc (8 * i)) 0xFFl))
  done;
  let lenbuf = Buffer.create 4 in
  Varint.write lenbuf (String.length meta);
  let len_enc = Buffer.contents lenbuf in
  if 8 + String.length len_enc + String.length meta > layout.Layout.header_size then
    invalid_arg "Segment.encode_header: header overflow";
  Bytes.blit_string len_enc 0 page 8 (String.length len_enc);
  Bytes.blit_string meta 0 page (8 + String.length len_enc) (String.length meta);
  page

(* The meta body shared by header pages and compact values: reads from
   [pos] and returns the shard, the meta and the position just past it,
   raising [Invalid_argument] (as the varint reader does, accepting only
   shortest encodings) on anything malformed. A member takes at least two
   bytes, so the count is bounded by the bytes left before any array is
   built. *)
let meta_body buf pos =
  let id, p = Varint.read buf ~pos in
  let shard, p = Varint.read buf ~pos:p in
  let nmembers, p = Varint.read buf ~pos:p in
  if nmembers > (Bytes.length buf - p) / 2 then invalid_arg "Segment: member count";
  let pos = ref p in
  let members =
    Array.init nmembers (fun _ ->
        let drive, p1 = Varint.read buf ~pos:!pos in
        let au, p2 = Varint.read buf ~pos:p1 in
        pos := p2;
        { drive; au })
  in
  let payload_len, p = Varint.read buf ~pos:!pos in
  let log_off, p = Varint.read buf ~pos:p in
  let log_len, p = Varint.read buf ~pos:p in
  let seq_lo, p = Varint.read_i64 buf ~pos:p in
  let seq_hi, p = Varint.read_i64 buf ~pos:p in
  (shard, { id; members; payload_len; log_off; log_len; seq_lo; seq_hi }, p)

let decode_header page =
  if Bytes.length page < 16 then None
  else if not (String.equal (Bytes.sub_string page 0 4) magic) then None
  else begin
    let crc_stored =
      let b i = Int32.of_int (Bytes.get_uint8 page (4 + i)) in
      Int32.logor (b 0)
        (Int32.logor
           (Int32.shift_left (b 1) 8)
           (Int32.logor (Int32.shift_left (b 2) 16) (Int32.shift_left (b 3) 24)))
    in
    match
      let meta_len, p = Varint.read page ~pos:8 in
      if
        meta_len <= Bytes.length page - p
        && Int32.equal (Crc32c.update 0l page ~pos:p ~len:meta_len) crc_stored
      then Some (meta_body page p)
      else None
    with
    | Some (_shard, t, _) -> Some t
    | None | exception Invalid_argument _ -> None
  end

let encode_compact t = encode_meta t ~shard:0

(* A compact value is shard 0's meta and nothing after it, so whatever
   decodes re-encodes to [s]. *)
let[@purity.lint.recovery_root] decode_compact s =
  match meta_body (Bytes.of_string s) 0 with
  | 0, t, p when p = String.length s -> Some t
  | _ | exception Invalid_argument _ -> None
