module Varint = Purity_util.Varint
module Segment = Purity_segment.Segment

type dir = (string * string * (Segment.t * int * int) list) list

type contents = {
  frontier : Segment.member list;
  next_segment : int;
  next_medium : int;
  seq : int64;
  checkpoint_seq : int64;
  dir : dir;
}

let version = 2

let encode c =
  let buf = Buffer.create 512 in
  let str s =
    Varint.write buf (String.length s);
    Buffer.add_string buf s
  in
  Varint.write buf version;
  Varint.write buf (List.length c.frontier);
  List.iter
    (fun (m : Segment.member) ->
      Varint.write buf m.drive;
      Varint.write buf m.au)
    c.frontier;
  Varint.write buf c.next_segment;
  Varint.write buf c.next_medium;
  Varint.write_i64 buf c.seq;
  Varint.write_i64 buf c.checkpoint_seq;
  Varint.write buf (List.length c.dir);
  List.iter
    (fun (name, ranges, chunks) ->
      str name;
      str ranges;
      Varint.write buf (List.length chunks);
      List.iter
        (fun (meta, off, len) ->
          str (Segment.encode_compact meta);
          Varint.write buf off;
          Varint.write buf len)
        chunks)
    c.dir;
  Buffer.contents buf

(* The blob body: reads the whole blob, returning the contents and the
   position just past them, and raises [Invalid_argument] (as the varint
   reader does) on anything malformed. Every count is checked against the
   bytes left at [each] bytes per item (a member is two varints, a chunk
   and a directory entry at least three) before a list is built, and every
   string length against the bytes left. *)
let body buf =
  let count p ~each =
    let n, p = Varint.read buf ~pos:p in
    if n > (Bytes.length buf - p) / each then invalid_arg "Boot_region: count";
    (n, p)
  in
  let rec items n p item acc =
    if n = 0 then (List.rev acc, p)
    else
      let x, p = item p in
      items (n - 1) p item (x :: acc)
  in
  let str p =
    let len, p = count p ~each:1 in
    (Bytes.sub_string buf p len, p + len)
  in
  let v, p = Varint.read buf ~pos:0 in
  if v <> version then invalid_arg "Boot_region: version";
  let n, p = count p ~each:2 in
  let frontier, p =
    items n p
      (fun p ->
        let drive, p = Varint.read buf ~pos:p in
        let au, p = Varint.read buf ~pos:p in
        ({ Segment.drive; au }, p))
      []
  in
  let next_segment, p = Varint.read buf ~pos:p in
  let next_medium, p = Varint.read buf ~pos:p in
  let seq, p = Varint.read_i64 buf ~pos:p in
  let checkpoint_seq, p = Varint.read_i64 buf ~pos:p in
  let chunk p =
    let meta, p = str p in
    let off, p = Varint.read buf ~pos:p in
    let len, p = Varint.read buf ~pos:p in
    match Segment.decode_compact meta with
    | Some meta -> ((meta, off, len), p)
    | None -> invalid_arg "Boot_region: chunk meta"
  in
  let entry p =
    let name, p = str p in
    let ranges, p = str p in
    let n, p = count p ~each:3 in
    let chunks, p = items n p chunk [] in
    ((name, ranges, chunks), p)
  in
  let n, p = count p ~each:3 in
  let dir, p = items n p entry [] in
  ({ frontier; next_segment; next_medium; seq; checkpoint_seq; dir }, p)

(* Whatever decodes re-encodes to [s]: the readers take only shortest
   encodings and the body must end exactly at the blob's end. *)
let[@purity.lint.recovery_root] decode s =
  match body (Bytes.of_string s) with
  | c, p when p = String.length s -> Some c
  | _ | exception Invalid_argument _ -> None
