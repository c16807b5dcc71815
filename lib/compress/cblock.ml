module Varint = Purity_util.Varint
module Crc32c = Purity_util.Crc32c

type encoding = Raw | Lz

type t = { logical_len : int; encoding : encoding; payload : string }

let max_logical = 32 * 1024

(* Raw (stored-as-is) frame, for data compression would expand. A plain
   function, not a per-call closure — the write path comes through here
   once per stored run. *)
let add_raw_frame buf data =
  let n = String.length data in
  Varint.write buf n;
  Buffer.add_char buf '\000';
  Varint.write buf n;
  Buffer.add_int32_le buf (Crc32c.digest_string data);
  Buffer.add_string buf data

(* Frame application data directly into [buf], without materialising a
   cblock or its payload string: the compressed bytes go from the LZ
   scratch buffer straight into the frame. The scratch is not optional:
   the steady-state write path always holds one, and an [?scratch]
   wrapper would box [Some scratch] per stored run. Returns the frame
   size. *)
let add_frame_into ~scratch buf data =
  let n = String.length data in
  if n > max_logical then invalid_arg "Cblock.add_frame_into: larger than 32 KiB";
  let start = Buffer.length buf in
  let clen = Lz.compress_into scratch data in
  if clen < n then begin
    let pb = Lz.scratch_bytes scratch in
    Varint.write buf n;
    Buffer.add_char buf '\001';
    Varint.write buf clen;
    Buffer.add_int32_le buf (Crc32c.digest pb ~pos:0 ~len:clen);
    Buffer.add_subbytes buf pb 0 clen
  end
  else add_raw_frame buf data;
  Buffer.length buf - start

let encoding_of_byte = function '\000' -> Some Raw | '\001' -> Some Lz | _ -> None

(* The lengths [add_frame_into] can write: a Raw payload is the data
   itself and an Lz payload is strictly shorter (Raw is stored
   otherwise). *)
let lengths_fit encoding ~logical_len ~payload_len =
  logical_len <= max_logical
  &&
  match encoding with
  | Raw -> payload_len = logical_len
  | Lz -> payload_len < logical_len

(* Total: a frame [add_frame_into] could not have written is [None]. The field
   reads, the CRC and the decompression all sit in the match scrutinee,
   so their [Invalid_argument] lands in the handler. The CRC is checked
   on the frame in place, before the payload is copied out. *)
let[@purity.lint.recovery_root] decode buf ~pos =
  match
    let logical_len, p = Varint.read buf ~pos in
    let encoding = if p < Bytes.length buf then encoding_of_byte (Bytes.get buf p) else None in
    let payload_len, p = Varint.read buf ~pos:(p + 1) in
    let start = p + 4 in
    match encoding with
    | Some encoding
      when lengths_fit encoding ~logical_len ~payload_len
           && payload_len <= Bytes.length buf - start
           && Int32.equal
                (Crc32c.digest buf ~pos:start ~len:payload_len)
                (Bytes.get_int32_le buf p) ->
      let payload = Bytes.sub_string buf start payload_len in
      let data =
        match encoding with
        | Raw -> payload
        | Lz -> Lz.decompress payload ~expected_len:logical_len
      in
      Some ({ logical_len; encoding; payload }, data, start + payload_len)
    | _ -> None
  with
  | r -> r
  | exception Invalid_argument _ -> None
