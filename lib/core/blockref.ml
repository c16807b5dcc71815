module Varint = Purity_util.Varint

type t = { segment : int; off : int; stored_len : int; index : int }

let equal a b =
  a.segment = b.segment && a.off = b.off && a.stored_len = b.stored_len && a.index = b.index

let size t = Varint.size t.segment + Varint.size t.off + Varint.size t.stored_len + Varint.size t.index

let write buf t =
  Varint.write buf t.segment;
  Varint.write buf t.off;
  Varint.write buf t.stored_len;
  Varint.write buf t.index

(* The varint reader takes only shortest encodings, so a reference that
   ends exactly at [pos + len] re-encodes to those bytes. *)
let[@purity.lint.recovery_root] read buf ~pos ~len =
  match
    let segment, p = Varint.read buf ~pos in
    let off, p = Varint.read buf ~pos:p in
    let stored_len, p = Varint.read buf ~pos:p in
    let index, p = Varint.read buf ~pos:p in
    (p, { segment; off; stored_len; index })
  with
  | p, r when p = pos + len -> Some r
  | _ -> None
  | exception Invalid_argument _ -> None

let retractable = false

let encode t =
  let buf = Buffer.create 12 in
  write buf t;
  Buffer.contents buf

let[@purity.lint.recovery_root] [@purity.lint.allow
     "unsafe: decode-side view of an immutable encoded blockref"] decode s =
  read (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let same_cblock a b = a.segment = b.segment && a.off = b.off

let pp ppf t = Fmt.pf ppf "seg%d@%d+%d[%d]" t.segment t.off t.stored_len t.index
