module Varint = Purity_util.Varint

include Fact_intf

module Make (K : KEY) (V : VALUE) = struct
  type key = K.t
  type value = V.t
  type t = { key : key; value : value option; seq : int64 }

  module Key = K
  module Value = V

  let make ~key ~value ~seq = { key; value = Some value; seq }
  let tombstone ~key ~seq = { key; value = None; seq }
  let is_tombstone t = Option.is_none t.value

  let compare_key_seq a b =
    let c = K.compare a.key b.key in
    if c <> 0 then c else Int64.compare b.seq a.seq

  let encode buf t =
    Varint.write_i64 buf t.seq;
    Varint.write buf (K.size t.key);
    K.write buf t.key;
    match t.value with
    | None -> Buffer.add_char buf '\000'
    | Some v ->
      Buffer.add_char buf '\001';
      Varint.write buf (V.size v);
      V.write buf v

  let decode buf ~pos =
    let seq, p = Varint.read_i64 buf ~pos in
    let klen, p = Varint.read buf ~pos:p in
    if klen > Bytes.length buf - p then invalid_arg "Fact.decode: truncated key";
    let key =
      match K.read buf ~pos:p ~len:klen with
      | Some k -> k
      | None -> invalid_arg "Fact.decode: bad key"
    in
    let p = p + klen in
    if p >= Bytes.length buf then invalid_arg "Fact.decode: truncated tag";
    match Bytes.get buf p with
    | '\000' ->
      if not V.retractable then invalid_arg "Fact.decode: tombstone in a non-retractable table";
      ({ key; value = None; seq }, p + 1)
    | '\001' -> (
      let vlen, p = Varint.read buf ~pos:(p + 1) in
      if vlen > Bytes.length buf - p then invalid_arg "Fact.decode: truncated value";
      match V.read buf ~pos:p ~len:vlen with
      | Some v -> ({ key; value = Some v; seq }, p + vlen)
      | None -> invalid_arg "Fact.decode: bad value")
    | _ -> invalid_arg "Fact.decode: bad tag"
end

module Str = struct
  type t = string

  let equal = String.equal
  let size = String.length
  let write = Buffer.add_string
  let read buf ~pos ~len = Some (Bytes.sub_string buf pos len)
  let pp ppf s = Fmt.pf ppf "%S" s
  let compare = String.compare
  let hash = String.hash
  let hash_pair = Purity_util.Bloom.hash_pair
  let retractable = true
end

include Make (Str) (Str)
