let[@purity.lint.allow
     "unsafe: key codec: freshly built bytes published as a string, never \
      mutated after"] be64 v =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int v);
  Bytes.unsafe_to_string b

let[@purity.lint.allow "unsafe: key codec: decode-side view of an immutable key"] read_be64 s
    pos =
  Int64.to_int (Bytes.get_int64_be (Bytes.unsafe_of_string s) pos)

module Block = struct
  type t = int * int

  let equal ((m1, b1) : t) (m2, b2) = m1 = m2 && b1 = b2

  (* Flipping the sign bit turns the signed order into the unsigned one,
     which is how the sign-extended big-endian encodings compare. *)
  let ucompare a b = Int.compare (a lxor min_int) (b lxor min_int)

  let compare (m1, b1) (m2, b2) =
    let c = ucompare m1 m2 in
    if c <> 0 then c else ucompare b1 b2

  let hash ((m, b) : t) = (m * 0x9E3779B1) lxor b
  let size _ = 16

  let write buf (m, b) =
    Buffer.add_int64_be buf (Int64.of_int m);
    Buffer.add_int64_be buf (Int64.of_int b)

  (* A half is an int only if it is the sign extension of 63 bits. *)
  let int_at buf pos =
    let v = Bytes.get_int64_be buf pos in
    let i = Int64.to_int v in
    if Int64.equal (Int64.of_int i) v then Some i else None

  let[@purity.lint.recovery_root] read buf ~pos ~len =
    if len <> 16 || pos < 0 || pos > Bytes.length buf - 16 then None
    else
      match (int_at buf pos, int_at buf (pos + 8)) with
      | Some m, Some b -> Some (m, b)
      | _ -> None

  let[@purity.lint.allow
       "unsafe: key codec: freshly built bytes published as a string, never \
        mutated after"] to_string (medium, block) =
    let b = Bytes.create 16 in
    Bytes.set_int64_be b 0 (Int64.of_int medium);
    Bytes.set_int64_be b 8 (Int64.of_int block);
    Bytes.unsafe_to_string b

  let hash_pair k = Purity_util.Bloom.hash_pair (to_string k)
  let pp ppf (m, b) = Fmt.pf ppf "(%d, %d)" m b
end

let medium_key id = be64 id
let medium_key_id k = read_be64 k 0

let segment_key id = be64 id
let segment_key_id k = read_be64 k 0
