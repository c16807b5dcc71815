(* Untagged arithmetic on a native int: nothing boxes. *)
let write_nonneg buf v =
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.chr ((!v land 0x7F) lor 0x80));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

let write buf v =
  if v < 0 then invalid_arg "Varint.write: negative";
  write_nonneg buf v

(* Values in [0, max_int] — every seqno — take the int loop. A larger
   one (as unsigned) has more than 7 bits, so its low group goes out
   with the continuation bit and the rest, below 2^57, is back in range. *)
let rec write_i64 buf v =
  if Int64.compare v 0L >= 0 && Int64.compare v (Int64.of_int max_int) <= 0 then
    write_nonneg buf (Int64.to_int v)
  else begin
    Buffer.add_char buf (Char.chr (Int64.to_int (Int64.logand v 0x7FL) lor 0x80));
    write_i64 buf (Int64.shift_right_logical v 7)
  end

let put buf ~pos v =
  if v < 0 then invalid_arg "Varint.put: negative";
  let v = ref v in
  let p = ref pos in
  while !v >= 0x80 do
    Bytes.set buf !p (Char.chr ((!v land 0x7F) lor 0x80));
    v := !v lsr 7;
    incr p
  done;
  Bytes.set buf !p (Char.chr !v);
  !p + 1

(* Only the shortest spelling is accepted — the one [write_i64] produces
   — so a decoded value re-encodes to exactly the bytes it came from. *)
let read_i64 buf ~pos =
  let v = ref 0L in
  let shift = ref 0 in
  let p = ref pos in
  let fin = ref false in
  while not !fin do
    if !p >= Bytes.length buf then invalid_arg "Varint.read: truncated";
    let b = Bytes.get_uint8 buf !p in
    incr p;
    (* the tenth byte carries bit 63 alone *)
    if !shift = 63 && b > 1 then invalid_arg "Varint.read: overflow";
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (b land 0x7F)) !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then begin
      if b = 0 && !shift > 7 then invalid_arg "Varint.read: non-canonical";
      fin := true
    end
  done;
  (!v, !p)

let read buf ~pos =
  let v, next = read_i64 buf ~pos in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    invalid_arg "Varint.read: out of range";
  (Int64.to_int v, next)

let size v =
  if v < 0 then invalid_arg "Varint.size: negative";
  let rec go n v = if v < 0x80 then n else go (n + 1) (v lsr 7) in
  go 1 v
