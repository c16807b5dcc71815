let write_i64 buf v =
  let v = ref v in
  let continue = ref true in
  while !continue do
    let low = Int64.to_int (Int64.logand !v 0x7FL) in
    v := Int64.shift_right_logical !v 7;
    if !v = 0L then begin
      Buffer.add_char buf (Char.chr low);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (low lor 0x80))
  done

let write buf v =
  if v < 0 then invalid_arg "Varint.write: negative";
  write_i64 buf (Int64.of_int v)

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

let read_i64 buf ~pos =
  let v = ref 0L in
  let shift = ref 0 in
  let p = ref pos in
  let result = ref None in
  while !result = None do
    if !p >= Bytes.length buf then invalid_arg "Varint.read: truncated";
    if !shift > 63 then invalid_arg "Varint.read: overflow";
    let b = Bytes.get_uint8 buf !p in
    incr p;
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (b land 0x7F)) !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then result := Some (!v, !p)
  done;
  Option.get !result

let read buf ~pos =
  let v, next = read_i64 buf ~pos in
  (Int64.to_int v, next)

let size v =
  if v < 0 then invalid_arg "Varint.size: negative";
  let rec go n v = if v < 0x80 then n else go (n + 1) (v lsr 7) in
  go 1 v
