(* Bits are stored LSB-first: bit offset b lives at byte b/8, bit b mod 8.
   Widths are capped at 57 so that any field fits inside one aligned 8-byte
   load regardless of the starting bit (57 + 7 = 64). *)

let max_width = 57

let mask width =
  if width = 0 then 0L else Int64.sub (Int64.shift_left 1L width) 1L

module Writer = struct
  type t = { mutable buf : Bytes.t; mutable bits : int }

  let create ?(capacity = 64) () =
    { buf = Bytes.make (max capacity 16) '\000'; bits = 0 }

  let ensure t extra_bits =
    let needed = ((t.bits + extra_bits + 7) / 8) + 8 in
    if needed > Bytes.length t.buf then begin
      let cap = max needed (2 * Bytes.length t.buf) in
      let nb = Bytes.make cap '\000' in
      Bytes.blit t.buf 0 nb 0 (Bytes.length t.buf);
      t.buf <- nb
    end

  let put t v ~width =
    assert (width >= 0 && width <= max_width);
    if width > 0 then begin
      ensure t width;
      let v = Int64.logand v (mask width) in
      let byte = t.bits / 8 and off = t.bits mod 8 in
      let cur = Bytes.get_int64_le t.buf byte in
      Bytes.set_int64_le t.buf byte (Int64.logor cur (Int64.shift_left v off));
      t.bits <- t.bits + width
    end

  let bit_length t = t.bits

  let align_byte t =
    let rem = t.bits mod 8 in
    if rem <> 0 then begin
      ensure t (8 - rem);
      t.bits <- t.bits + (8 - rem)
    end

  let contents t = Bytes.sub t.buf 0 ((t.bits + 7) / 8)
end

module Reader = struct
  type t = { buf : Bytes.t; padded : Bytes.t; len_bits : int; mutable cursor : int }

  (* Pad with 8 trailing zero bytes so [get] can always do an aligned
     8-byte load without bounds checks near the end. *)
  let create buf =
    let padded = Bytes.make (Bytes.length buf + 8) '\000' in
    Bytes.blit buf 0 padded 0 (Bytes.length buf);
    { buf; padded; len_bits = 8 * Bytes.length buf; cursor = 0 }

  let of_string s = create (Bytes.of_string s)

  let get t ~at ~width =
    assert (width >= 0 && width <= max_width);
    if width = 0 then 0L
    else begin
      assert (at >= 0 && at + width <= t.len_bits);
      let byte = at / 8 and off = at mod 8 in
      let word = Bytes.get_int64_le t.padded byte in
      Int64.logand (Int64.shift_right_logical word off) (mask width)
    end

  let read t ~width =
    let v = get t ~at:t.cursor ~width in
    t.cursor <- t.cursor + width;
    v

  let pos t = t.cursor
  let bit_length t = t.len_bits
end
