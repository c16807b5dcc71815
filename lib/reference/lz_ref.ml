(* The original byte-at-a-time LZ compressor and decompressor over
   [Buffer], the reference Purity_compress.Lz's word kernels are checked
   against: the fast compressor must emit these bytes exactly. The
   constants fix the output: 4-byte minimum match, 64 KiB window, a
   14-bit multiplicative hash of each 4-byte little-endian word, and
   LZ4's skip trigger (a failed probe advances [1 + (misses lsr 9)]
   bytes). *)

let min_match = 4
let window = 65535
let hash_bits = 14
let hash_size = 1 lsl hash_bits
let skip_trigger = 9

(* Multiplicative hash of a 4-byte little-endian value. *)
let hmul v = (v * 2654435761) lsr (32 - hash_bits) land (hash_size - 1)

(* The hash of the 4 bytes at [i], assembled byte-wise. *)
let hash4 s i =
  hmul
    (Char.code (String.unsafe_get s i)
    lor (Char.code (String.unsafe_get s (i + 1)) lsl 8)
    lor (Char.code (String.unsafe_get s (i + 2)) lsl 16)
    lor (Char.code (String.unsafe_get s (i + 3)) lsl 24))

let add_extension buf n =
  let rest = ref (n - 15) in
  while !rest >= 255 do
    Buffer.add_char buf '\255';
    rest := !rest - 255
  done;
  Buffer.add_char buf (Char.chr !rest)

let emit buf src lit_start lit_len match_off match_len =
  let lit_nib = if lit_len < 15 then lit_len else 15 in
  let match_base = if match_len = 0 then 0 else match_len - min_match in
  let match_nib = if match_base < 15 then match_base else 15 in
  Buffer.add_char buf (Char.chr ((lit_nib lsl 4) lor match_nib));
  if lit_len >= 15 then add_extension buf lit_len;
  Buffer.add_substring buf src lit_start lit_len;
  if match_len > 0 then begin
    Buffer.add_char buf (Char.chr (match_off land 0xFF));
    Buffer.add_char buf (Char.chr ((match_off lsr 8) land 0xFF));
    if match_base >= 15 then add_extension buf match_base
  end

let compress s =
  let n = String.length s in
  let out = Buffer.create ((n / 2) + 16) in
  if n < min_match + 1 then begin
    emit out s 0 n 0 0;
    Buffer.contents out
  end
  else begin
    let table = Array.make hash_size (-1) in
    let anchor = ref 0 in
    let i = ref 0 in
    let misses = ref 0 in
    let limit = n - min_match in
    while !i <= limit do
      let h = hash4 s !i in
      let cand = table.(h) in
      table.(h) <- !i;
      if
        cand >= 0
        && !i - cand <= window
        && String.unsafe_get s cand = String.unsafe_get s !i
        && String.unsafe_get s (cand + 1) = String.unsafe_get s (!i + 1)
        && String.unsafe_get s (cand + 2) = String.unsafe_get s (!i + 2)
        && String.unsafe_get s (cand + 3) = String.unsafe_get s (!i + 3)
      then begin
        let len = ref min_match in
        while
          !i + !len < n
          && String.unsafe_get s (cand + !len) = String.unsafe_get s (!i + !len)
        do
          incr len
        done;
        emit out s !anchor (!i - !anchor) (!i - cand) !len;
        let stop = min (!i + !len) limit in
        let j = ref (!i + 1) in
        while !j < stop do
          table.(hash4 s !j) <- !j;
          j := !j + 2
        done;
        i := !i + !len;
        anchor := !i;
        misses := 0
      end
      else begin
        i := !i + 1 + (!misses lsr skip_trigger);
        incr misses
      end
    done;
    emit out s !anchor (n - !anchor) 0 0;
    Buffer.contents out
  end

let decompress s ~expected_len =
  let n = String.length s in
  if expected_len < 0 then invalid_arg "Lz.decompress: negative length";
  let out = Bytes.create expected_len in
  let opos = ref 0 in
  let i = ref 0 in
  let fail msg = invalid_arg ("Lz.decompress: " ^ msg) in
  let read_byte () =
    if !i >= n then fail "truncated";
    let c = Char.code (String.unsafe_get s !i) in
    incr i;
    c
  in
  let read_ext base =
    if base < 15 then base
    else begin
      let total = ref base in
      let c = ref 255 in
      while !c = 255 do
        c := read_byte ();
        total := !total + !c
      done;
      !total
    end
  in
  while !i < n do
    let token = read_byte () in
    let lit_len = read_ext (token lsr 4) in
    if lit_len > 0 then begin
      if !i + lit_len > n || !opos + lit_len > expected_len then fail "bad literal run";
      Bytes.blit_string s !i out !opos lit_len;
      i := !i + lit_len;
      opos := !opos + lit_len
    end;
    if !i < n then begin
      let lo = read_byte () in
      let hi = read_byte () in
      let off = lo lor (hi lsl 8) in
      if off = 0 || off > !opos then fail "bad offset";
      let match_len = read_ext (token land 0xF) + min_match in
      if !opos + match_len > expected_len then fail "output overflow";
      let src = ref (!opos - off) in
      for _ = 1 to match_len do
        Bytes.unsafe_set out !opos (Bytes.unsafe_get out !src);
        incr src;
        incr opos
      done
    end
  done;
  if !opos <> expected_len then fail "length mismatch";
  Bytes.unsafe_to_string out
