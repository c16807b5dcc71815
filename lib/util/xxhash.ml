let p1 = 0x9E3779B185EBCA87L
let p2 = 0xC2B2AE3D27D4EB4FL
let p3 = 0x165667B19E3779F9L
let p4 = 0x85EBCA77C2B2AE63L
let p5 = 0x27D4EB2F165667C5L

(* The helpers are [@inline]: called out of line, each boxes its int64
   argument and result, some 18,000 words for a 16 KiB hash. Inlined,
   the stripe loop's lanes stay unboxed. *)
let[@inline] rotl x r =
  Int64.logor (Int64.shift_left x r) (Int64.shift_right_logical x (64 - r))

let[@inline] round acc input =
  let acc = Int64.add acc (Int64.mul input p2) in
  Int64.mul (rotl acc 31) p1

let[@inline] merge_round acc v =
  let acc = Int64.logxor acc (round 0L v) in
  Int64.add (Int64.mul acc p1) p4

let[@inline] finalize h =
  let h = Int64.(mul (logxor h (shift_right_logical h 33)) p2) in
  let h = Int64.(mul (logxor h (shift_right_logical h 29)) p3) in
  Int64.(logxor h (shift_right_logical h 32))

let[@purity.lint.allow
     "raises: the bounds assert re-checks pos/len that every caller \
      derives from the buffer's own length"] hash ?(seed = 0L) buf ~pos
    ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= Bytes.length buf);
  let stop = pos + len in
  let p = ref pos in
  let h =
    if len >= 32 then begin
      let v1 = ref (Int64.add (Int64.add seed p1) p2)
      and v2 = ref (Int64.add seed p2)
      and v3 = ref seed
      and v4 = ref (Int64.sub seed p1) in
      let limit = stop - 32 in
      while !p <= limit do
        v1 := round !v1 (Bytes.get_int64_le buf !p);
        v2 := round !v2 (Bytes.get_int64_le buf (!p + 8));
        v3 := round !v3 (Bytes.get_int64_le buf (!p + 16));
        v4 := round !v4 (Bytes.get_int64_le buf (!p + 24));
        p := !p + 32
      done;
      let h =
        Int64.add
          (Int64.add (rotl !v1 1) (rotl !v2 7))
          (Int64.add (rotl !v3 12) (rotl !v4 18))
      in
      let h = merge_round h !v1 in
      let h = merge_round h !v2 in
      let h = merge_round h !v3 in
      merge_round h !v4
    end
    else Int64.add seed p5
  in
  let h = ref (Int64.add h (Int64.of_int len)) in
  while !p + 8 <= stop do
    let k = round 0L (Bytes.get_int64_le buf !p) in
    h := Int64.add (Int64.mul (rotl (Int64.logxor !h k) 27) p1) p4;
    p := !p + 8
  done;
  if !p + 4 <= stop then begin
    let k = Int64.of_int32 (Bytes.get_int32_le buf !p) in
    let k = Int64.logand k 0xFFFFFFFFL in
    h := Int64.add (Int64.mul (rotl (Int64.logxor !h (Int64.mul k p1)) 23) p2) p3;
    p := !p + 4
  end;
  while !p < stop do
    let k = Int64.of_int (Bytes.get_uint8 buf !p) in
    h := Int64.mul (rotl (Int64.logxor !h (Int64.mul k p5)) 11) p1;
    incr p
  done;
  finalize !h

let hash_string ?seed s =
  hash ?seed (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let truncate h ~bits =
  if bits >= 64 then h
  else Int64.logand h (Int64.sub (Int64.shift_left 1L bits) 1L)

(* ---------- hash63: the dedup fingerprint kernel ----------

   xxh64 proper cannot be computed in untagged [int]s — its 64-bit
   rotations pull bit 63 back in, and a native int only has 63. Dedup does
   not need xxh64 specifically (the paper stores hashes "no larger than 64
   bits" and always byte-verifies), so fingerprinting gets its own
   xxh-style kernel defined directly over the native int width: all
   arithmetic wraps mod 2^63 for free, and nothing boxes. Like xxh64 it
   runs four independent lanes over 32-byte stripes — the mix chain is
   multiply-latency-bound, so one serial lane would leave the multiplier
   idle between folds. Each fold consumes a whole 63-bit-truncated word:
   an unchecked load plus [Int64.to_int] on the fast path, eight byte
   loads assembled with shifts in [hash63_ref] (a shift past bit 62 wraps
   mod 2^63 exactly as the truncated load does, so the two agree bit for
   bit — the property suite keeps them that way). *)

(* little-endian view over Word's unchecked native-endian load; local so
   the non-flambda inliner folds it into the loops *)
let[@inline always] get64_le b i =
  if Sys.big_endian then Word.swap64 (Word.unsafe_get_64 b i) else Word.unsafe_get_64 b i

(* odd multipliers below 2^62 so the literals are portable native ints *)
let q1 = 0x2545F4914F6CDD1D
let q2 = 0x27220A95FE8DB6E5
let q3 = 0x165667B19E3779F9

(* fold one word into a lane (63-bit rotate + multiply) *)
let mix63 h w =
  let h = h lxor (w * q1) in
  let h = (h lsl 27) lor (h lsr 36) in
  h * q2

let finalize63 h =
  let h = (h lxor (h lsr 33)) * q1 in
  let h = (h lxor (h lsr 29)) * q3 in
  h lxor (h lsr 32)

(* merge the four lane states ahead of finalization *)
let merge63 h1 h2 h3 h4 =
  let a = h1 lxor ((h2 lsl 24) lor (h2 lsr 39)) in
  let b = h3 lxor ((h4 lsl 41) lor (h4 lsr 22)) in
  finalize63 ((a * q1) lxor ((b lsl 13) lor (b lsr 50)))

let[@purity.lint.hotpath] hash63 ?(seed = 0) buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Xxhash.hash63";
  let t0 = Kernel_stats.tick () in
  let stop = pos + len in
  let h1 = ref (seed + (len * q2) + q3)
  and h2 = ref ((seed lxor q1) + (len * q3) + q2)
  and h3 = ref (seed + (len * q1) + q2)
  and h4 = ref ((seed lxor q3) + (len * q2) + q1) in
  let i = ref pos in
  while !i + 32 <= stop do
    h1 := mix63 !h1 (Int64.to_int (get64_le buf !i));
    h2 := mix63 !h2 (Int64.to_int (get64_le buf (!i + 8)));
    h3 := mix63 !h3 (Int64.to_int (get64_le buf (!i + 16)));
    h4 := mix63 !h4 (Int64.to_int (get64_le buf (!i + 24)));
    i := !i + 32
  done;
  while !i + 8 <= stop do
    h1 := mix63 !h1 (Int64.to_int (get64_le buf !i));
    i := !i + 8
  done;
  if !i < stop then begin
    (* 1..7 trailing bytes as one partial word; len is already mixed in *)
    let v = ref 0 and shift = ref 0 in
    while !i < stop do
      v := !v lor (Bytes.get_uint8 buf !i lsl !shift);
      shift := !shift + 8;
      incr i
    done;
    h2 := mix63 !h2 !v
  end;
  Kernel_stats.tock Kernel_stats.fingerprint ~bytes:len ~t0;
  merge63 !h1 !h2 !h3 !h4

let hash63_ref ?(seed = 0) buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Xxhash.hash63_ref";
  let stop = pos + len in
  let word at =
    Bytes.get_uint8 buf at
    lor (Bytes.get_uint8 buf (at + 1) lsl 8)
    lor (Bytes.get_uint8 buf (at + 2) lsl 16)
    lor (Bytes.get_uint8 buf (at + 3) lsl 24)
    lor (Bytes.get_uint8 buf (at + 4) lsl 32)
    lor (Bytes.get_uint8 buf (at + 5) lsl 40)
    lor (Bytes.get_uint8 buf (at + 6) lsl 48)
    lor (Bytes.get_uint8 buf (at + 7) lsl 56)
  in
  let h1 = ref (seed + (len * q2) + q3)
  and h2 = ref ((seed lxor q1) + (len * q3) + q2)
  and h3 = ref (seed + (len * q1) + q2)
  and h4 = ref ((seed lxor q3) + (len * q2) + q1) in
  let i = ref pos in
  while !i + 32 <= stop do
    h1 := mix63 !h1 (word !i);
    h2 := mix63 !h2 (word (!i + 8));
    h3 := mix63 !h3 (word (!i + 16));
    h4 := mix63 !h4 (word (!i + 24));
    i := !i + 32
  done;
  while !i + 8 <= stop do
    h1 := mix63 !h1 (word !i);
    i := !i + 8
  done;
  if !i < stop then begin
    let v = ref 0 and shift = ref 0 in
    while !i < stop do
      v := !v lor (Bytes.get_uint8 buf !i lsl !shift);
      shift := !shift + 8;
      incr i
    done;
    h2 := mix63 !h2 !v
  end;
  merge63 !h1 !h2 !h3 !h4

let truncate_int h ~bits =
  if bits >= Sys.int_size then h else h land ((1 lsl bits) - 1)
