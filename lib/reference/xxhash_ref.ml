(* The byte-at-a-time form of Purity_util.Xxhash.hash63, the reference its
   word kernel is checked against bit for bit: each 63-bit word is
   assembled from eight byte loads with shifts (a shift past bit 62 wraps
   mod 2^63 exactly as the kernel's truncated load does). The lane
   constants and mix steps restate the kernel's definition. *)

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

let hash63 ?(seed = 0) buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Xxhash_ref.hash63";
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
