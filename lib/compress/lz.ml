module Kernel_stats = Purity_util.Kernel_stats
module Word = Purity_util.Word

(* little-endian views over Word's unchecked native-endian primitives;
   local so the non-flambda inliner folds them into the loops *)
let[@inline always] get64_le b i =
  if Sys.big_endian then Word.swap64 (Word.unsafe_get_64 b i) else Word.unsafe_get_64 b i

let[@inline always] set64_le b i v =
  Word.unsafe_set_64 b i (if Sys.big_endian then Word.swap64 v else v)

let[@inline always] get32_le b i =
  if Sys.big_endian then Word.swap32 (Word.unsafe_get_32 b i) else Word.unsafe_get_32 b i

let min_match = 4
let window = 65535
let hash_bits = 14
let hash_size = 1 lsl hash_bits

(* LZ4's skip trigger: a failed probe advances the scan
   [1 + (misses lsr skip_trigger)] bytes, [misses] counting failures since
   the last match — a step of 1 until a whole 512-byte sector has missed.
   A constant: it fixes the output bytes that [compress_ref] pins. *)
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

(* Same hash from one unchecked 32-bit load (callers stay >= 4 bytes from
   the end); [land 0xFFFFFFFF] recovers the exact unsigned value [hash4]
   assembles, so the products match. *)
let hash4w b i = hmul (Int32.to_int (get32_le b i) land 0xFFFFFFFF)

(* Do bytes [p..p+7] equal bytes [q..q+7]? (bit 63 via the shifted half;
   [Int64.to_int] alone would drop it) *)
let same8 b p q =
  let x = Int64.logxor (get64_le b p) (get64_le b q) in
  Int64.to_int x = 0 && Int64.to_int (Int64.shift_right_logical x 32) = 0

(* ---------- scratch: reusable compressor state ----------

   The hash table is epoch-stamped — entry = (epoch << 32) | position,
   and a stale epoch reads as "no candidate" — so starting a new
   compression is one integer bump instead of a 128 KiB clear. The
   output buffer is sized for the format's worst case and reused, so a
   caller holding a scratch compresses with zero allocation. *)

type scratch = {
  table : int array; (* hash_size entries: (epoch << 32) | position *)
  mutable epoch : int;
  mutable out : Bytes.t;
}

(* worst case: one terminal sequence of n literals *)
let worst_size n = n + (n / 255) + 16

let create_scratch () =
  { table = Array.make hash_size 0; epoch = 0; out = Bytes.create (worst_size 4096) }

let scratch_bytes sc = sc.out

let next_epoch sc =
  (* 30 epoch bits above 32 position bits; on the (billionth-call) wrap,
     fall back to clearing the table once *)
  if sc.epoch >= 0x3FFFFFFF then begin
    Array.fill sc.table 0 hash_size 0;
    sc.epoch <- 1
  end
  else sc.epoch <- sc.epoch + 1

(* Doubling growth of the scratch's output buffer: runs only while the
   arena warms up to the largest input seen, then never again — the
   steady-state compress loop reuses the same bytes. *)
let[@purity.lint.coldpath] ensure_out sc n =
  if Bytes.length sc.out < worst_size n then sc.out <- Bytes.create (worst_size n)

(* 15 in a nibble chains 255-valued extension bytes, LZ4-style. The
   emitter writes unchecked: [out] is sized to [worst_size] of the input,
   which bounds every sequence the loop can produce, and every value
   stored is masked or nibble-sized, so [unsafe_chr] cannot overflow. *)
let put_extension out op n =
  let rest = ref (n - 15) in
  while !rest >= 255 do
    Bytes.unsafe_set out !op '\255';
    incr op;
    rest := !rest - 255
  done;
  Bytes.unsafe_set out !op (Char.unsafe_chr !rest);
  incr op

(* One sequence: token, literal extensions, literals, [offset, match
   extensions]. [match_len] = 0 means a terminal literals-only sequence. *)
let put_sequence out op src lit_start lit_len match_off match_len =
  let lit_nib = if lit_len < 15 then lit_len else 15 in
  let match_base = if match_len = 0 then 0 else match_len - min_match in
  let match_nib = if match_base < 15 then match_base else 15 in
  Bytes.unsafe_set out !op (Char.unsafe_chr ((lit_nib lsl 4) lor match_nib));
  incr op;
  if lit_len >= 15 then put_extension out op lit_len;
  Bytes.blit_string src lit_start out !op lit_len;
  op := !op + lit_len;
  if match_len > 0 then begin
    Bytes.unsafe_set out !op (Char.unsafe_chr (match_off land 0xFF));
    incr op;
    Bytes.unsafe_set out !op (Char.unsafe_chr ((match_off lsr 8) land 0xFF));
    incr op;
    if match_base >= 15 then put_extension out op match_base
  end

(* Greedy LZ77, word-at-a-time: candidate probe is one 32-bit compare,
   match extension runs 8 bytes per compare (the byte loop afterwards
   pins down the exact mismatch), sequences are written straight into the
   scratch buffer. Emits byte-identical output to [compress_ref] — same
   hash, same candidate policy, same miss-streak step, same in-match
   index seeding — which the property suite checks. *)
let[@purity.lint.hotpath] compress_into sc s =
  let n = String.length s in
  ensure_out sc n;
  let t0 = Kernel_stats.tick () in
  let out = sc.out in
  let op = ref 0 in
  if n < min_match + 1 then put_sequence out op s 0 n 0 0
  else begin
    next_epoch sc;
    let table = sc.table in
    let ep = sc.epoch in
    let eptag = ep lsl 32 in
    let b = Bytes.unsafe_of_string s in
    let anchor = ref 0 in
    let i = ref 0 in
    let misses = ref 0 in
    let limit = n - min_match in
    while !i <= limit do
      let h = hash4w b !i in
      let e = Array.unsafe_get table h in
      let cand = if e lsr 32 = ep then e land 0xFFFFFFFF else -1 in
      Array.unsafe_set table h (eptag lor !i);
      if
        cand >= 0
        && !i - cand <= window
        && Int32.to_int (get32_le b cand) = Int32.to_int (get32_le b !i)
      then begin
        let len = ref min_match in
        while !i + !len + 8 <= n && same8 b (cand + !len) (!i + !len) do
          len := !len + 8
        done;
        while
          !i + !len < n
          && Bytes.unsafe_get b (cand + !len) = Bytes.unsafe_get b (!i + !len)
        do
          incr len
        done;
        put_sequence out op s !anchor (!i - !anchor) (!i - cand) !len;
        (* Index positions inside the match so later repeats are found:
           hashes at j and j+2 share the 8 bytes at j, so one word load
           feeds both (the pair stores in the same order as the stride-2
           loop, so colliding slots end with the same winner). *)
        let stop = min (!i + !len) limit in
        let j = ref (!i + 1) in
        let pair_stop = min stop (n - 6) in
        while !j + 2 < pair_stop do
          let w = Int64.to_int (get64_le b !j) in
          Array.unsafe_set table (hmul (w land 0xFFFFFFFF)) (eptag lor !j);
          Array.unsafe_set table
            (hmul ((w lsr 16) land 0xFFFFFFFF))
            (eptag lor (!j + 2));
          j := !j + 4
        done;
        while !j < stop do
          Array.unsafe_set table (hash4w b !j) (eptag lor !j);
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
    put_sequence out op s !anchor (n - !anchor) 0 0
  end;
  Kernel_stats.tock Kernel_stats.lz_compress ~bytes:n ~t0;
  !op

(* module-wide scratch for callers that don't hold their own *)
let shared_scratch = create_scratch ()

let compress ?(scratch = shared_scratch) s =
  let len = compress_into scratch s in
  Bytes.sub_string scratch.out 0 len

let decompress s ~expected_len =
  let n = String.length s in
  if expected_len < 0 then invalid_arg "Lz.decompress: negative length";
  let t0 = Kernel_stats.tick () in
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
      (* explicit sequencing: argument evaluation order is unspecified *)
      let lo = read_byte () in
      let hi = read_byte () in
      let off = lo lor (hi lsl 8) in
      if off = 0 || off > !opos then fail "bad offset";
      let match_len = read_ext (token land 0xF) + min_match in
      if !opos + match_len > expected_len then fail "output overflow";
      if off >= 8 then begin
        (* non-overlapping at word granularity: copy 8 bytes per step
           (source stays >= 8 behind the write cursor throughout; the
           overflow check above bounds [opos + 8] while [rest >= 8], so
           the unchecked words stay inside [out]) *)
        let src = ref (!opos - off) in
        let rest = ref match_len in
        while !rest >= 8 do
          set64_le out !opos (get64_le out !src);
          opos := !opos + 8;
          src := !src + 8;
          rest := !rest - 8
        done;
        for _ = 1 to !rest do
          Bytes.unsafe_set out !opos (Bytes.unsafe_get out !src);
          incr src;
          incr opos
        done
      end
      else begin
        (* Byte-at-a-time copy: overlapping source/dest is the RLE case. *)
        let src = ref (!opos - off) in
        for _ = 1 to match_len do
          Bytes.unsafe_set out !opos (Bytes.unsafe_get out !src);
          incr src;
          incr opos
        done
      end
    end
  done;
  if !opos <> expected_len then fail "length mismatch";
  Kernel_stats.tock Kernel_stats.lz_decompress ~bytes:expected_len ~t0;
  Bytes.unsafe_to_string out

let ratio s =
  if String.length s = 0 then 1.0
  else float_of_int (String.length s) /. float_of_int (String.length (compress s))

(* ---------- reference kernels (original implementation) ---------- *)

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

let compress_ref s =
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

let decompress_ref s ~expected_len =
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
