(* CRC-32C with the Castagnoli polynomial (reflected 0x82F63B78).

   [update] is slicing-by-8 over [Bytes.get_int64_le], all arithmetic in
   untagged [int] (the 64-bit word is split into two exact 32-bit halves,
   so no [Int32] boxing and no lost bit 63). Eight bytes cost eight table
   lookups and one load. The original byte-at-a-time [Int32] kernel, the
   reference it is property-tested against, lives in purity.reference.

   Tables are built eagerly at module init: [lazy] put a force (and a
   branch) on every call of a kernel that runs on every stored byte. *)

(* table.(0) is the classic byte table; table.(k).(n) extends it so that
   table.(k).(n) = crc of byte n followed by k zero bytes — the identity
   slicing-by-8 needs to consume 8 bytes per step. *)
let table =
  let t = Array.make_matrix 8 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0x82F63B78 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(0).(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(k - 1).(n) in
      t.(k).(n) <- t.(0).(prev land 0xFF) lxor (prev lsr 8)
    done
  done;
  t

(* little-endian view over Word's unchecked native-endian load; local so
   the non-flambda inliner folds it into the loop *)
let[@inline always] get64_le b i =
  if Sys.big_endian then Word.swap64 (Word.unsafe_get_64 b i) else Word.unsafe_get_64 b i

let t0 = table.(0)
let t1 = table.(1)
let t2 = table.(2)
let t3 = table.(3)
let t4 = table.(4)
let t5 = table.(5)
let t6 = table.(6)
let t7 = table.(7)

let[@purity.lint.hotpath] update crc buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Crc32c.update";
  let started = Kernel_stats.tick () in
  let stop = pos + len in
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  let i = ref pos in
  while !i + 8 <= stop do
    (* unchecked load: the loop condition is the bounds proof *)
    let w = get64_le buf !i in
    let lo = Int64.to_int w land 0xFFFFFFFF lxor !c in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) land 0xFFFFFFFF in
    c :=
      Array.unsafe_get t7 (lo land 0xFF)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xFF)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xFF)
      lxor Array.unsafe_get t4 (lo lsr 24)
      lxor Array.unsafe_get t3 (hi land 0xFF)
      lxor Array.unsafe_get t2 ((hi lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((hi lsr 16) land 0xFF)
      lxor Array.unsafe_get t0 (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := Array.unsafe_get t0 ((!c lxor Bytes.get_uint8 buf !i) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  Kernel_stats.tock Kernel_stats.crc ~bytes:len ~t0:started;
  Int32.of_int (!c lxor 0xFFFFFFFF)

(* digest/digest_string are thin wrappers so every caller funnels through
   the one combine path above. *)
let digest buf ~pos ~len = update 0l buf ~pos ~len

let digest_string s =
  update 0l (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
