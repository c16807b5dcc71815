module Word = Purity_util.Word

(* little-endian views over Word's unchecked native-endian primitives;
   local so the non-flambda inliner folds them into the loops *)
let[@inline always] get64_le b i =
  if Sys.big_endian then Word.swap64 (Word.unsafe_get_64 b i) else Word.unsafe_get_64 b i

let[@inline always] set64_le b i v =
  Word.unsafe_set_64 b i (if Sys.big_endian then Word.swap64 v else v)

let poly = 0x11D

(* exp table doubled to avoid the mod 255 in mul's hot path. *)
let exp_table = Array.make 512 0
let log_table = Array.make 256 0

let () =
  let x = ref 1 in
  for i = 0 to 254 do
    exp_table.(i) <- !x;
    log_table.(!x) <- i;
    x := !x lsl 1;
    if !x land 0x100 <> 0 then x := !x lxor poly
  done;
  for i = 255 to 511 do
    exp_table.(i) <- exp_table.(i - 255)
  done

let add a b = a lxor b

let mul a b =
  if a = 0 || b = 0 then 0 else exp_table.(log_table.(a) + log_table.(b))

let div a b =
  if b = 0 then raise Division_by_zero
  else if a = 0 then 0
  else exp_table.(log_table.(a) - log_table.(b) + 255)

let inv a = div 1 a

let exp i =
  let i = ((i mod 255) + 255) mod 255 in
  exp_table.(i)

(* Per-coefficient product tables, built on first use and cached for the
   process lifetime (an RS code reuses the same few coefficients for
   every stripe, so each table is built once and then hit forever). This
   is the scalar stand-in for the SIMD low/high-nibble PSHUFB split
   tables (Plank et al., FAST '13): where SIMD looks up 16 nibbles in
   parallel, a 64-bit scalar core does best with one full-byte table
   lookup per byte, eight bytes per loaded word. Each coefficient keeps
   four copies of its product table pre-shifted by 0/8/16/24 bits, so
   assembling a 32-bit product half is three ORs with no shifts in the
   word loop. Worst case all 255 coefficients materialise: 255 * 4 * 256
   ints = 2 MiB; an RS code touches k + m of them. *)
let mul_tables : int array array array = Array.make 256 [||]

let[@purity.lint.coldpath] mul_table c =
  let t = Array.unsafe_get mul_tables c in
  if t != [||] then t
  else begin
    let t0 = Array.init 256 (fun x -> mul c x) in
    let t =
      [| t0;
         Array.map (fun v -> v lsl 8) t0;
         Array.map (fun v -> v lsl 16) t0;
         Array.map (fun v -> v lsl 24) t0 |]
    in
    mul_tables.(c) <- t;
    t
  end

let check_lengths name ~src ~dst =
  if Bytes.length dst <> Bytes.length src then
    invalid_arg (name ^ ": length mismatch")

(* XOR [c * src] into [dst], 8 bytes per step: load a 64-bit word
   (unchecked — the loop condition is the bounds proof), split it into
   two exact 32-bit halves (Int64.to_int would drop bit 63), build each
   product half from four pre-shifted table lookups, join the halves and
   XOR them into the destination word. All arithmetic after the loads is
   untagged [int]. *)
let[@purity.lint.hotpath] mul_slice c ~src ~dst =
  check_lengths "Gf256.mul_slice" ~src ~dst;
  let n = Bytes.length src in
  if c = 0 then () (* 0 * x = 0: XOR-ing nothing in is a no-op *)
  else if c = 1 then begin
    let t0 = Purity_util.Kernel_stats.tick () in
    let i = ref 0 in
    while !i + 8 <= n do
      set64_le dst !i (Int64.logxor (get64_le dst !i) (get64_le src !i));
      i := !i + 8
    done;
    while !i < n do
      Bytes.unsafe_set dst !i
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get dst !i) lxor Char.code (Bytes.unsafe_get src !i)));
      incr i
    done;
    Purity_util.Kernel_stats.(tock gf) ~bytes:n ~t0
  end
  else begin
    let t0 = Purity_util.Kernel_stats.tick () in
    let t = mul_table c in
    let ts0 = Array.unsafe_get t 0 in
    let ts8 = Array.unsafe_get t 1 in
    let ts16 = Array.unsafe_get t 2 in
    let ts24 = Array.unsafe_get t 3 in
    let i = ref 0 in
    while !i + 8 <= n do
      let s = get64_le src !i in
      let slo = Int64.to_int s land 0xFFFFFFFF in
      let shi = Int64.to_int (Int64.shift_right_logical s 32) land 0xFFFFFFFF in
      let plo =
        Array.unsafe_get ts0 (slo land 0xFF)
        lor Array.unsafe_get ts8 ((slo lsr 8) land 0xFF)
        lor Array.unsafe_get ts16 ((slo lsr 16) land 0xFF)
        lor Array.unsafe_get ts24 (slo lsr 24)
      in
      let phi =
        Array.unsafe_get ts0 (shi land 0xFF)
        lor Array.unsafe_get ts8 ((shi lsr 8) land 0xFF)
        lor Array.unsafe_get ts16 ((shi lsr 16) land 0xFF)
        lor Array.unsafe_get ts24 (shi lsr 24)
      in
      set64_le dst !i
        (Int64.logxor (get64_le dst !i)
           (Int64.logor (Int64.of_int plo) (Int64.shift_left (Int64.of_int phi) 32)));
      i := !i + 8
    done;
    while !i < n do
      let p = Array.unsafe_get ts0 (Char.code (Bytes.unsafe_get src !i)) in
      Bytes.unsafe_set dst !i
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get dst !i) lxor p));
      incr i
    done;
    Purity_util.Kernel_stats.(tock gf) ~bytes:n ~t0
  end

(* ---------- reference kernel (original implementation) ---------- *)

let mul_slice_ref c ~src ~dst =
  check_lengths "Gf256.mul_slice_ref" ~src ~dst;
  let n = Bytes.length src in
  if c = 1 then
    for i = 0 to n - 1 do
      Bytes.unsafe_set dst i
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get dst i) lxor Char.code (Bytes.unsafe_get src i)))
    done
  else if c <> 0 then begin
    let logc = log_table.(c) in
    for i = 0 to n - 1 do
      let s = Char.code (Bytes.unsafe_get src i) in
      if s <> 0 then begin
        let p = exp_table.(logc + log_table.(s)) in
        Bytes.unsafe_set dst i
          (Char.unsafe_chr (Char.code (Bytes.unsafe_get dst i) lxor p))
      end
    done
  end
