(* The 64-bit state lives in an 8-byte buffer, read and written with
   [Bytes.get/set_int64_le]: those compile to plain loads and stores of an
   unboxed int64, where a mutable [int64] record field would box a fresh
   value on every write. The draws below inline [next] so the state and
   the mixed output stay in registers; none of them allocates. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create ~seed = of_state seed

(* Finalizer from the SplitMix64 reference implementation. *)
let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let next_int64 t = next t

let split t = of_state (mix (next t))

let skip t n =
  Bytes.set_int64_le t 0
    (Int64.add (Bytes.get_int64_le t 0) (Int64.mul (Int64.of_int n) golden_gamma))

let int t bound =
  assert (bound > 0);
  (* shift by 2: a 62-bit value always fits in OCaml's 63-bit positive int *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

(* The 53 high bits of a draw: [float] scales them into [0, 1). *)
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let two_pow_53 = 9007199254740992.0

let[@inline] float t bound = Float.of_int (bits53 t) /. two_pow_53 *. bound

let bool t = Int64.logand (next t) 1L = 1L

(* [float t 1.0] is exactly [bits53 / 2^53], and [p *. 2^53] is exact
   (scaling by a power of two), so [float t 1.0 < p] holds exactly when
   the integer [bits53] is below [ceil (p *. 2^53)]. *)
type odds = int

let odds p =
  let x = p *. two_pow_53 in
  if not (x > 0.0) then 0 (* p <= 0, or nan: never *)
  else if x >= two_pow_53 then 1 lsl 53 (* p >= 1: always *)
  else int_of_float (Float.ceil x)

let hit t threshold = bits53 t < threshold

(* Zipfian sampling after Gray et al., "Quickly generating billion-record
   synthetic databases"; constants computed per call site would be wasteful,
   so we memoise on (n, theta). A handful of (n, theta) pairs exist per
   run, so the memo is a list searched by field compare: a lookup builds
   no key and no option. *)
type zipf_constants = { zn : int; ztheta : float; alpha : float; eta : float; zetan : float }

let zipf_memo : zipf_constants list ref = ref []

let rec zipf_constants n theta = function
  | c :: rest -> if c.zn = n && Float.equal c.ztheta theta then c else zipf_constants n theta rest
  | [] ->
    let zetan = ref 0.0 in
    for i = 1 to n do
      zetan := !zetan +. (1.0 /. (Float.of_int i ** theta))
    done;
    let zeta2 = 1.0 +. (1.0 /. (2.0 ** theta)) in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. ((2.0 /. Float.of_int n) ** (1.0 -. theta)))
      /. (1.0 -. (zeta2 /. !zetan))
    in
    let c = { zn = n; ztheta = theta; alpha; eta; zetan = !zetan } in
    zipf_memo := c :: !zipf_memo;
    c

let zipf t ~n ~theta =
  assert (n > 0);
  if theta <= 0.0 then int t n
  else begin
    let c = zipf_constants n theta !zipf_memo in
    let u = float t 1.0 in
    let uz = u *. c.zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. (0.5 ** theta) then 1
    else
      let rank = Float.of_int n *. (((c.eta *. u) -. c.eta +. 1.0) ** c.alpha) in
      min (n - 1) (int_of_float rank)
  end

let fill_bytes t buf ~pos ~len =
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    Bytes.set_int64_le buf !i (next t);
    i := !i + 8
  done;
  if !i < stop then begin
    (* the low bytes of one more draw, least significant first *)
    let v = next t in
    for j = 0 to stop - !i - 1 do
      Bytes.set_uint8 buf (!i + j)
        (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * j)) 0xFFL))
    done
  end

let bytes t len =
  let buf = Bytes.create len in
  fill_bytes t buf ~pos:0 ~len;
  buf
