type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = seed }

(* Finalizer from the SplitMix64 reference implementation. *)
let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = next_int64 t in
  { state = mix seed }

let int t bound =
  assert (bound > 0);
  (* shift by 2: a 62-bit value always fits in OCaml's 63-bit positive int *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let float t bound =
  (* 53 high bits -> uniform float in [0,1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Zipfian sampling after Gray et al., "Quickly generating billion-record
   synthetic databases"; constants computed per call site would be wasteful,
   so we memoise on (n, theta). *)
let zipf_cache : (int * float, float * float * float) Hashtbl.t = Hashtbl.create 7

let zipf_constants n theta =
  match Hashtbl.find_opt zipf_cache (n, theta) with
  | Some c -> c
  | None ->
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
    let c = (alpha, eta, !zetan) in
    Hashtbl.replace zipf_cache (n, theta) c;
    c

let zipf t ~n ~theta =
  assert (n > 0);
  if theta <= 0.0 then int t n
  else begin
    let alpha, eta, zetan = zipf_constants n theta in
    let u = float t 1.0 in
    let uz = u *. zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. (0.5 ** theta) then 1
    else
      let rank =
        Float.of_int n *. (((eta *. u) -. eta +. 1.0) ** alpha)
      in
      min (n - 1) (int_of_float rank)
  end

let fill_bytes t buf ~pos ~len =
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    Bytes.set_int64_le buf !i (next_int64 t);
    i := !i + 8
  done;
  if !i < stop then begin
    let v = ref (next_int64 t) in
    while !i < stop do
      Bytes.set_uint8 buf !i (Int64.to_int (Int64.logand !v 0xFFL));
      v := Int64.shift_right_logical !v 8;
      incr i
    done
  end

let bytes t len =
  let buf = Bytes.create len in
  fill_bytes t buf ~pos:0 ~len;
  buf
