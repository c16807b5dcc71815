(* HDR-style bucketing: a sample v >= 1 is placed by (exponent, mantissa
   slice). We use [sub_bits] bits of sub-bucket resolution per power of two,
   giving relative error <= 2^-sub_bits. Values below 1 share bucket 0. *)

let sub_bits = 6
let sub_count = 1 lsl sub_bits
let max_exp = 62
let bucket_count = (max_exp + 1) * sub_count

type t = {
  buckets : int array;
  mutable total : int;
  mutable sum : float;
  mutable max_seen : float;
}

let create () =
  { buckets = Array.make bucket_count 0; total = 0; sum = 0.0; max_seen = 0.0 }

let index_of v =
  if v < 1.0 then 0
  else begin
    let iv = int_of_float v in
    let exp =
      (* position of the highest set bit *)
      let rec find e x = if x <= 1 then e else find (e + 1) (x lsr 1) in
      find 0 iv
    in
    if exp < sub_bits then iv (* small values get exact buckets *)
    else begin
      let shift = exp - sub_bits in
      let sub = (iv lsr shift) land (sub_count - 1) in
      ((exp - sub_bits + 1) * sub_count) + sub
    end
  end

(* Upper bound of the bucket containing index i: inverse of [index_of]. *)
let bound_of i =
  if i < sub_count then float_of_int i
  else begin
    let exp = (i / sub_count) + sub_bits - 1 in
    let sub = i mod sub_count in
    let shift = exp - sub_bits in
    float_of_int (((sub lor sub_count) lsl shift) lor ((1 lsl shift) - 1))
  end

let record t v =
  let v = if Float.is_nan v || v < 0.0 then 0.0 else v in
  let i = min (bucket_count - 1) (index_of v) in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum +. v;
  if v > t.max_seen then t.max_seen <- v

let count t = t.total
let mean t = if t.total = 0 then 0.0 else t.sum /. float_of_int t.total
let max_value t = t.max_seen

let percentile t p =
  if t.total = 0 then 0.0
  else begin
    let target =
      let x = int_of_float (ceil (p /. 100.0 *. float_of_int t.total)) in
      if x < 1 then 1 else min x t.total
    in
    let rec scan i acc =
      if i >= bucket_count then t.max_seen
      else begin
        let acc = acc + t.buckets.(i) in
        if acc >= target then Float.min (bound_of i) t.max_seen else scan (i + 1) acc
      end
    in
    scan 0 0
  end

let to_buckets t =
  let acc = ref [] in
  for i = bucket_count - 1 downto 0 do
    if t.buckets.(i) > 0 then acc := (bound_of i, t.buckets.(i)) :: !acc
  done;
  !acc

let clear t =
  Array.fill t.buckets 0 bucket_count 0;
  t.total <- 0;
  t.sum <- 0.0;
  t.max_seen <- 0.0

let pp_summary ppf t =
  Fmt.pf ppf "n=%d mean=%.1f p50=%.0f p99=%.0f p99.9=%.0f max=%.0f" t.total
    (mean t) (percentile t 50.0) (percentile t 99.0) (percentile t 99.9)
    t.max_seen
