(* Exact sample sets. Percentiles are taken over every recorded sample
   (linear interpolation between closest ranks), not over the log
   buckets of Purity_util.Histogram, so a reported percentile moves with
   the data instead of snapping to a bucket bound. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 1024 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0.0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort Float.compare s;
  s

let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then 0.0
  else begin
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then s.(n - 1) else s.(i) +. ((r -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let percentile t p = percentile_sorted (sorted t) p

(* Samples strictly above the [p]th percentile: a tail percentile is only
   reported when at least ten samples lie beyond it. *)
let beyond t p =
  let s = sorted t in
  let v = percentile_sorted s p in
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 s

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.n - 1 do
    s := !s +. t.a.(i)
  done;
  !s

(* Mean of the samples at or below the [p]th percentile. *)
let mean_upto t p =
  let s = sorted t in
  let v = percentile_sorted s p in
  let sum = ref 0.0 and n = ref 0 in
  Array.iter
    (fun x ->
      if x <= v then begin
        sum := !sum +. x;
        incr n
      end)
    s;
  if !n = 0 then 0.0 else !sum /. float_of_int !n

let median_of l =
  let t = create () in
  List.iter (add t) l;
  percentile t 50.0

(* p50 of a registry histogram, interpolated inside the bucket that holds
   the median rank. The registry keeps only log buckets a few percent
   wide, so a bucket's lower edge is taken as 3% below its upper bound. *)
let hist_p50 (h : Purity_telemetry.Registry.hist_snapshot) =
  let rank = float_of_int h.h_count /. 2.0 in
  let rec go prev cum = function
    | [] -> prev
    | (hi, c) :: rest ->
      let cum' = cum + c in
      if float_of_int cum' >= rank && c > 0 then begin
        let lo = Float.max prev (hi *. 0.97) in
        lo +. ((hi -. lo) *. ((rank -. float_of_int cum) /. float_of_int c))
      end
      else go hi cum' rest
  in
  if h.h_count = 0 then 0.0 else go 0.0 0 h.h_buckets
