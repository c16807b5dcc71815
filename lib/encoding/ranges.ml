(* Disjoint inclusive ranges, flattened into one sorted array
   [| lo0; hi0; lo1; hi1; ... |]. Invariant: hi_i + 1 < lo_(i+1) (gaps of
   at least one id, else they would have merged). A set is never mutated
   once built: an insertion copies the array, O(ranges). An elide table
   changes once per dropped medium and holds at most one range more than
   the live mediums (each gap is an id never elided), while membership,
   asked for every fact a merge, flatten or lookup meets, is a binary
   search that allocates nothing. *)

type t = int array

let empty = [||]
let range_count t = Array.length t / 2
let lo_of t i = t.(2 * i)
let hi_of t i = t.((2 * i) + 1)

(* The first range ending at or above [v]; [range_count t] if none. *)
let first_ending_from t v =
  let lo = ref 0 and hi = ref (range_count t) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if hi_of t mid < v then lo := mid + 1 else hi := mid
  done;
  !lo

let mem t v =
  let i = first_ending_from t v in
  i < range_count t && lo_of t i <= v

let add_range t ~lo ~hi =
  if lo > hi then invalid_arg "Ranges.add_range: lo > hi";
  (* ranges [i, j) overlap or touch [lo, hi] and coalesce with it: the
     gaps between ranges mean a later one touches the union only if it
     touches [lo, hi] itself *)
  let n = range_count t in
  let i = first_ending_from t (lo - 1) in
  let j = ref i in
  while !j < n && lo_of t !j <= hi + 1 do
    incr j
  done;
  let j = !j in
  let lo = if i < j then min lo (lo_of t i) else lo in
  let hi = if i < j then max hi (hi_of t (j - 1)) else hi in
  let out = Array.make (2 * (n - (j - i) + 1)) 0 in
  Array.blit t 0 out 0 (2 * i);
  out.(2 * i) <- lo;
  out.((2 * i) + 1) <- hi;
  Array.blit t (2 * j) out ((2 * i) + 2) (2 * (n - j));
  out

(* In ascending order. *)
let fold f t init =
  let acc = ref init in
  for i = 0 to range_count t - 1 do
    acc := f ~lo:(lo_of t i) ~hi:(hi_of t i) !acc
  done;
  !acc

let union a b = fold (fun ~lo ~hi acc -> add_range acc ~lo ~hi) a b

let encode t =
  let buf = Buffer.create 32 in
  Purity_util.Varint.write buf (range_count t);
  ignore
    (fold
       (fun ~lo ~hi prev ->
         Purity_util.Varint.write buf (lo - prev);
         Purity_util.Varint.write buf (hi - lo);
         hi)
       t 0);
  Buffer.contents buf

(* The parse behind [decode]; raises [Invalid_argument] on the first
   malformed byte. Each range is coded against the previous one's end,
   so after the first a start delta below 2 would overlap or touch it
   (they would have merged), and a sum that wraps past max_int is no
   range at all. *)
let body buf =
  (* the bounds gather in a list, newest first: a count read from the
     bytes sizes nothing before the bytes prove it *)
  let rec ranges n p prev acc =
    if n = 0 then (Array.of_list (List.rev acc), p)
    else
      let dlo, p = Purity_util.Varint.read buf ~pos:p in
      let dlen, p = Purity_util.Varint.read buf ~pos:p in
      let lo = prev + dlo in
      let hi = lo + dlen in
      if (dlo < 2 && not (List.is_empty acc)) || lo < prev || hi < lo then
        invalid_arg "Ranges.decode: not canonical";
      ranges (n - 1) p hi (hi :: lo :: acc)
  in
  let count, p = Purity_util.Varint.read buf ~pos:0 in
  ranges count p 0 []

(* Whatever decodes re-encodes to [s]. *)
let[@purity.lint.recovery_root] [@purity.lint.allow
     "unsafe: decode-side view of an immutable encoded range set"] decode s =
  match body (Bytes.unsafe_of_string s) with
  | t, p when p = String.length s -> Some t
  | _ | exception Invalid_argument _ -> None
