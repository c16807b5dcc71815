(* Bloom filter over string keys, used to fence metadata-pyramid patches
   (paper §4.9: metadata pages must be cheap to consult — most lookups
   should touch only the patches that can actually contain the key).

   Double hashing (Kirsch–Mitzenmacher): two xxhash64 passes with
   different seeds generate all k probe positions, so a membership test
   costs two hashes regardless of k and allocates nothing. *)

type t = {
  bits : Bytes.t;
  nbits : int;
  k : int; (* probes per key *)
  mutable entries : int;
}

let seed2 = 0x9E3779B97F4A7C15L

let[@purity.lint.allow
     "raises: create's size guard: inputs derive from in-memory fact counts, \
      not decoded data"] create ?(fp_rate = 0.01) ~expected () =
  if fp_rate <= 0. || fp_rate >= 1. then invalid_arg "Bloom.create: fp_rate";
  let n = max 1 expected in
  (* optimal bits: m = -n ln p / (ln 2)^2; optimal probes: k = m/n ln 2 *)
  let m = int_of_float (ceil (-.float_of_int n *. log fp_rate /. (log 2. *. log 2.))) in
  let nbytes = max 8 ((m + 7) / 8) in
  let nbits = nbytes * 8 in
  let k =
    let ideal = Float.round (float_of_int nbits /. float_of_int n *. log 2.) in
    min 16 (max 1 (int_of_float ideal))
  in
  { bits = Bytes.make nbytes '\000'; nbits; k; entries = 0 }

let set_bit bits i =
  let byte = i lsr 3 and bit = i land 7 in
  Bytes.unsafe_set bits byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits byte) lor (1 lsl bit)))

let get_bit bits i =
  let byte = i lsr 3 and bit = i land 7 in
  Char.code (Bytes.unsafe_get bits byte) land (1 lsl bit) <> 0

let hash_pair key =
  let b = Bytes.unsafe_of_string key in
  let len = String.length key in
  let h1 = Int64.to_int (Xxhash.hash b ~pos:0 ~len) land max_int in
  let h2 = Int64.to_int (Xxhash.hash ~seed:seed2 b ~pos:0 ~len) land max_int in
  (h1, h2)

let add_hashed t (h1, h2) =
  let m = t.nbits in
  let step = 1 + (h2 mod (m - 1)) in
  let idx = ref (h1 mod m) in
  for _ = 1 to t.k do
    set_bit t.bits !idx;
    idx := !idx + step;
    if !idx >= m then idx := !idx - m
  done;
  t.entries <- t.entries + 1

let add t key = add_hashed t (hash_pair key)

let mem_hashed t (h1, h2) =
  let m = t.nbits in
  let step = 1 + (h2 mod (m - 1)) in
  let idx = ref (h1 mod m) in
  let hit = ref true in
  (try
     for _ = 1 to t.k do
       if not (get_bit t.bits !idx) then raise Exit;
       idx := !idx + step;
       if !idx >= m then idx := !idx - m
     done
   with Exit -> hit := false);
  !hit

let mem t key = mem_hashed t (hash_pair key)

let entries t = t.entries

let fill_ratio t =
  let set = ref 0 in
  Bytes.iter
    (fun c ->
      let b = Char.code c in
      for i = 0 to 7 do
        if b land (1 lsl i) <> 0 then incr set
      done)
    t.bits;
  float_of_int !set /. float_of_int t.nbits
