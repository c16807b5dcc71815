(* Systematic RS: take a (k+m) x k Vandermonde matrix (any k rows linearly
   independent), normalise so the top k x k block is the identity; the
   bottom m rows become the parity-generation coefficients. Decoding
   inverts the k x k matrix formed by the rows of k surviving shards. *)

type t = {
  k : int;
  m : int;
  matrix : int array array; (* (k+m) x k; rows 0..k-1 are the identity *)
}

let k t = t.k
let m t = t.m

let matrix_mul a b =
  let n = Array.length a and p = Array.length b.(0) in
  let q = Array.length b in
  Array.init n (fun i ->
      Array.init p (fun j ->
          let acc = ref 0 in
          for x = 0 to q - 1 do
            acc := Gf256.add !acc (Gf256.mul a.(i).(x) b.(x).(j))
          done;
          !acc))

(* Gauss-Jordan inversion over GF(2^8). *)
let matrix_invert m0 =
  let n = Array.length m0 in
  let a = Array.map Array.copy m0 in
  let inv = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1 else 0)) in
  for col = 0 to n - 1 do
    (* find pivot *)
    let pivot = ref (-1) in
    for r = col to n - 1 do
      if !pivot < 0 && a.(r).(col) <> 0 then pivot := r
    done;
    if !pivot < 0 then invalid_arg "Reed_solomon: singular matrix";
    if !pivot <> col then begin
      let tmp = a.(col) in
      a.(col) <- a.(!pivot);
      a.(!pivot) <- tmp;
      let tmp = inv.(col) in
      inv.(col) <- inv.(!pivot);
      inv.(!pivot) <- tmp
    end;
    let scale = Gf256.inv a.(col).(col) in
    for j = 0 to n - 1 do
      a.(col).(j) <- Gf256.mul a.(col).(j) scale;
      inv.(col).(j) <- Gf256.mul inv.(col).(j) scale
    done;
    for r = 0 to n - 1 do
      if r <> col && a.(r).(col) <> 0 then begin
        let factor = a.(r).(col) in
        for j = 0 to n - 1 do
          a.(r).(j) <- Gf256.add a.(r).(j) (Gf256.mul factor a.(col).(j));
          inv.(r).(j) <- Gf256.add inv.(r).(j) (Gf256.mul factor inv.(col).(j))
        done
      end
    done
  done;
  inv

let create ~k ~m =
  if k <= 0 || m <= 0 || k + m > 255 then invalid_arg "Reed_solomon.create";
  let vandermonde =
    Array.init (k + m) (fun i -> Array.init k (fun j -> Gf256.exp (i * j)))
  in
  let top = Array.sub vandermonde 0 k in
  let top_inv = matrix_invert top in
  { k; m; matrix = matrix_mul vandermonde top_inv }

let check_shard_sizes shards =
  let size = ref (-1) in
  Array.iter
    (fun s ->
      let n = Bytes.length s in
      if !size < 0 then size := n
      else if n <> !size then invalid_arg "Reed_solomon: unequal shard sizes")
    shards;
  !size

(* rows: coefficient rows, inputs: matching shards -> outputs per row.
   Input-major loop order: each source shard is streamed once while it is
   cache-resident and folded into every output row, instead of re-reading
   all k inputs per output. XOR accumulation commutes, so the result is
   identical to the row-major order. *)
let apply_rows rows inputs size =
  let outs = Array.map (fun _ -> Bytes.make size '\000') rows in
  Array.iteri
    (fun j src ->
      Array.iteri (fun i row -> Gf256.mul_slice row.(j) ~src ~dst:outs.(i)) rows)
    inputs;
  outs

let encode t data =
  if Array.length data <> t.k then invalid_arg "Reed_solomon.encode: need k shards";
  let size = check_shard_sizes data in
  let t0 = Purity_util.Kernel_stats.tick () in
  let parity = Array.init t.m (fun _ -> Bytes.make size '\000') in
  (* one pass over the data shards: shard j feeds all m parity rows
     before the next shard is touched; the per-coefficient product
     tables inside [Gf256.mul_slice] are cached across stripes *)
  for j = 0 to t.k - 1 do
    let src = data.(j) in
    for i = 0 to t.m - 1 do
      Gf256.mul_slice t.matrix.(t.k + i).(j) ~src ~dst:parity.(i)
    done
  done;
  Purity_util.Kernel_stats.(tock rs) ~bytes:(t.k * size) ~t0;
  parity

(* The original row-major encode over the byte-at-a-time multiply, kept
   as the reference [encode] is property-tested against. *)
let encode_ref t data =
  if Array.length data <> t.k then invalid_arg "Reed_solomon.encode: need k shards";
  let size = check_shard_sizes data in
  Array.init t.m (fun i ->
      let out = Bytes.make size '\000' in
      Array.iteri
        (fun j src -> Gf256.mul_slice_ref t.matrix.(t.k + i).(j) ~src ~dst:out)
        data;
      out)

(* The first k present shards, with their indices: the survivors both
   decoders solve from. *)
let survivors t shards =
  if Array.length shards <> t.k + t.m then
    invalid_arg "Reed_solomon.decode: need k+m shard slots";
  let chosen = Array.make t.k 0 and found = ref 0 in
  Array.iteri
    (fun j s ->
      if Option.is_some s && !found < t.k then begin
        chosen.(!found) <- j;
        incr found
      end)
    shards;
  if !found < t.k then invalid_arg "Reed_solomon.decode: too many erasures";
  (chosen, Array.map (fun j -> Option.get shards.(j)) chosen)

(* The survivors are the k data shards exactly when the last one is
   shard k-1; then the inverse is the identity and nothing is solved. *)
let all_data t chosen = chosen.(t.k - 1) = t.k - 1

let invert_survivors t chosen = matrix_invert (Array.map (fun j -> t.matrix.(j)) chosen)

let decode t shards =
  let chosen, srcs = survivors t shards in
  if all_data t chosen then srcs
  else apply_rows (invert_survivors t chosen) srcs (check_shard_sizes srcs)

(* One shard from the survivors: the target's coefficient row over them,
   then k multiply-accumulates. A data target's row is its row of the
   inverted survivor matrix; a parity target's is its encoding row times
   that inverse. *)
let reconstruct_shard t shards i =
  if i < 0 || i >= t.k + t.m then invalid_arg "Reed_solomon.reconstruct_shard";
  let chosen, srcs = survivors t shards in
  let size = check_shard_sizes srcs in
  let row =
    if all_data t chosen then t.matrix.(i)
    else begin
      let inv = invert_survivors t chosen in
      if i < t.k then inv.(i) else (matrix_mul [| t.matrix.(i) |] inv).(0)
    end
  in
  let out = Bytes.make size '\000' in
  Array.iteri (fun j src -> Gf256.mul_slice row.(j) ~src ~dst:out) srcs;
  out
