module Xxhash = Purity_util.Xxhash
module Lru = Purity_util.Lru
module Itbl = Purity_util.Keytbl.Int
module Registry = Purity_telemetry.Registry

let block_size = 512

type source = { write_id : int; block : int }
type hit = { at_block : int; src : source; run_blocks : int }

type config = { hash_bits : int; record_every : int; window_writes : int; min_run : int }

let default_config = { hash_bits = 48; record_every = 8; window_writes = 4096; min_run = 1 }

type t = {
  cfg : config;
  index : source list Itbl.t; (* truncated hash -> recorded anchors *)
  window : string Lru.t; (* write_id -> payload, the recency window *)
  mutable next_write_id : int;
  registered_writes : Registry.counter;
  recorded_hashes : Registry.counter;
  lookups : Registry.counter;
  hash_hits : Registry.counter;
  verified_hits : Registry.counter;
  false_positives : Registry.counter; (* hash matched, bytes differed *)
  duplicate_blocks : Registry.counter; (* blocks covered by returned runs *)
}

let create ?(config = default_config) () =
  {
    cfg = config;
    index = Itbl.create 4096;
    window = Lru.create ~capacity:config.window_writes;
    next_write_id = 0;
    registered_writes = Registry.cell ();
    recorded_hashes = Registry.cell ();
    lookups = Registry.cell ();
    hash_hits = Registry.cell ();
    verified_hits = Registry.cell ();
    false_positives = Registry.cell ();
    duplicate_blocks = Registry.cell ();
  }

let register_telemetry t reg =
  List.iter
    (fun (name, c) -> Registry.attach_counter reg ("dedup/" ^ name) c)
    [
      ("registered_writes", t.registered_writes);
      ("recorded_hashes", t.recorded_hashes);
      ("lookups", t.lookups);
      ("hash_hits", t.hash_hits);
      ("verified_hits", t.verified_hits);
      ("false_positives", t.false_positives);
      ("duplicate_blocks", t.duplicate_blocks);
    ]

(* Unboxed fingerprint: hash63 probes the index with a plain [int] key,
   so the hot register/lookup loop never boxes an [int64]. Collisions are
   verified away byte-wise below, exactly as the paper requires of its
   <= 64-bit hashes (§4.7). *)
let[@purity.lint.allow
      "unsafe: read-only view of an immutable payload string; pos/len are \
       bounds-checked by the caller's block arithmetic"] block_hash t data block =
  let h =
    Xxhash.hash63 (Bytes.unsafe_of_string data) ~pos:(block * block_size) ~len:block_size
  in
  Xxhash.truncate_int h ~bits:t.cfg.hash_bits

let blocks_of data = String.length data / block_size

let register t data =
  let id = t.next_write_id in
  t.next_write_id <- id + 1;
  Lru.add t.window id data;
  let n = blocks_of data in
  let b = ref 0 in
  while !b < n do
    let h = block_hash t data !b in
    let prev = Option.value ~default:[] (Itbl.find_opt t.index h) in
    (* keep the anchor list short: newest few only *)
    let entry = { write_id = id; block = !b } in
    Itbl.replace t.index h (entry :: (if List.length prev > 3 then [] else prev));
    Registry.incr t.recorded_hashes;
    b := !b + t.cfg.record_every
  done;
  Registry.incr t.registered_writes;
  id

let forget t ~write_id = Lru.remove t.window write_id

(* Word-wise verify: 512-byte blocks compare as 64 aligned word loads.
   The XOR of the two words is tested through its two 32-bit halves —
   [Int64.to_int] alone would drop bit 63. *)
let[@purity.lint.allow
      "unsafe: read-only views for the word-wise compare; the guard above \
       bounds b2 and callers bound b1"] blocks_equal data b1 src_data b2 =
  (b2 + 1) * block_size <= String.length src_data
  &&
  let a = Bytes.unsafe_of_string data and b = Bytes.unsafe_of_string src_data in
  let pa = b1 * block_size and pb = b2 * block_size in
  let i = ref 0 in
  let eq = ref true in
  while !eq && !i < block_size do
    let x = Int64.logxor (Bytes.get_int64_le a (pa + !i)) (Bytes.get_int64_le b (pb + !i)) in
    if Int64.to_int x <> 0 || Int64.to_int (Int64.shift_right_logical x 32) <> 0 then
      eq := false;
    i := !i + 8
  done;
  !eq

(* Extend a verified anchor match forwards and backwards. *)
let extend data nblocks ~at ~(src : source) src_data =
  let src_blocks = blocks_of src_data in
  let back = ref 0 in
  while
    at - !back - 1 >= 0
    && src.block - !back - 1 >= 0
    && blocks_equal data (at - !back - 1) src_data (src.block - !back - 1)
  do
    incr back
  done;
  let fwd = ref 0 in
  while
    at + !fwd + 1 < nblocks
    && src.block + !fwd + 1 < src_blocks
    && blocks_equal data (at + !fwd + 1) src_data (src.block + !fwd + 1)
  do
    incr fwd
  done;
  {
    at_block = at - !back;
    src = { src with block = src.block - !back };
    run_blocks = !back + 1 + !fwd;
  }

let find_duplicates t data =
  let n = blocks_of data in
  let hits = ref [] in
  let covered_until = ref 0 in
  for b = 0 to n - 1 do
    if b >= !covered_until then begin
      Registry.incr t.lookups;
      let h = block_hash t data b in
      match Itbl.find_opt t.index h with
      | None -> ()
      | Some candidates ->
        Registry.incr t.hash_hits;
        (* first candidate whose bytes really match wins *)
        let verified =
          List.find_map
            (fun src ->
              match Lru.find t.window src.write_id with
              | None -> None
              | Some src_data ->
                if blocks_equal data b src_data src.block then Some (src, src_data)
                else begin
                  Registry.incr t.false_positives;
                  None
                end)
            candidates
        in
        (match verified with
        | None -> ()
        | Some (src, src_data) ->
          Registry.incr t.verified_hits;
          let hit = extend data n ~at:b ~src src_data in
          (* clip the run to start at the first uncovered block *)
          let clip = max 0 (!covered_until - hit.at_block) in
          let hit =
            {
              at_block = hit.at_block + clip;
              src = { hit.src with block = hit.src.block + clip };
              run_blocks = hit.run_blocks - clip;
            }
          in
          if hit.run_blocks >= t.cfg.min_run then begin
            hits := hit :: !hits;
            covered_until := hit.at_block + hit.run_blocks;
            Registry.add t.duplicate_blocks hit.run_blocks
          end)
    end
  done;
  List.rev !hits
