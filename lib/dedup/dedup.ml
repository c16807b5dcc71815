module Xxhash = Purity_util.Xxhash
module Lru = Purity_util.Lru
module Itbl = Purity_util.Keytbl.Int
module Registry = Purity_telemetry.Registry

let block_size = 512

type 'home hit = { at_block : int; src_block : int; run_blocks : int; home : 'home option }

type config = { hash_bits : int; record_every : int; window_writes : int; min_run : int }

let default_config = { hash_bits = 48; record_every = 8; window_writes = 4096; min_run = 1 }

type anchor = { write_id : int; block : int } (* a recorded block of a windowed write *)
type 'home entry = { data : string; home : 'home option }

type 'home t = {
  cfg : config;
  index : anchor list Itbl.t; (* truncated hash -> recorded anchors *)
  window : 'home entry Lru.t; (* write id -> payload and home, the recency window *)
  mutable next_write_id : int;
  anchors : Registry.counter; (* anchors in [index]: a level, not a count *)
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
    anchors = Registry.cell ();
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
      ("anchors", t.anchors);
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

(* Replace bucket [h]'s anchors [old] with [anchors], keeping the
   [anchors] level equal to the index's size. *)
let set_bucket t h ~old anchors =
  Registry.add t.anchors (List.length anchors - List.length old);
  match anchors with [] -> Itbl.remove t.index h | _ -> Itbl.replace t.index h anchors

(* Drop a write's anchors, found by recomputing its sampled hashes. *)
let drop_anchors t write_id data =
  let b = ref 0 in
  while !b < blocks_of data do
    let h = block_hash t data !b in
    (match Itbl.find_opt t.index h with
    | Some old -> set_bucket t h ~old (List.filter (fun a -> a.write_id <> write_id) old)
    | None -> ());
    b := !b + t.cfg.record_every
  done

let register ?home t data =
  let id = t.next_write_id in
  t.next_write_id <- id + 1;
  (match Lru.add t.window id { data; home } with
  | Some (old_id, old) -> drop_anchors t old_id old.data
  | None -> ());
  let b = ref 0 in
  while !b < blocks_of data do
    let h = block_hash t data !b in
    let old = Option.value ~default:[] (Itbl.find_opt t.index h) in
    (* keep the anchor list short: a fifth anchor replaces the bucket *)
    let keep = if List.length old > 3 then [] else old in
    set_bucket t h ~old ({ write_id = id; block = !b } :: keep);
    Registry.incr t.recorded_hashes;
    b := !b + t.cfg.record_every
  done;
  Registry.incr t.registered_writes

let forget_where t pred =
  let doomed id e acc = match e.home with Some h when pred h -> (id, e) :: acc | _ -> acc in
  Lru.fold doomed t.window []
  |> List.iter (fun (id, e) ->
         Lru.remove t.window id;
         drop_anchors t id e.data)

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

(* Extend a verified anchor match forwards, and backwards down to block
   [from], the first one no earlier run covers. *)
let extend data nblocks ~from ~at ~src_block (src : _ entry) =
  let src_blocks = blocks_of src.data in
  let back = ref 0 in
  while
    at - !back - 1 >= from
    && src_block - !back - 1 >= 0
    && blocks_equal data (at - !back - 1) src.data (src_block - !back - 1)
  do
    incr back
  done;
  let fwd = ref 0 in
  while
    at + !fwd + 1 < nblocks
    && src_block + !fwd + 1 < src_blocks
    && blocks_equal data (at + !fwd + 1) src.data (src_block + !fwd + 1)
  do
    incr fwd
  done;
  {
    at_block = at - !back;
    src_block = src_block - !back;
    run_blocks = !back + 1 + !fwd;
    home = src.home;
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
            (fun a ->
              match Lru.find t.window a.write_id with
              | None -> None
              | Some src ->
                if blocks_equal data b src.data a.block then Some (a.block, src)
                else begin
                  Registry.incr t.false_positives;
                  None
                end)
            candidates
        in
        (match verified with
        | None -> ()
        | Some (src_block, src) ->
          Registry.incr t.verified_hits;
          let hit = extend data n ~from:!covered_until ~at:b ~src_block src in
          if hit.run_blocks >= t.cfg.min_run then begin
            hits := hit :: !hits;
            covered_until := hit.at_block + hit.run_blocks;
            Registry.add t.duplicate_blocks hit.run_blocks
          end)
    end
  done;
  List.rev !hits
