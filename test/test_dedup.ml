module Dedup = Purity_dedup.Dedup
module Rng = Purity_util.Rng
module Registry = Purity_telemetry.Registry

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let bs = 512

(* Dedup.create's default config, for tests that shrink one field *)
let default_config =
  { Dedup.hash_bits = 48; record_every = 8; window_writes = 4096; min_run = 1 }
let rng = Rng.create ~seed:0xDED0L

let random_blocks n = Bytes.to_string (Rng.bytes rng (n * bs))

(* The index's counters, read through a registry that adopts its cells. *)
let counters d =
  let reg = Registry.create () in
  Dedup.register_telemetry d reg;
  fun name -> Registry.read_int reg ("dedup/" ^ name)

let test_no_duplicates_in_fresh_data () =
  let d = Dedup.create () in
  ignore (Dedup.register d (random_blocks 16));
  let hits = Dedup.find_duplicates d (random_blocks 16) in
  check int "no hits" 0 (List.length hits)

let test_exact_duplicate_write_fully_detected () =
  let d = Dedup.create () in
  let data = random_blocks 16 in
  let id = Dedup.register d data in
  let hits = Dedup.find_duplicates d data in
  let covered = List.fold_left (fun acc h -> acc + h.Dedup.run_blocks) 0 hits in
  check int "all 16 blocks deduplicated" 16 covered;
  List.iter (fun h -> check int "against the registered write" id h.Dedup.src.Dedup.write_id) hits

let test_misaligned_duplicate_detected_via_anchor () =
  (* Duplicate region starts at an arbitrary block offset in the new
     write; the 1-in-8 recorded anchors plus extension must still find
     nearly all of it (paper: runs >= 8 blocks, any alignment). *)
  let d = Dedup.create () in
  let original = random_blocks 32 in
  ignore (Dedup.register d original);
  let prefix = random_blocks 3 in
  let dup = prefix ^ original in
  let hits = Dedup.find_duplicates d dup in
  let covered = List.fold_left (fun acc h -> acc + h.Dedup.run_blocks) 0 hits in
  check bool (Printf.sprintf "covered %d of 32" covered) true (covered >= 30);
  (* the duplicated blocks must map to the right source offsets *)
  List.iter
    (fun h ->
      let src_block = h.Dedup.src.Dedup.block in
      check int "alignment recovered" (h.Dedup.at_block - 3) src_block)
    hits

let test_small_duplicates_can_be_missed () =
  (* A 2-block duplicate that spans no recorded anchor is (correctly)
     invisible: the paper trades tiny duplicates for index size. *)
  let d = Dedup.create () in
  let original = random_blocks 32 in
  ignore (Dedup.register d original);
  (* blocks 1..2 of original, which contain no anchor (anchors at 0,8,...) *)
  let fragment = String.sub original bs (2 * bs) in
  let hits = Dedup.find_duplicates d fragment in
  check int "anchorless fragment missed" 0 (List.length hits)

let test_anchored_fragment_found () =
  let d = Dedup.create () in
  let original = random_blocks 32 in
  ignore (Dedup.register d original);
  (* blocks 8..10 include the anchor at block 8 *)
  let fragment = String.sub original (8 * bs) (3 * bs) in
  let hits = Dedup.find_duplicates d fragment in
  check int "one run" 1 (List.length hits);
  check int "run covers all 3" 3 (List.hd hits).Dedup.run_blocks;
  check int "src block 8" 8 (List.hd hits).Dedup.src.Dedup.block

let test_byte_verification_rejects_collisions () =
  (* Force collisions with 4-bit hashes (16 buckets for 8 recorded
     anchors): lookups hit constantly, but byte comparison must reject
     them all. *)
  let cfg = { default_config with Dedup.hash_bits = 4 } in
  let d = Dedup.create ~config:cfg () in
  ignore (Dedup.register d (random_blocks 64));
  let hits = Dedup.find_duplicates d (random_blocks 64) in
  check int "no false dedup despite collisions" 0 (List.length hits);
  let count = counters d in
  check bool "collisions were caught by byte compare" true (count "false_positives" > 0);
  check int "no verified hit" 0 (count "verified_hits");
  check int "no duplicate block" 0 (count "duplicate_blocks")

let test_window_eviction () =
  let cfg = { default_config with Dedup.window_writes = 2 } in
  let d = Dedup.create ~config:cfg () in
  let old = random_blocks 8 in
  ignore (Dedup.register d old);
  ignore (Dedup.register d (random_blocks 8));
  ignore (Dedup.register d (random_blocks 8));
  (* 'old' evicted from the window: inline dedup no longer sees it *)
  check int "evicted write not found" 0 (List.length (Dedup.find_duplicates d old))

let test_forget () =
  let d = Dedup.create () in
  let data = random_blocks 8 in
  let id = Dedup.register d data in
  Dedup.forget d ~write_id:id;
  check int "forgotten" 0 (List.length (Dedup.find_duplicates d data))

let test_record_every_8_index_size () =
  let d = Dedup.create () in
  ignore (Dedup.register d (random_blocks 64));
  let count = counters d in
  check int "64 blocks -> 8 recorded hashes" 8 (count "recorded_hashes");
  check int "one registered write" 1 (count "registered_writes")

(* A lookup that finds nothing allocates nothing per block: the hash
   probe is an unboxed int and each counted event is one store. *)
let test_find_duplicates_allocation () =
  let d = Dedup.create () in
  ignore (Dedup.register d (random_blocks 64));
  let fresh = random_blocks 64 in
  let count = counters d in
  ignore (Dedup.find_duplicates d fresh);
  let calls = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Dedup.find_duplicates d fresh))
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int calls in
  check int "a lookup per block" (64 * (calls + 1)) (count "lookups");
  check int "no hit" 0 (count "hash_hits");
  if words > 8. then
    Alcotest.failf "Dedup.find_duplicates allocates %.1f words per 64-block miss" words

let test_zero_blocks_dedupe_against_each_other () =
  let d = Dedup.create () in
  ignore (Dedup.register d (String.make (16 * bs) '\000'));
  let hits = Dedup.find_duplicates d (String.make (16 * bs) '\000') in
  let covered = List.fold_left (fun acc h -> acc + h.Dedup.run_blocks) 0 hits in
  check int "all zeros dedup" 16 covered

let test_partial_block_tail_ignored () =
  let d = Dedup.create () in
  let data = random_blocks 4 ^ "tail" in
  ignore (Dedup.register d data);
  let hits = Dedup.find_duplicates d data in
  let covered = List.fold_left (fun acc h -> acc + h.Dedup.run_blocks) 0 hits in
  check int "whole blocks only" 4 covered

let prop_hits_are_truthful =
  (* Every returned run must be byte-identical to its claimed source. *)
  QCheck.Test.make ~name:"every hit is byte-verified true" ~count:100
    QCheck.(pair (int_range 1 24) (int_range 0 23))
    (fun (nblocks, insert_at) ->
      let local = Rng.create ~seed:(Int64.of_int ((nblocks * 100) + insert_at)) in
      let d = Dedup.create () in
      let original = Bytes.to_string (Rng.bytes local (nblocks * bs)) in
      ignore (Dedup.register d original);
      let insert_at = insert_at mod nblocks in
      let data =
        Bytes.to_string (Rng.bytes local (insert_at * bs))
        ^ original
        ^ Bytes.to_string (Rng.bytes local (2 * bs))
      in
      let hits = Dedup.find_duplicates d data in
      (* [original] is the only registered write, so every hit's source *)
      List.for_all
        (fun h ->
          String.sub data (h.Dedup.at_block * bs) (h.Dedup.run_blocks * bs)
          = String.sub original (h.Dedup.src.Dedup.block * bs) (h.Dedup.run_blocks * bs))
        hits)

let prop_hits_nonoverlapping_ordered =
  QCheck.Test.make ~name:"hits are ordered and non-overlapping" ~count:100
    QCheck.(int_range 1 32)
    (fun nblocks ->
      let local = Rng.create ~seed:(Int64.of_int nblocks) in
      let d = Dedup.create () in
      let original = Bytes.to_string (Rng.bytes local (nblocks * bs)) in
      ignore (Dedup.register d original);
      let data = original ^ original in
      let hits = Dedup.find_duplicates d data in
      let rec ok prev_end = function
        | [] -> true
        | h :: rest ->
          h.Dedup.at_block >= prev_end
          && h.Dedup.run_blocks >= 1
          && ok (h.Dedup.at_block + h.Dedup.run_blocks) rest
      in
      ok 0 hits)

let () =
  Alcotest.run "dedup"
    [
      ( "dedup",
        [
          Alcotest.test_case "fresh data" `Quick test_no_duplicates_in_fresh_data;
          Alcotest.test_case "exact duplicate" `Quick test_exact_duplicate_write_fully_detected;
          Alcotest.test_case "misaligned duplicate" `Quick
            test_misaligned_duplicate_detected_via_anchor;
          Alcotest.test_case "anchorless fragment missed" `Quick test_small_duplicates_can_be_missed;
          Alcotest.test_case "anchored fragment found" `Quick test_anchored_fragment_found;
          Alcotest.test_case "collisions verified away" `Quick
            test_byte_verification_rejects_collisions;
          Alcotest.test_case "window eviction" `Quick test_window_eviction;
          Alcotest.test_case "forget" `Quick test_forget;
          Alcotest.test_case "1-in-8 recording" `Quick test_record_every_8_index_size;
          Alcotest.test_case "lookup allocation" `Quick test_find_duplicates_allocation;
          Alcotest.test_case "zero blocks" `Quick test_zero_blocks_dedupe_against_each_other;
          Alcotest.test_case "partial tail ignored" `Quick test_partial_block_tail_ignored;
          QCheck_alcotest.to_alcotest prop_hits_are_truthful;
          QCheck_alcotest.to_alcotest prop_hits_nonoverlapping_ordered;
        ] );
    ]
