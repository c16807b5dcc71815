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
  Dedup.register d (random_blocks 16);
  let hits = Dedup.find_duplicates d (random_blocks 16) in
  check int "no hits" 0 (List.length hits)

let test_exact_duplicate_write_fully_detected () =
  let d = Dedup.create () in
  let data = random_blocks 16 in
  Dedup.register ~home:"other" d (random_blocks 16);
  Dedup.register ~home:"w" d data;
  let hits = Dedup.find_duplicates d data in
  let covered = List.fold_left (fun acc h -> acc + h.Dedup.run_blocks) 0 hits in
  check int "all 16 blocks deduplicated" 16 covered;
  List.iter
    (fun h ->
      check (Alcotest.option Alcotest.string) "against the registered write" (Some "w")
        h.Dedup.home)
    hits

let test_misaligned_duplicate_detected_via_anchor () =
  (* Duplicate region starts at an arbitrary block offset in the new
     write; the 1-in-8 recorded anchors plus extension must still find
     nearly all of it (paper: runs >= 8 blocks, any alignment). *)
  let d = Dedup.create () in
  let original = random_blocks 32 in
  Dedup.register d original;
  let prefix = random_blocks 3 in
  let dup = prefix ^ original in
  let hits = Dedup.find_duplicates d dup in
  let covered = List.fold_left (fun acc h -> acc + h.Dedup.run_blocks) 0 hits in
  check bool (Printf.sprintf "covered %d of 32" covered) true (covered >= 30);
  (* the duplicated blocks must map to the right source offsets *)
  List.iter
    (fun h ->
      check int "alignment recovered" (h.Dedup.at_block - 3) h.Dedup.src_block)
    hits

let test_small_duplicates_can_be_missed () =
  (* A 2-block duplicate that spans no recorded anchor is (correctly)
     invisible: the paper trades tiny duplicates for index size. *)
  let d = Dedup.create () in
  let original = random_blocks 32 in
  Dedup.register d original;
  (* blocks 1..2 of original, which contain no anchor (anchors at 0,8,...) *)
  let fragment = String.sub original bs (2 * bs) in
  let hits = Dedup.find_duplicates d fragment in
  check int "anchorless fragment missed" 0 (List.length hits)

let test_anchored_fragment_found () =
  let d = Dedup.create () in
  let original = random_blocks 32 in
  Dedup.register d original;
  (* blocks 8..10 include the anchor at block 8 *)
  let fragment = String.sub original (8 * bs) (3 * bs) in
  let hits = Dedup.find_duplicates d fragment in
  check int "one run" 1 (List.length hits);
  check int "run covers all 3" 3 (List.hd hits).Dedup.run_blocks;
  check int "src block 8" 8 (List.hd hits).Dedup.src_block

let test_byte_verification_rejects_collisions () =
  (* Force collisions with 4-bit hashes (16 buckets for 8 recorded
     anchors): lookups hit constantly, but byte comparison must reject
     them all. *)
  let cfg = { default_config with Dedup.hash_bits = 4 } in
  let d = Dedup.create ~config:cfg () in
  Dedup.register d (random_blocks 64);
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
  Dedup.register d old;
  Dedup.register d (random_blocks 8);
  Dedup.register d (random_blocks 8);
  (* 'old' evicted from the window: inline dedup no longer sees it *)
  check int "evicted write not found" 0 (List.length (Dedup.find_duplicates d old))

let test_forget () =
  let d = Dedup.create () in
  let data = random_blocks 8 and kept = random_blocks 8 and homeless = random_blocks 8 in
  Dedup.register ~home:1 d data;
  Dedup.register ~home:2 d kept;
  Dedup.register d homeless;
  let count = counters d in
  Dedup.forget_where d (fun h -> h = 1);
  check int "forgotten" 0 (List.length (Dedup.find_duplicates d data));
  check int "its anchor left with it" 2 (count "anchors");
  let covered data =
    List.fold_left (fun acc h -> acc + h.Dedup.run_blocks) 0 (Dedup.find_duplicates d data)
  in
  check int "another home stays" 8 (covered kept);
  Dedup.forget_where d (fun _ -> true);
  check int "a write without a home stays" 8 (covered homeless);
  check int "only its anchor is left" 1 (count "anchors")

let test_record_every_8_index_size () =
  let d = Dedup.create () in
  Dedup.register d (random_blocks 64);
  let count = counters d in
  check int "64 blocks -> 8 recorded hashes" 8 (count "recorded_hashes");
  check int "8 anchors in the index" 8 (count "anchors");
  check int "one registered write" 1 (count "registered_writes")

(* A lookup that finds nothing allocates nothing per block: the hash
   probe is an unboxed int and each counted event is one store. *)
let test_find_duplicates_allocation () =
  let d = Dedup.create () in
  Dedup.register d (random_blocks 64);
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
  Dedup.register d (String.make (16 * bs) '\000');
  let hits = Dedup.find_duplicates d (String.make (16 * bs) '\000') in
  let covered = List.fold_left (fun acc h -> acc + h.Dedup.run_blocks) 0 hits in
  check int "all zeros dedup" 16 covered

let test_partial_block_tail_ignored () =
  let d = Dedup.create () in
  let data = random_blocks 4 ^ "tail" in
  Dedup.register d data;
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
      Dedup.register d original;
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
          = String.sub original (h.Dedup.src_block * bs) (h.Dedup.run_blocks * bs))
        hits)

let prop_hits_nonoverlapping_ordered =
  QCheck.Test.make ~name:"hits are ordered and non-overlapping" ~count:100
    QCheck.(int_range 1 32)
    (fun nblocks ->
      let local = Rng.create ~seed:(Int64.of_int nblocks) in
      let d = Dedup.create () in
      let original = Bytes.to_string (Rng.bytes local (nblocks * bs)) in
      Dedup.register d original;
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

(* The window bounds the index. Random register / forget_where / lookup
   sequences over payloads drawn from eight distinct blocks (so buckets
   overflow and one write can anchor twice in a bucket) run against a
   model of the window and its anchors, keyed by block content: a
   verified lookup probes the first anchor of its bucket, so each hit
   promotes exactly its own write. *)
let prop_window_bounds_index =
  let window_writes = 4 and record_every = 8 in
  let pool = Array.init 8 (fun _ -> random_blocks 1) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun bl -> `Register bl) (list_size (1 -- 24) (int_bound 7)));
          (1, map (fun m -> `Forget m) (int_bound 2));
          (3, map (fun bl -> `Find bl) (list_size (1 -- 24) (int_bound 7)));
        ])
  in
  QCheck.Test.make ~name:"anchors leave with their write" ~count:200
    (QCheck.make QCheck.Gen.(list_size (1 -- 60) op))
    (fun ops ->
      let d = Dedup.create ~config:{ default_config with Dedup.window_writes } () in
      let count = counters d in
      let payload bl = String.concat "" (List.map (fun i -> pool.(i)) bl) in
      (* model: (home, payload) most recent first; content -> (home, block) *)
      let window = ref [] and buckets = Hashtbl.create 16 in
      let sampled data f =
        let n = String.length data / bs in
        let rec go b = if b < n then (f (String.sub data (b * bs) bs) b; go (b + record_every)) in
        go 0
      in
      let drop (home, data) =
        sampled data (fun key _ ->
            match List.filter (fun (h, _) -> h <> home) (Hashtbl.find buckets key) with
            | [] -> Hashtbl.remove buckets key
            | kept -> Hashtbl.replace buckets key kept
            | exception Not_found -> ())
      in
      let largest = ref 0 in
      List.iteri
        (fun home op ->
          (match op with
          | `Register bl ->
            let data = payload bl in
            largest := max !largest (List.length bl);
            Dedup.register ~home d data;
            if List.length !window >= window_writes then begin
              let oldest = List.nth !window (window_writes - 1) in
              window := List.filter (fun w -> w != oldest) !window;
              drop oldest
            end;
            window := (home, data) :: !window;
            sampled data (fun key b ->
                let prev = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
                let prev = if List.length prev > 3 then [] else prev in
                Hashtbl.replace buckets key ((home, b) :: prev))
          | `Forget m ->
            Dedup.forget_where d (fun h -> h mod 3 = m);
            let gone, stay = List.partition (fun (h, _) -> h mod 3 = m) !window in
            window := stay;
            List.iter drop gone
          | `Find bl ->
            let data = payload bl in
            List.iter
              (fun (h : _ Dedup.hit) ->
                match h.Dedup.home with
                | Some home -> (
                  match List.assoc_opt home !window with
                  | None -> QCheck.Test.fail_reportf "hit carries left home %d" home
                  | Some src ->
                    if
                      String.sub data (h.Dedup.at_block * bs) (h.Dedup.run_blocks * bs)
                      <> String.sub src (h.Dedup.src_block * bs) (h.Dedup.run_blocks * bs)
                    then QCheck.Test.fail_reportf "hit on home %d differs" home;
                    window := (home, src) :: List.remove_assoc home !window)
                | None -> QCheck.Test.fail_report "hit without a home")
              (Dedup.find_duplicates d data));
          let expected = Hashtbl.fold (fun _ l acc -> acc + List.length l) buckets 0 in
          let bound = window_writes * ((!largest + record_every - 1) / record_every) in
          if count "anchors" <> expected then
            QCheck.Test.fail_reportf "dedup/anchors %d, windowed writes' anchors %d"
              (count "anchors") expected;
          if expected > bound then
            QCheck.Test.fail_reportf "%d anchors over the bound %d" expected bound)
        ops;
      true)

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
          QCheck_alcotest.to_alcotest prop_window_bounds_index;
        ] );
    ]
