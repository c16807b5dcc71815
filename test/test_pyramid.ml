module Fact = Purity_pyramid.Fact
module Patch = Purity_pyramid.Patch
module Pyramid = Purity_pyramid.Pyramid
module Seqno = Purity_pyramid.Seqno

(* Every fact of a string-keyed patch, in patch order, through the range
   walk over a span that covers every key the tests use. *)
let patch_facts p =
  let acc = ref [] in
  Patch.iter_run p ~lo:"" ~hi:(String.make 64 '\255') (fun f -> acc := f :: !acc);
  List.rev !acc

(* Does the patch's bloom filter (if it has one) admit the key? *)
let bloom_admits p key = Patch.bloom_admits_hashed p (lazy (Purity_util.Bloom.hash_pair key))

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let str_opt = Alcotest.option Alcotest.string

(* ---------- Seqno ---------- *)

let test_seqno_monotone () =
  let s = Seqno.create () in
  check Alcotest.int64 "first" 1L (Seqno.next s);
  check Alcotest.int64 "second" 2L (Seqno.next s);
  check Alcotest.int64 "current" 2L (Seqno.current s)

let test_seqno_restore () =
  let s = Seqno.create () in
  Seqno.restore_at_least s 500L;
  check Alcotest.int64 "restored" 501L (Seqno.next s);
  Seqno.restore_at_least s 10L;
  check Alcotest.int64 "never backwards" 502L (Seqno.next s)

(* ---------- Fact ---------- *)

let test_fact_encode_roundtrip () =
  let facts =
    [
      Fact.make ~key:"volume/7/block/42" ~value:"payload bytes" ~seq:99L;
      Fact.tombstone ~key:"k" ~seq:1L;
      Fact.make ~key:"" ~value:"" ~seq:Int64.max_int;
    ]
  in
  let buf = Buffer.create 64 in
  List.iter (Fact.encode buf) facts;
  let raw = Buffer.to_bytes buf in
  let rec decode_all pos acc =
    if pos >= Bytes.length raw then List.rev acc
    else begin
      let f, next = Fact.decode raw ~pos in
      decode_all next (f :: acc)
    end
  in
  let got = decode_all 0 [] in
  check int "count" 3 (List.length got);
  List.iter2 (fun a b -> check bool "fact equal" true (( = ) a b)) facts got

let test_fact_ordering () =
  let a = Fact.make ~key:"a" ~value:"1" ~seq:5L in
  let a_newer = Fact.make ~key:"a" ~value:"2" ~seq:9L in
  let b = Fact.make ~key:"b" ~value:"3" ~seq:1L in
  check bool "key order first" true (Fact.compare_key_seq a b < 0);
  check bool "newer seq first within key" true (Fact.compare_key_seq a_newer a < 0)

(* ---------- Patch ---------- *)

let mk key value seq = Fact.make ~key ~value ~seq

let test_patch_sorted_dedup () =
  let p = Patch.of_facts [ mk "b" "1" 2L; mk "a" "2" 1L; mk "b" "1" 2L; mk "a" "3" 5L ] in
  check int "dedup to 3" 3 (Patch.count p);
  match patch_facts p with
  | [ f1; f2; f3 ] ->
    check Alcotest.string "a newest first" "3" (Option.get f1.Fact.value);
    check Alcotest.string "a older" "2" (Option.get f2.Fact.value);
    check Alcotest.string "b" "1" (Option.get f3.Fact.value)
  | _ -> Alcotest.fail "wrong shape"

let test_patch_find () =
  let p = Patch.of_facts [ mk "k" "v1" 1L; mk "k" "v2" 2L; mk "z" "zz" 3L ] in
  (match Patch.find_latest p "k" with
  | Some f -> check Alcotest.string "latest wins" "v2" (Option.get f.Fact.value)
  | None -> Alcotest.fail "missing");
  check int "all versions" 2 (List.length (Patch.find p "k"));
  check int "absent" 0 (List.length (Patch.find p "nope"))

let test_patch_merge_idempotent () =
  let p = Patch.of_facts [ mk "a" "1" 1L; mk "b" "2" 2L ] in
  let q = Patch.of_facts [ mk "b" "2" 2L; mk "c" "3" 3L ] in
  let m1 = Patch.merge p q in
  let m2 = Patch.merge m1 m1 in
  check int "merge dedups" 3 (Patch.count m1);
  check int "self-merge is identity" 3 (Patch.count m2);
  let m_comm = Patch.merge q p in
  check bool "commutative" true
    (List.for_all2 ( = ) (patch_facts m1) (patch_facts m_comm))

let test_patch_ranges () =
  let p = Patch.of_facts [ mk "a" "1" 5L; mk "m" "2" 3L; mk "z" "3" 9L ] in
  check (Alcotest.option (Alcotest.pair Alcotest.int64 Alcotest.int64)) "seq range"
    (Some (3L, 9L)) (Patch.seq_range p);
  let in_range = ref 0 in
  Patch.iter_run p ~lo:"a" ~hi:"m" (fun _ -> incr in_range);
  check int "range walk" 2 !in_range

let test_patch_compact () =
  let p =
    Patch.of_facts
      [ mk "a" "old" 1L; mk "a" "new" 2L; Fact.tombstone ~key:"b" ~seq:3L; mk "b" "dead" 1L ]
  in
  let c = Patch.flatten [ p ] ~keep:(fun _ -> true) in
  check int "one survivor" 1 (Patch.count c);
  check Alcotest.string "newest a" "new" (Option.get (List.hd (patch_facts c)).Fact.value);
  (* [keep] filters before the newest is picked: rejecting a@2 revives a@1 *)
  let c2 = Patch.flatten [ p ] ~keep:(fun f -> not (f.Fact.key = "a" && f.Fact.seq = 2L)) in
  check Alcotest.string "older a" "old" (Option.get (List.hd (patch_facts c2)).Fact.value);
  (* across runs: a shallow tombstone drops a deeper value, and a
     (key, seq) repeat keeps its shallowest copy *)
  let deep = Patch.of_facts [ mk "c" "deep" 4L; mk "d" "deep" 5L; mk "e" "only" 1L ] in
  let shallow = Patch.of_facts [ Fact.tombstone ~key:"c" ~seq:6L; mk "d" "shallow" 5L ] in
  let c3 = Patch.flatten [ shallow; Patch.empty; deep ] ~keep:(fun _ -> true) in
  check (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.option Alcotest.string)))
    "across runs"
    [ ("d", Some "shallow"); ("e", Some "only") ]
    (List.map (fun f -> (f.Fact.key, f.Fact.value)) (patch_facts c3))

let test_patch_serialize_roundtrip () =
  let p = Patch.of_facts [ mk "alpha" "1" 1L; Fact.tombstone ~key:"beta" ~seq:2L ] in
  let p2 = Option.get (Patch.deserialize (Patch.serialize p)) in
  check bool "roundtrip" true (List.for_all2 ( = ) (patch_facts p) (patch_facts p2))

let test_patch_serialize_corruption () =
  let p = Patch.of_facts [ mk "key" "value" 7L ] in
  let s = Bytes.of_string (Patch.serialize p) in
  Bytes.set_uint8 s (Bytes.length s - 1) (Bytes.get_uint8 s (Bytes.length s - 1) lxor 1);
  match Patch.deserialize (Bytes.to_string s) with
  | None -> ()
  | Some _ -> Alcotest.fail "corruption undetected"

let prop_patch_merge_equals_union =
  QCheck.Test.make ~name:"patch merge = set union of facts" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 30) (pair (string_of_size Gen.(1 -- 4)) (int_bound 20)))
        (list_of_size Gen.(0 -- 30) (pair (string_of_size Gen.(1 -- 4)) (int_bound 20))))
    (fun (xs, ys) ->
      let facts l = List.map (fun (k, s) -> mk k (k ^ string_of_int s) (Int64.of_int (s + 1))) l in
      let p = Patch.of_facts (facts xs) and q = Patch.of_facts (facts ys) in
      let merged = Patch.merge p q in
      let expect = Patch.of_facts (facts xs @ facts ys) in
      List.length (patch_facts merged) = List.length (patch_facts expect)
      && List.for_all2 ( = ) (patch_facts merged) (patch_facts expect))

(* ---------- Pyramid: tombstone policy ---------- *)

let tomb_pyramid () = Pyramid.create ~policy:Pyramid.Tombstones ~name:"t" ()

let test_pyr_insert_find () =
  let p = tomb_pyramid () in
  Pyramid.insert p ~seq:1L ~key:"a" ~value:"1";
  Pyramid.insert p ~seq:2L ~key:"b" ~value:"2";
  check str_opt "a" (Some "1") (Pyramid.find p "a");
  check str_opt "b" (Some "2") (Pyramid.find p "b");
  check str_opt "absent" None (Pyramid.find p "c")

let test_pyr_overwrite_latest_wins () =
  let p = tomb_pyramid () in
  Pyramid.insert p ~seq:1L ~key:"k" ~value:"old";
  Pyramid.insert p ~seq:5L ~key:"k" ~value:"new";
  check str_opt "latest" (Some "new") (Pyramid.find p "k");
  Pyramid.flush p;
  check str_opt "after flush" (Some "new") (Pyramid.find p "k")

let test_pyr_out_of_order_seq () =
  (* "confused or lagging writers may safely reorder inserts" *)
  let p = tomb_pyramid () in
  Pyramid.insert p ~seq:5L ~key:"k" ~value:"new";
  Pyramid.insert p ~seq:1L ~key:"k" ~value:"old";
  check str_opt "seq decides, not arrival" (Some "new") (Pyramid.find p "k")

let test_pyr_tombstone_delete () =
  let p = tomb_pyramid () in
  Pyramid.insert p ~seq:1L ~key:"k" ~value:"v";
  Pyramid.delete p ~seq:2L ~key:"k";
  check str_opt "deleted" None (Pyramid.find p "k");
  (* reinsertion after delete *)
  Pyramid.insert p ~seq:3L ~key:"k" ~value:"back";
  check str_opt "reinserted" (Some "back") (Pyramid.find p "k")

let test_pyr_flush_merge_flatten_preserve_reads () =
  let p = tomb_pyramid () in
  for i = 1 to 50 do
    Pyramid.insert p ~seq:(Int64.of_int i) ~key:(Printf.sprintf "k%02d" (i mod 10))
      ~value:(string_of_int i)
  done;
  Pyramid.flush p;
  for i = 51 to 100 do
    Pyramid.insert p ~seq:(Int64.of_int i) ~key:(Printf.sprintf "k%02d" (i mod 10))
      ~value:(string_of_int i)
  done;
  Pyramid.flush p;
  let before = List.init 10 (fun i -> Pyramid.find p (Printf.sprintf "k%02d" i)) in
  while Pyramid.merge_step p do () done;
  let after_merge = List.init 10 (fun i -> Pyramid.find p (Printf.sprintf "k%02d" i)) in
  check (Alcotest.list str_opt) "merge preserves" before after_merge;
  Pyramid.flatten p;
  let after_flatten = List.init 10 (fun i -> Pyramid.find p (Printf.sprintf "k%02d" i)) in
  check (Alcotest.list str_opt) "flatten preserves" before after_flatten;
  check int "single patch" 1 (Pyramid.patch_count p);
  check int "flatten drops shadowed facts" 10 (Pyramid.fact_count p)

let test_pyr_tombstones_discarded_at_bottom () =
  let p = tomb_pyramid () in
  Pyramid.insert p ~seq:1L ~key:"k" ~value:"v";
  Pyramid.delete p ~seq:2L ~key:"k";
  Pyramid.flatten p;
  check int "nothing left" 0 (Pyramid.fact_count p);
  check str_opt "still deleted" None (Pyramid.find p "k")

let test_pyr_auto_flush () =
  let p = Pyramid.create ~memtable_flush_count:10 ~policy:Pyramid.Tombstones ~name:"t" () in
  for i = 1 to 25 do
    Pyramid.insert p ~seq:(Int64.of_int i) ~key:(string_of_int i) ~value:"x"
  done;
  (* two auto-flushes happened; tiered maintenance may have merged them *)
  check bool "auto-flushed" true (Pyramid.patch_count p >= 1);
  check int "memtable small" 5
    (Pyramid.fact_count p
    - List.fold_left (fun n q -> n + Patch.count q) 0 (Pyramid.patches p));
  check int "all facts present" 25 (Pyramid.fact_count p)

let test_pyr_tiered_compaction_bounds_patches () =
  (* many equal-sized flushes must not produce many patches *)
  let p = Pyramid.create ~memtable_flush_count:1_000_000 ~policy:Pyramid.Tombstones ~name:"t" () in
  let seq = ref 0L in
  for round = 0 to 63 do
    for i = 0 to 31 do
      seq := Int64.add !seq 1L;
      Pyramid.insert p ~seq:!seq ~key:(Printf.sprintf "%d-%d" round i) ~value:"x"
    done;
    Pyramid.flush p
  done;
  check bool
    (Printf.sprintf "patch count %d is logarithmic" (Pyramid.patch_count p))
    true
    (Pyramid.patch_count p <= 8);
  check int "no facts lost" 2048 (Pyramid.fact_count p)

let test_pyr_replay_idempotent () =
  (* Recovery replays NVRAM facts on top of already-persisted state. *)
  let p = tomb_pyramid () in
  let facts =
    [ Fact.make ~key:"a" ~value:"1" ~seq:1L; Fact.make ~key:"b" ~value:"2" ~seq:2L ]
  in
  List.iter (Pyramid.insert_fact p) facts;
  Pyramid.flush p;
  (* replay the same facts, twice, out of order *)
  List.iter (Pyramid.insert_fact p) (List.rev facts);
  List.iter (Pyramid.insert_fact p) facts;
  Pyramid.flatten p;
  check int "no duplicates" 2 (Pyramid.fact_count p);
  check str_opt "a" (Some "1") (Pyramid.find p "a")

(* ---------- Pyramid: elision policy ---------- *)

(* Keys "medium:offset"; the elide rule extracts the medium id. *)
let medium_of_fact f =
  match String.index_opt f.Fact.key ':' with
  | Some i -> int_of_string (String.sub f.Fact.key 0 i)
  | None -> -1

let elide_pyramid () = Pyramid.create ~policy:(Pyramid.Elide medium_of_fact) ~name:"m" ()

let test_elide_basic () =
  let p = elide_pyramid () in
  Pyramid.insert p ~seq:1L ~key:"7:0" ~value:"a";
  Pyramid.insert p ~seq:2L ~key:"7:1" ~value:"b";
  Pyramid.insert p ~seq:3L ~key:"8:0" ~value:"c";
  Pyramid.elide_id p ~seq:4L 7;
  check str_opt "7:0 elided" None (Pyramid.find p "7:0");
  check str_opt "7:1 elided" None (Pyramid.find p "7:1");
  check str_opt "8:0 alive" (Some "c") (Pyramid.find p "8:0")

let test_elide_is_atomic_over_all_matches () =
  let p = elide_pyramid () in
  for i = 0 to 99 do
    Pyramid.insert p ~seq:(Int64.of_int (i + 1)) ~key:(Printf.sprintf "5:%d" i) ~value:"x"
  done;
  Pyramid.elide_id p ~seq:200L 5;
  check int "all hundred retracted" 0 (Pyramid.live_key_count p)

let test_elide_range () =
  let p = elide_pyramid () in
  for m = 0 to 9 do
    Pyramid.insert p ~seq:(Int64.of_int (m + 1)) ~key:(Printf.sprintf "%d:0" m) ~value:"x"
  done;
  Pyramid.elide_range p ~seq:100L ~lo:3 ~hi:6;
  check int "six left" 6 (Pyramid.live_key_count p);
  check str_opt "2 alive" (Some "x") (Pyramid.find p "2:0");
  check str_opt "4 dead" None (Pyramid.find p "4:0")

let test_elide_relaxed_reader_sees_ghosts () =
  let p = elide_pyramid () in
  Pyramid.insert p ~seq:1L ~key:"7:0" ~value:"ghost";
  Pyramid.elide_id p ~seq:2L 7;
  check str_opt "strict read" None (Pyramid.find p "7:0");
  check str_opt "relaxed read observes retracted tuple" (Some "ghost")
    (Option.bind (Pyramid.latest_fact p "7:0") (fun f -> f.Fact.value))

let test_elide_reclaims_space_on_merge () =
  let p = elide_pyramid () in
  for i = 0 to 49 do
    Pyramid.insert p ~seq:(Int64.of_int (i + 1)) ~key:(Printf.sprintf "1:%d" i) ~value:"x"
  done;
  Pyramid.flush p;
  for i = 0 to 49 do
    Pyramid.insert p ~seq:(Int64.of_int (i + 100)) ~key:(Printf.sprintf "2:%d" i) ~value:"x"
  done;
  Pyramid.flush p;
  (* tiered maintenance already combined the two flushes into one patch *)
  Pyramid.elide_id p ~seq:500L 1;
  check int "facts still stored" 100 (Pyramid.fact_count p);
  (* the next ordinary merge (triggered by a comparable-size flush) drops
     the elided facts immediately: no waiting for a tombstone to reach the
     bottom level *)
  for i = 0 to 49 do
    Pyramid.insert p ~seq:(Int64.of_int (i + 200)) ~key:(Printf.sprintf "3:%d" i) ~value:"x"
  done;
  Pyramid.flush p;
  check int "elided facts reclaimed by routine merging" 100 (Pyramid.fact_count p)

let test_elide_table_collapses () =
  let p = elide_pyramid () in
  for m = 0 to 999 do
    Pyramid.elide_id p ~seq:(Int64.of_int (m + 1)) m
  done;
  check int "1000 dense elides collapse to 1 range" 1 (Pyramid.elide_range_count p)

let test_elide_delete_raises () =
  let p = elide_pyramid () in
  match Pyramid.delete p ~seq:1L ~key:"x" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "delete should be rejected under elision"

let test_tombstone_elide_raises () =
  let p = tomb_pyramid () in
  match Pyramid.elide_id p ~seq:1L 5 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "elide should be rejected under tombstones"

let test_pyr_iter_live_ordered () =
  let p = tomb_pyramid () in
  Pyramid.insert p ~seq:1L ~key:"c" ~value:"3";
  Pyramid.insert p ~seq:2L ~key:"a" ~value:"1";
  Pyramid.insert p ~seq:3L ~key:"b" ~value:"2";
  Pyramid.delete p ~seq:4L ~key:"b";
  let keys = ref [] in
  Pyramid.iter_live p (fun ~key ~value:_ -> keys := key :: !keys);
  check (Alcotest.list Alcotest.string) "sorted, live only" [ "a"; "c" ] (List.rev !keys)

let test_pyr_range () =
  let p = tomb_pyramid () in
  List.iteri
    (fun i k -> Pyramid.insert p ~seq:(Int64.of_int (i + 1)) ~key:k ~value:k)
    [ "apple"; "banana"; "cherry"; "date" ];
  let r = Pyramid.range p ~lo:"b" ~hi:"cz" in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string)) "range"
    [ ("banana", "banana"); ("cherry", "cherry") ]
    r

(* ---------- metadata fast path: fences, blooms, batched runs ---------- *)

let test_patch_bloom_fences () =
  let p =
    Patch.of_facts (List.init 100 (fun i -> mk (Printf.sprintf "k%03d" i) "v" (Int64.of_int (i + 1))))
  in
  check bool "large patch carries a bloom" true
    (List.exists (fun i -> not (bloom_admits p (Printf.sprintf "k%03d+" i))) (List.init 100 Fun.id));
  check bool "fence admits interior key" true (Patch.fence_admits p "k050");
  check bool "fence rejects below" false (Patch.fence_admits p "a");
  check bool "fence rejects above" false (Patch.fence_admits p "z");
  check bool "bloom admits member" true (bloom_admits p "k042");
  check bool "fence overlap" true (Patch.fence_overlaps p ~lo:"k090" ~hi:"zzz");
  check bool "fence no overlap" false (Patch.fence_overlaps p ~lo:"l" ~hi:"m");
  (* a tiny patch has no bloom and must admit everything *)
  let small = Patch.of_facts [ mk "a" "1" 1L ] in
  check bool "small patch admits any key" true (bloom_admits small "whatever")

let test_patch_find_latest () =
  let p = Patch.of_facts [ mk "k" "v1" 1L; mk "k" "v2" 5L; mk "k" "v3" 9L; mk "z" "w" 3L ] in
  check str_opt "latest" (Some "v3")
    (Option.map (fun f -> Option.get f.Fact.value) (Patch.find_latest p "k"));
  check bool "absent key" true (Patch.find_latest p "nope" = None)

let test_probe_counters_and_skips () =
  let p = Pyramid.create ~memtable_flush_count:1_000_000 ~policy:Pyramid.Tombstones ~name:"t" () in
  let seq = ref 0L in
  (* two disjoint-key patches, big enough for blooms *)
  for i = 0 to 63 do
    seq := Int64.add !seq 1L;
    Pyramid.insert p ~seq:!seq ~key:(Printf.sprintf "a%04d" i) ~value:"x"
  done;
  Pyramid.flush p;
  for i = 0 to 31 do
    seq := Int64.add !seq 1L;
    Pyramid.insert p ~seq:!seq ~key:(Printf.sprintf "b%04d" i) ~value:"y"
  done;
  Pyramid.flush p;
  (* auto-compaction may have tiered the two flushes into one patch, so
     only assert patch-count-independent lower bounds *)
  let p0, f0, _ = Pyramid.probe_stats p in
  ignore (Pyramid.find p "a0007");
  ignore (Pyramid.find p "zzzz");
  (* "zzzz" is above every fence -> at least one fence skip *)
  let p1, f1, b1 = Pyramid.probe_stats p in
  check bool "probes counted" true (p1 - p0 >= 2);
  check bool "fence skips counted" true (f1 - f0 >= 1);
  (* a key inside a fence but absent: the bloom rejects it (with ~1%
     false-positive slack, so probe several) *)
  for i = 0 to 49 do
    ignore (Pyramid.find p (Printf.sprintf "a%04d-absent" i))
  done;
  let _, _, b2 = Pyramid.probe_stats p in
  check bool "bloom skips counted" true (b2 - b1 >= 40);
  check bool "results unaffected" true
    (Pyramid.find p "a0007" = Some "x" && Pyramid.find p "zzzz" = None)

let pyramid_ops_gen =
  QCheck.Gen.(
    list_size (0 -- 150)
      (oneof
         [
           map
             (fun (k, v) -> `Insert (k, v))
             (pair (string_size ~gen:(char_range 'a' 'f') (1 -- 3)) (int_bound 100));
           map (fun k -> `Delete k) (string_size ~gen:(char_range 'a' 'f') (1 -- 3));
           return `Flush;
           return `Merge;
           return `Flatten;
         ]))

let apply_ops p ops =
  let seq = ref 0L in
  List.iter
    (function
      | `Insert (k, v) ->
        seq := Int64.add !seq 1L;
        Pyramid.insert p ~seq:!seq ~key:k ~value:(string_of_int v)
      | `Delete k ->
        seq := Int64.add !seq 1L;
        Pyramid.delete p ~seq:!seq ~key:k
      | `Flush -> Pyramid.flush p
      | `Merge -> ignore (Pyramid.merge_step p)
      | `Flatten -> Pyramid.flatten p)
    ops

let prop_fast_find_equals_naive =
  (* the bloom-fenced lookup must be bit-identical to the per-patch scan,
     for present and absent keys *)
  QCheck.Test.make ~name:"fenced find = naive find (present + absent keys)" ~count:150
    (QCheck.make pyramid_ops_gen)
    (fun ops ->
      let p = Pyramid.create ~memtable_flush_count:8 ~policy:Pyramid.Tombstones ~name:"t" () in
      apply_ops p ops;
      (* the op alphabet, plus keys no op can generate *)
      List.concat_map (fun a -> List.map (fun b -> a ^ b) [ ""; "a"; "f"; "zz" ])
        [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ]
      |> List.for_all (fun key -> Pyramid.find p key = Pyramid.find_naive p key))

let prop_find_run_equals_point =
  (* batched range lookup = per-key point lookup over a sliding window *)
  QCheck.Test.make ~name:"find_run = per-key find" ~count:150
    (QCheck.make
       QCheck.Gen.(
         list_size (0 -- 120)
           (oneof
              [
                map (fun (b, v) -> `Insert (b, v)) (pair (int_bound 30) (int_bound 100));
                map (fun b -> `Delete b) (int_bound 30);
                return `Flush;
                return `Merge;
              ])))
    (fun ops ->
      let key_of_block b = Printf.sprintf "%04d" b in
      let p = Pyramid.create ~memtable_flush_count:16 ~policy:Pyramid.Tombstones ~name:"t" () in
      let seq = ref 0L in
      List.iter
        (function
          | `Insert (b, v) ->
            seq := Int64.add !seq 1L;
            Pyramid.insert p ~seq:!seq ~key:(key_of_block b) ~value:(string_of_int v)
          | `Delete b ->
            seq := Int64.add !seq 1L;
            Pyramid.delete p ~seq:!seq ~key:(key_of_block b)
          | `Flush -> Pyramid.flush p
          | `Merge -> ignore (Pyramid.merge_step p))
        ops;
      let n = 12 in
      List.for_all
        (fun base ->
          let run =
            Pyramid.find_run p ~n
              ~key_of:(fun i -> key_of_block (base + i))
              ~index:(fun key -> int_of_string key - base)
          in
          List.for_all
            (fun i ->
              Pyramid.resolve_fact p run.(i) = Pyramid.find p (key_of_block (base + i)))
            (List.init n Fun.id))
        [ 0; 7; 25 ])

(* The reference bottom: merge every run, drop the facts [keep] rejects,
   keep each key's first (newest) survivor, drop tombstones. *)
let prop_flatten_equals_reference =
  QCheck.Test.make ~name:"one-pass flatten = merge+filter+newest" ~count:200
    (QCheck.make
       QCheck.Gen.(
         list_size (0 -- 6)
           (list_size (0 -- 20)
              (triple (string_size ~gen:(char_range 'a' 'd') (1 -- 2)) (int_bound 20) bool))))
    (fun patch_specs ->
      let patches =
        List.mapi
          (fun depth spec ->
            Patch.of_facts
              (List.map
                 (fun (k, s, live) ->
                   let seq = Int64.of_int (s + 1) in
                   if live then mk k (Printf.sprintf "%s%d@%d" k s depth) seq
                   else Fact.tombstone ~key:k ~seq)
                 spec))
          patch_specs
      in
      let keep f = Int64.rem f.Fact.seq 3L <> 0L in
      let merged = List.filter keep (patch_facts (List.fold_left Patch.merge Patch.empty patches)) in
      let rec newest = function
        | a :: (b :: _ as rest) when a.Fact.key = b.Fact.key -> newest (a :: List.tl rest)
        | a :: rest -> a :: newest rest
        | [] -> []
      in
      let expected = List.filter (fun f -> not (Fact.is_tombstone f)) (newest merged) in
      List.equal ( = ) expected (patch_facts (Patch.flatten patches ~keep)))

(* A checkpoint's flatten runs over a pyramid of a few thousand facts
   per key range: it may allocate a few words per fact on the minor heap
   (the memtable's sort), not a merge tree and a filter sequence. *)
let test_pyr_flatten_allocation () =
  let p = Pyramid.create ~memtable_flush_count:256 ~policy:Pyramid.Tombstones ~name:"t" () in
  for i = 1 to 20_000 do
    Pyramid.insert p ~seq:(Int64.of_int i) ~key:(Printf.sprintf "k%05d" (i * 7919 mod 5000))
      ~value:"v"
  done;
  let facts = Pyramid.fact_count p in
  let w0 = Gc.minor_words () in
  Pyramid.flatten p;
  let words = (Gc.minor_words () -. w0) /. float_of_int facts in
  check int "one patch" 1 (Pyramid.patch_count p);
  check int "one fact per key" 5000 (Pyramid.fact_count p);
  if words > 2. then Alcotest.failf "Pyramid.flatten allocates %.2f words per fact" words

(* Elision keyed by a string key's first byte. *)
let first_byte_policy = Pyramid.Elide (fun f -> Char.code f.Fact.key.[0])

(* A flush fills one exact-size array from the memtable and merge-sorts
   it, and the elide checks of the size-tiered merge it triggers allocate
   nothing. Arrays this size go straight to the major heap; what the minor
   heap sees is mostly the merge sort's local closures (about 2.5 words
   per fact), not a list cell per fact and an elide probe's closure and
   result per fact merged (about 15 words per flushed fact in all). *)
let test_pyr_flush_allocation () =
  let n = 4096 in
  let p = Pyramid.create ~memtable_flush_count:(n + 1) ~policy:first_byte_policy ~name:"t" () in
  Pyramid.elide_id p ~seq:1L (Char.code 'z');
  let fill ~seq0 =
    for i = 0 to n - 1 do
      Pyramid.insert p
        ~seq:(Int64.of_int (seq0 + i))
        ~key:(Printf.sprintf "%c%05d" (Char.chr (Char.code 'a' + (i mod 4))) i)
        ~value:"v"
    done
  in
  fill ~seq0:10;
  Pyramid.flush p;
  (* the second flush is as big as the first patch, so they merge *)
  fill ~seq0:(10 + n);
  let w0 = Gc.minor_words () in
  Pyramid.flush p;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  check int "merged into one patch" 1 (Pyramid.patch_count p);
  check int "both flushes' facts" (2 * n) (Pyramid.fact_count p);
  if words > 4. then Alcotest.failf "Pyramid.flush allocates %.2f words per flushed fact" words

(* The flush's array path builds the patch [Patch.of_facts] builds from
   the facts the memtable took: exact (key, seq) repeats collapse, and
   elided facts stay until a merge drops them. *)
let prop_flush_equals_of_facts =
  QCheck.Test.make ~name:"array flush = Patch.of_facts of the memtable's facts" ~count:200
    (QCheck.make
       QCheck.Gen.(
         list_size (0 -- 200)
           (frequency
              [
                ( 8,
                  map
                    (fun (k, s) -> `Put (k, s))
                    (pair (string_size ~gen:(char_range 'a' 'e') (1 -- 2)) (int_bound 40)) );
                (1, map (fun c -> `Elide c) (char_range 'a' 'e'));
              ])))
    (fun ops ->
      let p =
        Pyramid.create ~memtable_flush_count:1_000 ~policy:first_byte_policy ~name:"t" ()
      in
      let taken = ref [] in
      List.iter
        (function
          | `Put (k, s) ->
            (* a repeated (key, seq) is the same fact *)
            let f = mk k (Printf.sprintf "%s@%d" k s) (Int64.of_int (s + 1)) in
            taken := f :: !taken;
            Pyramid.insert_fact p f
          | `Elide c -> Pyramid.elide_id p ~seq:100L (Char.code c))
        ops;
      Pyramid.flush p;
      let expected = patch_facts (Patch.of_facts !taken) in
      match Pyramid.patches p with
      | [] -> expected = []
      | [ q ] -> List.equal ( = ) expected (patch_facts q)
      | _ :: _ :: _ -> false)

let prop_pyramid_matches_model =
  (* Pyramid vs a naive Map model under random insert/delete/flush/merge. *)
  QCheck.Test.make ~name:"pyramid agrees with naive map model" ~count:150
    (QCheck.make
       QCheck.Gen.(
         list_size (0 -- 120)
           (oneof
              [
                map
                  (fun (k, v) -> `Insert (k, v))
                  (pair (string_size ~gen:(char_range 'a' 'e') (1 -- 2)) (int_bound 100));
                map (fun k -> `Delete k) (string_size ~gen:(char_range 'a' 'e') (1 -- 2));
                return `Flush;
                return `Merge;
                return `Flatten;
              ])))
    (fun ops ->
      let p = tomb_pyramid () in
      let model = ref [] in
      let seq = ref 0L in
      let next () =
        seq := Int64.add !seq 1L;
        !seq
      in
      List.iter
        (function
          | `Insert (k, v) ->
            Pyramid.insert p ~seq:(next ()) ~key:k ~value:(string_of_int v);
            model := (k, Some (string_of_int v)) :: List.remove_assoc k !model
          | `Delete k ->
            Pyramid.delete p ~seq:(next ()) ~key:k;
            model := (k, None) :: List.remove_assoc k !model
          | `Flush -> Pyramid.flush p
          | `Merge -> ignore (Pyramid.merge_step p)
          | `Flatten -> Pyramid.flatten p)
        ops;
      let live = ref [] in
      Pyramid.iter_live p (fun ~key ~value -> live := (key, value) :: !live);
      let model_live =
        List.sort compare (List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) !model)
      in
      List.for_all (fun (k, v) -> Pyramid.find p k = v) !model && List.rev !live = model_live)

let () =
  Alcotest.run "pyramid"
    [
      ( "seqno",
        [
          Alcotest.test_case "monotone" `Quick test_seqno_monotone;
          Alcotest.test_case "restore" `Quick test_seqno_restore;
        ] );
      ( "fact",
        [
          Alcotest.test_case "encode roundtrip" `Quick test_fact_encode_roundtrip;
          Alcotest.test_case "ordering" `Quick test_fact_ordering;
        ] );
      ( "patch",
        [
          Alcotest.test_case "sorted dedup" `Quick test_patch_sorted_dedup;
          Alcotest.test_case "find" `Quick test_patch_find;
          Alcotest.test_case "merge idempotent/commutative" `Quick test_patch_merge_idempotent;
          Alcotest.test_case "ranges" `Quick test_patch_ranges;
          Alcotest.test_case "compact" `Quick test_patch_compact;
          Alcotest.test_case "serialize roundtrip" `Quick test_patch_serialize_roundtrip;
          Alcotest.test_case "serialize corruption" `Quick test_patch_serialize_corruption;
          QCheck_alcotest.to_alcotest prop_patch_merge_equals_union;
        ] );
      ( "pyramid",
        [
          Alcotest.test_case "insert/find" `Quick test_pyr_insert_find;
          Alcotest.test_case "latest wins" `Quick test_pyr_overwrite_latest_wins;
          Alcotest.test_case "out-of-order seq" `Quick test_pyr_out_of_order_seq;
          Alcotest.test_case "tombstone delete" `Quick test_pyr_tombstone_delete;
          Alcotest.test_case "flush/merge/flatten preserve" `Quick
            test_pyr_flush_merge_flatten_preserve_reads;
          Alcotest.test_case "tombstones dropped at bottom" `Quick
            test_pyr_tombstones_discarded_at_bottom;
          Alcotest.test_case "auto flush" `Quick test_pyr_auto_flush;
          Alcotest.test_case "tiered compaction" `Quick test_pyr_tiered_compaction_bounds_patches;
          Alcotest.test_case "replay idempotent" `Quick test_pyr_replay_idempotent;
          Alcotest.test_case "iter_live ordered" `Quick test_pyr_iter_live_ordered;
          Alcotest.test_case "range" `Quick test_pyr_range;
          QCheck_alcotest.to_alcotest prop_pyramid_matches_model;
          Alcotest.test_case "patch fences + bloom" `Quick test_patch_bloom_fences;
          Alcotest.test_case "patch find_latest" `Quick test_patch_find_latest;
          Alcotest.test_case "probe counters + skips" `Quick test_probe_counters_and_skips;
          QCheck_alcotest.to_alcotest prop_fast_find_equals_naive;
          QCheck_alcotest.to_alcotest prop_find_run_equals_point;
          QCheck_alcotest.to_alcotest prop_flatten_equals_reference;
          Alcotest.test_case "flatten allocation" `Quick test_pyr_flatten_allocation;
          Alcotest.test_case "flush allocation" `Quick test_pyr_flush_allocation;
          QCheck_alcotest.to_alcotest prop_flush_equals_of_facts;
        ] );
      ( "elision",
        [
          Alcotest.test_case "basic" `Quick test_elide_basic;
          Alcotest.test_case "atomic over matches" `Quick test_elide_is_atomic_over_all_matches;
          Alcotest.test_case "range" `Quick test_elide_range;
          Alcotest.test_case "relaxed reader" `Quick test_elide_relaxed_reader_sees_ghosts;
          Alcotest.test_case "merge reclaims immediately" `Quick test_elide_reclaims_space_on_merge;
          Alcotest.test_case "table collapses" `Quick test_elide_table_collapses;
          Alcotest.test_case "delete raises" `Quick test_elide_delete_raises;
          Alcotest.test_case "elide raises on tombstone table" `Quick test_tombstone_elide_raises;
        ] );
    ]
