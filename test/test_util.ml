open Purity_util

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:42L in
  let c = Rng.split a in
  let x = Rng.next_int64 a and y = Rng.next_int64 c in
  check bool "split streams differ" true (x <> y)

let test_rng_int_bounds () =
  let r = Rng.create ~seed:7L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let r = Rng.create ~seed:8L in
  for _ = 1 to 1000 do
    let v = Rng.float r 3.5 in
    check bool "in range" true (v >= 0.0 && v < 3.5)
  done

let test_rng_zipf_skew () =
  (* With heavy skew, rank 0 must dominate. *)
  let r = Rng.create ~seed:9L in
  let counts = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let v = Rng.zipf r ~n:100 ~theta:0.99 in
    check bool "in range" true (v >= 0 && v < 100);
    counts.(v) <- counts.(v) + 1
  done;
  check bool "rank 0 most popular" true (counts.(0) > counts.(50));
  check bool "rank 0 heavily popular" true (counts.(0) > 1000)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:10L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  check bool "mean near 5" true (mean > 4.5 && mean < 5.5)

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:11L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array int) "still a permutation" (Array.init 50 Fun.id) sorted

(* ---------- Xxhash ---------- *)

let test_xxhash_known_vectors () =
  (* Reference values from the xxHash specification. *)
  let h s = Xxhash.hash_string ~seed:0L s in
  check Alcotest.int64 "empty" 0xEF46DB3751D8E999L (h "");
  check Alcotest.int64 "abc" 0x44BC2CF5AD770999L (h "abc")

let test_xxhash_slice_matches_whole () =
  let data = Bytes.of_string "hello world, this is a longer buffer for slicing!" in
  let whole = Xxhash.hash data ~pos:6 ~len:5 in
  let direct = Xxhash.hash_string "world" in
  check Alcotest.int64 "slice equals substring hash" direct whole

let test_xxhash_truncate () =
  let h = 0xFFFFFFFFFFFFFFFFL in
  check Alcotest.int64 "16 bits" 0xFFFFL (Xxhash.truncate h ~bits:16);
  check Alcotest.int64 "64 bits id" h (Xxhash.truncate h ~bits:64)

let prop_xxhash_deterministic =
  QCheck.Test.make ~name:"xxhash deterministic over random strings" ~count:200
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s -> Xxhash.hash_string s = Xxhash.hash_string s)

let prop_xxhash_seed_sensitivity =
  QCheck.Test.make ~name:"xxhash seed changes value" ~count:100
    QCheck.(string_of_size Gen.(1 -- 64))
    (fun s -> Xxhash.hash_string ~seed:1L s <> Xxhash.hash_string ~seed:2L s)

let test_hash63_truncate_int () =
  let h = -1 (* all 63 bits set *) in
  check Alcotest.int "16 bits" 0xFFFF (Xxhash.truncate_int h ~bits:16);
  check Alcotest.int "1 bit" 1 (Xxhash.truncate_int h ~bits:1);
  check Alcotest.int "full width id" h (Xxhash.truncate_int h ~bits:Sys.int_size)

let prop_hash63_fast_equals_ref =
  (* The word kernel and the byte-assembly kernel must agree on every
     slice: stripes, 8-byte remainders, 1..7 trailing bytes, empty. *)
  QCheck.Test.make ~name:"hash63 word kernel equals byte kernel" ~count:500
    QCheck.(pair (string_of_size Gen.(0 -- 200)) (pair small_nat small_nat))
    (fun (s, (a, b)) ->
      let buf = Bytes.of_string s in
      let n = Bytes.length buf in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n = pos then 0 else b mod (n - pos + 1) in
      Xxhash.hash63 buf ~pos ~len = Xxhash.hash63_ref buf ~pos ~len
      && Xxhash.hash63 ~seed:42 buf ~pos ~len
         = Xxhash.hash63_ref ~seed:42 buf ~pos ~len)

(* ---------- Crc32c ---------- *)

let test_crc32c_known_vector () =
  (* RFC 3720 test vector: 32 bytes of zeros. *)
  let zeros = Bytes.make 32 '\000' in
  check Alcotest.int32 "32 zeros" 0x8A9136AAl (Crc32c.digest zeros ~pos:0 ~len:32);
  check Alcotest.int32 "123456789" 0xE3069283l (Crc32c.digest_string "123456789")

let test_crc32c_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let b = Bytes.of_string s in
  let whole = Crc32c.digest b ~pos:0 ~len:(Bytes.length b) in
  let c1 = Crc32c.digest b ~pos:0 ~len:10 in
  let c2 = Crc32c.update c1 b ~pos:10 ~len:(Bytes.length b - 10) in
  check Alcotest.int32 "incremental equals whole" whole c2

let test_crc32c_rfc3720_suite () =
  (* The full RFC 3720 B.4 known-answer suite, against both kernels. *)
  let vectors =
    [
      ("32 zeros", Bytes.make 32 '\000', 0x8A9136AAl);
      ("32 ones", Bytes.make 32 '\xff', 0x62A8AB43l);
      ("ascending", Bytes.init 32 Char.chr, 0x46DD794El);
      ("descending", Bytes.init 32 (fun i -> Char.chr (31 - i)), 0x113FDB5Cl);
    ]
  in
  List.iter
    (fun (name, b, want) ->
      check Alcotest.int32 name want (Crc32c.digest b ~pos:0 ~len:32);
      check Alcotest.int32 (name ^ " (ref)") want (Crc32c.digest_ref b ~pos:0 ~len:32))
    vectors

let prop_crc32c_fast_equals_ref =
  (* The word kernel must agree with the byte kernel on every slice:
     odd lengths, unaligned positions, and the empty slice. *)
  QCheck.Test.make ~name:"crc32c word kernel equals byte kernel" ~count:500
    QCheck.(pair string (pair small_nat small_nat))
    (fun (s, (a, b)) ->
      let buf = Bytes.of_string s in
      let n = Bytes.length buf in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n = pos then 0 else b mod (n - pos + 1) in
      Crc32c.digest buf ~pos ~len = Crc32c.digest_ref buf ~pos ~len)

let prop_crc32c_incremental_equals_oneshot =
  (* Splitting at any point and chaining through [update] must match the
     one-shot digest (the two halves exercise both tails). *)
  QCheck.Test.make ~name:"crc32c incremental equals one-shot" ~count:300
    QCheck.(pair string small_nat)
    (fun (s, cut) ->
      let buf = Bytes.of_string s in
      let n = Bytes.length buf in
      let cut = if n = 0 then 0 else cut mod (n + 1) in
      let c1 = Crc32c.digest buf ~pos:0 ~len:cut in
      Crc32c.update c1 buf ~pos:cut ~len:(n - cut) = Crc32c.digest buf ~pos:0 ~len:n)

(* ---------- Histogram ---------- *)

let test_histogram_empty () =
  let h = Histogram.create () in
  check int "count" 0 (Histogram.count h);
  check (Alcotest.float 0.01) "p99 of empty" 0.0 (Histogram.percentile h 99.0)

let test_histogram_single () =
  let h = Histogram.create () in
  Histogram.record h 500.0;
  check (Alcotest.float 0.01) "p50" 500.0 (Histogram.percentile h 50.0);
  check (Alcotest.float 0.01) "max" 500.0 (Histogram.max_value h)

let test_histogram_percentile_accuracy () =
  let h = Histogram.create () in
  for i = 1 to 10_000 do
    Histogram.record h (float_of_int i)
  done;
  let p50 = Histogram.percentile h 50.0 in
  let p99 = Histogram.percentile h 99.0 in
  check bool "p50 within 2%" true (abs_float (p50 -. 5000.0) < 120.0);
  check bool "p99 within 2%" true (abs_float (p99 -. 9900.0) < 220.0);
  check bool "p100 = max" true (Histogram.percentile h 100.0 = 10_000.0)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 10.0;
  Histogram.record b 1000.0;
  Histogram.merge_into ~src:a ~dst:b;
  check int "merged count" 2 (Histogram.count b);
  check (Alcotest.float 0.01) "merged max" 1000.0 (Histogram.max_value b)

let test_histogram_mean () =
  let h = Histogram.create () in
  Histogram.record_n h 10.0 3;
  Histogram.record h 70.0;
  check (Alcotest.float 0.001) "mean exact" 25.0 (Histogram.mean h)

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~name:"histogram percentiles monotone" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (float_bound_exclusive 1e6))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (fun v -> Histogram.record h (abs_float v)) samples;
      let ps = [ 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ] in
      let vals = List.map (Histogram.percentile h) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono vals)

(* ---------- Bitio ---------- *)

let test_bitio_roundtrip_fixed () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.put w 5L ~width:3;
  Bitio.Writer.put w 0L ~width:0;
  Bitio.Writer.put w 1023L ~width:10;
  Bitio.Writer.put w 0x1FFFFFFFFFFFFFFL ~width:57;
  let r = Bitio.Reader.create (Bitio.Writer.contents w) in
  check Alcotest.int64 "3 bits" 5L (Bitio.Reader.read r ~width:3);
  check Alcotest.int64 "0 bits" 0L (Bitio.Reader.read r ~width:0);
  check Alcotest.int64 "10 bits" 1023L (Bitio.Reader.read r ~width:10);
  check Alcotest.int64 "57 bits" 0x1FFFFFFFFFFFFFFL (Bitio.Reader.read r ~width:57)

let test_bitio_random_access () =
  let w = Bitio.Writer.create () in
  for i = 0 to 99 do
    Bitio.Writer.put w (Int64.of_int i) ~width:7
  done;
  let r = Bitio.Reader.create (Bitio.Writer.contents w) in
  check Alcotest.int64 "tuple 42" 42L (Bitio.Reader.get r ~at:(42 * 7) ~width:7);
  check Alcotest.int64 "tuple 99" 99L (Bitio.Reader.get r ~at:(99 * 7) ~width:7)

let test_bitio_align () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.put w 1L ~width:1;
  Bitio.Writer.align_byte w;
  check int "aligned to 8" 8 (Bitio.Writer.bit_length w);
  Bitio.Writer.align_byte w;
  check int "idempotent" 8 (Bitio.Writer.bit_length w)

let prop_bitio_roundtrip =
  QCheck.Test.make ~name:"bitio roundtrip arbitrary widths" ~count:300
    QCheck.(list_of_size Gen.(1 -- 100) (pair (int_bound 56) (map Int64.of_int (int_bound max_int))))
    (fun fields ->
      let fields = List.map (fun (w, v) -> (w + 1, Int64.logand v (Int64.sub (Int64.shift_left 1L (w + 1)) 1L))) fields in
      let wtr = Bitio.Writer.create () in
      List.iter (fun (w, v) -> Bitio.Writer.put wtr v ~width:w) fields;
      let r = Bitio.Reader.create (Bitio.Writer.contents wtr) in
      List.for_all (fun (w, v) -> Int64.equal (Bitio.Reader.read r ~width:w) v) fields)

(* ---------- Varint ---------- *)

let test_varint_edge_values () =
  let roundtrip v =
    let b = Buffer.create 10 in
    Varint.write b v;
    let got, next = Varint.read (Buffer.to_bytes b) ~pos:0 in
    check int "value" v got;
    check int "consumed" (Buffer.length b) next;
    (* [put] writes the same bytes in place, at any offset *)
    let placed = Bytes.make (Buffer.length b + 3) '-' in
    check int "put returns end" (Buffer.length b + 2) (Varint.put placed ~pos:2 v);
    check Alcotest.string "put bytes = write bytes"
      ("--" ^ Buffer.contents b ^ "-")
      (Bytes.to_string placed)
  in
  List.iter roundtrip [ 0; 1; 127; 128; 300; 16383; 16384; max_int ]

let test_varint_i64 () =
  let b = Buffer.create 10 in
  Varint.write_i64 b Int64.max_int;
  Varint.write_i64 b 0L;
  let v1, p = Varint.read_i64 (Buffer.to_bytes b) ~pos:0 in
  let v2, _ = Varint.read_i64 (Buffer.to_bytes b) ~pos:p in
  check Alcotest.int64 "max_int64" Int64.max_int v1;
  check Alcotest.int64 "zero" 0L v2

let test_varint_truncated () =
  Alcotest.check_raises "truncated raises" (Invalid_argument "Varint.read: truncated")
    (fun () -> ignore (Varint.read (Bytes.of_string "\x80") ~pos:0))

let test_varint_size () =
  List.iter
    (fun v ->
      let b = Buffer.create 10 in
      Varint.write b v;
      check int (Printf.sprintf "size %d" v) (Buffer.length b) (Varint.size v))
    [ 0; 127; 128; 16383; 16384; 1 lsl 40 ]

(* ---------- Heap ---------- *)

let test_heap_ordering () =
  let h = Heap.create ~cmp:Int.compare in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2; 7 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some v -> drain (v :: acc)
  in
  check (Alcotest.list int) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (drain [])

let test_heap_empty () =
  let h = Heap.create ~cmp:Int.compare in
  check bool "empty" true (Heap.is_empty h);
  check bool "pop none" true (Heap.pop h = None);
  check bool "peek none" true (Heap.peek h = None)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun l ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push h) l;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some v -> drain (v :: acc)
      in
      drain [] = List.sort compare l)

(* Clock's event queue totally orders events by (time, seq): equal-time
   events must pop in schedule order. The heap itself is not stable, so
   this property holds only because the comparator breaks ties — pin it
   with the exact (time, seq) shape Clock uses, interleaving pushes and
   pops the way the sim does. *)
let prop_heap_seq_tiebreak =
  QCheck.Test.make ~name:"heap pops equal-time events in seq order" ~count:200
    QCheck.(list_of_size Gen.(0 -- 100) (pair (int_bound 8) bool))
    (fun ops ->
      let cmp (t1, s1) (t2, s2) =
        let c = Int.compare t1 t2 in
        if c <> 0 then c else Int.compare s1 s2
      in
      let h = Heap.create ~cmp in
      let seq = ref 0 in
      let pushed = ref [] and popped = ref [] in
      List.iter
        (fun (time, do_pop) ->
          if do_pop then (
            match Heap.pop h with
            | Some e -> popped := e :: !popped
            | None -> ())
          else begin
            let e = (time, !seq) in
            incr seq;
            pushed := e :: !pushed;
            Heap.push h e
          end)
        ops;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some v -> drain (v :: acc)
      in
      let final = drain [] in
      (* the tail drained at the end is totally ordered... *)
      List.sort cmp final = final
      (* ...and nothing was lost or duplicated across the interleaving *)
      && List.sort cmp (!popped @ final) = List.sort cmp !pushed)

(* Regression for the pop retained-memory leak: slots [data.(size..cap))]
   used to keep popped elements reachable until a later push happened to
   overwrite them, so the sim's event queue pinned dead events (and their
   closures) up to the heap's high-water mark. After the fix, retention is
   bounded by the live set (vacated slots hold dups of live elements and
   the backing array shrinks at quarter occupancy), and a fully drained
   heap retains nothing at all. *)
let test_heap_pop_releases () =
  let high_water = 512 and live = 32 in
  let h = Heap.create ~cmp:(fun a b -> Int.compare !a !b) in
  for i = 1 to high_water do
    Heap.push h (ref i)
  done;
  let n_popped = high_water - live in
  let weaks = Weak.create n_popped in
  for i = 0 to n_popped - 1 do
    match Heap.pop h with
    | Some r -> Weak.set weaks i (Some r)
    | None -> Alcotest.fail "heap drained early"
  done;
  Gc.full_major ();
  let pinned () =
    let n = ref 0 in
    for i = 0 to n_popped - 1 do
      if Weak.check weaks i then incr n
    done;
    !n
  in
  check int "live elements remain" live (Heap.length h);
  (* the unfixed heap pins ~all 480 popped refs here (cap never shrinks
     below the high-water mark); the fixed one at most cap - size < 3x
     the live set *)
  check bool "retention bounded by live set, not high-water mark" true
    (pinned () <= 3 * live);
  let rec drain () = match Heap.pop h with Some _ -> drain () | None -> () in
  drain ();
  Gc.full_major ();
  check bool "empty heap" true (Heap.is_empty h);
  check int "a drained heap pins nothing" 0 (pinned ())

(* ---------- Lru ---------- *)

let test_lru_eviction () =
  let c = Lru.create ~capacity:3 in
  Lru.add c 1 "a";
  Lru.add c 2 "b";
  Lru.add c 3 "c";
  ignore (Lru.find c 1);
  (* 2 is now least recently used *)
  Lru.add c 4 "d";
  check bool "2 evicted" false (Lru.mem c 2);
  check bool "1 kept" true (Lru.mem c 1);
  check int "size" 3 (Lru.length c)

let test_lru_overwrite () =
  let c = Lru.create ~capacity:2 in
  Lru.add c 1 "a";
  Lru.add c 1 "b";
  check int "no duplicate" 1 (Lru.length c);
  check (Alcotest.option Alcotest.string) "updated" (Some "b") (Lru.find c 1)

let test_lru_remove () =
  let c = Lru.create ~capacity:2 in
  Lru.add c 1 "a";
  Lru.remove c 1;
  check int "removed" 0 (Lru.length c);
  Lru.remove c 99 (* removing absent key is fine *)

let test_lru_fold_order () =
  let c = Lru.create ~capacity:4 in
  Lru.add c 1 "a";
  Lru.add c 2 "b";
  Lru.add c 3 "c";
  ignore (Lru.find c 1);
  let keys = List.rev (Lru.fold (fun k _ acc -> k :: acc) c []) in
  check (Alcotest.list int) "mru first" [ 1; 3; 2 ] keys

let prop_lru_capacity =
  QCheck.Test.make ~name:"lru never exceeds capacity" ~count:100
    QCheck.(pair (int_range 1 16) (list_of_size Gen.(0 -- 200) (int_bound 50)))
    (fun (cap, keys) ->
      let c = Lru.create ~capacity:cap in
      List.iter (fun k -> Lru.add c k k) keys;
      Lru.length c <= cap)

(* ---------- Bloom ---------- *)

let test_bloom_no_false_negatives () =
  let b = Bloom.create ~expected:1000 () in
  for i = 0 to 999 do
    Bloom.add b (Printf.sprintf "key-%06d" i)
  done;
  for i = 0 to 999 do
    check bool "added key is member" true (Bloom.mem b (Printf.sprintf "key-%06d" i))
  done

let test_bloom_empty () =
  let b = Bloom.create ~expected:100 () in
  check bool "empty filter rejects" false (Bloom.mem b "anything");
  check int "no entries" 0 (Bloom.entries b)

let test_bloom_fp_rate_bounded () =
  (* 1% target; allow 5x slack so the test is seed-robust *)
  let b = Bloom.create ~expected:2000 () in
  for i = 0 to 1999 do
    Bloom.add b (Printf.sprintf "present-%06d" i)
  done;
  let fps = ref 0 in
  let probes = 20_000 in
  for i = 0 to probes - 1 do
    if Bloom.mem b (Printf.sprintf "absent-%06d" i) then incr fps
  done;
  let rate = float_of_int !fps /. float_of_int probes in
  check bool
    (Printf.sprintf "false-positive rate %.4f below 0.05" rate)
    true (rate < 0.05);
  (* optimally sized filters sit near 50% occupancy when full *)
  check bool "fill ratio sane" true (Bloom.fill_ratio b > 0.2 && Bloom.fill_ratio b < 0.8)

let test_bloom_binary_keys () =
  (* the block pyramid's keys are 16-byte be64^be64 strings with long
     shared prefixes and embedded NULs — the filter must not care *)
  let be64 v =
    let b = Bytes.create 8 in
    Bytes.set_int64_be b 0 (Int64.of_int v);
    Bytes.to_string b
  in
  let b = Bloom.create ~expected:512 () in
  for blk = 0 to 511 do
    Bloom.add b (be64 3 ^ be64 blk)
  done;
  for blk = 0 to 511 do
    check bool "binary key member" true (Bloom.mem b (be64 3 ^ be64 blk))
  done;
  let fps = ref 0 in
  for blk = 0 to 4095 do
    if Bloom.mem b (be64 4 ^ be64 blk) then incr fps
  done;
  check bool "other-medium keys mostly rejected" true (!fps < 205)

let prop_bloom_members =
  QCheck.Test.make ~name:"bloom has no false negatives" ~count:50
    QCheck.(list_of_size Gen.(1 -- 300) (string_gen_of_size Gen.(0 -- 24) Gen.printable))
    (fun keys ->
      let b = Bloom.create ~expected:(List.length keys) () in
      List.iter (Bloom.add b) keys;
      List.for_all (Bloom.mem b) keys)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "xxhash",
        [
          Alcotest.test_case "known vectors" `Quick test_xxhash_known_vectors;
          Alcotest.test_case "slice" `Quick test_xxhash_slice_matches_whole;
          Alcotest.test_case "truncate" `Quick test_xxhash_truncate;
          QCheck_alcotest.to_alcotest prop_xxhash_deterministic;
          QCheck_alcotest.to_alcotest prop_xxhash_seed_sensitivity;
          Alcotest.test_case "truncate_int" `Quick test_hash63_truncate_int;
          QCheck_alcotest.to_alcotest prop_hash63_fast_equals_ref;
        ] );
      ( "crc32c",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32c_known_vector;
          Alcotest.test_case "incremental" `Quick test_crc32c_incremental;
          Alcotest.test_case "rfc3720 suite" `Quick test_crc32c_rfc3720_suite;
          QCheck_alcotest.to_alcotest prop_crc32c_fast_equals_ref;
          QCheck_alcotest.to_alcotest prop_crc32c_incremental_equals_oneshot;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "single" `Quick test_histogram_single;
          Alcotest.test_case "percentile accuracy" `Quick test_histogram_percentile_accuracy;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "mean" `Quick test_histogram_mean;
          QCheck_alcotest.to_alcotest prop_histogram_percentile_monotone;
        ] );
      ( "bitio",
        [
          Alcotest.test_case "roundtrip fixed" `Quick test_bitio_roundtrip_fixed;
          Alcotest.test_case "random access" `Quick test_bitio_random_access;
          Alcotest.test_case "align" `Quick test_bitio_align;
          QCheck_alcotest.to_alcotest prop_bitio_roundtrip;
        ] );
      ( "varint",
        [
          Alcotest.test_case "edge values" `Quick test_varint_edge_values;
          Alcotest.test_case "int64" `Quick test_varint_i64;
          Alcotest.test_case "truncated" `Quick test_varint_truncated;
          Alcotest.test_case "size" `Quick test_varint_size;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "pop releases elements" `Quick test_heap_pop_releases;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_seq_tiebreak;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction" `Quick test_lru_eviction;
          Alcotest.test_case "overwrite" `Quick test_lru_overwrite;
          Alcotest.test_case "remove" `Quick test_lru_remove;
          Alcotest.test_case "fold order" `Quick test_lru_fold_order;
          QCheck_alcotest.to_alcotest prop_lru_capacity;
        ] );
      ( "bloom",
        [
          Alcotest.test_case "no false negatives" `Quick test_bloom_no_false_negatives;
          Alcotest.test_case "empty" `Quick test_bloom_empty;
          Alcotest.test_case "fp rate bounded" `Quick test_bloom_fp_rate_bounded;
          Alcotest.test_case "binary keys" `Quick test_bloom_binary_keys;
          QCheck_alcotest.to_alcotest prop_bloom_members;
        ] );
    ]
