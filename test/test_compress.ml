module Lz = Purity_compress.Lz
module Cblock = Purity_compress.Cblock

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let str = Alcotest.string

let roundtrip s =
  let c = Lz.compress s in
  Lz.decompress c ~expected_len:(String.length s)

let test_lz_empty () = check str "empty" "" (roundtrip "")
let test_lz_single_byte () = check str "one byte" "x" (roundtrip "x")
let test_lz_short () = check str "short" "abc" (roundtrip "abc")

let test_lz_repetitive_compresses () =
  let s = String.concat "" (List.init 200 (fun _ -> "the quick brown fox ")) in
  let c = Lz.compress s in
  check str "roundtrip" s (Lz.decompress c ~expected_len:(String.length s));
  check bool "compresses >5x" true (String.length c * 5 < String.length s)

let test_lz_rle_overlap () =
  (* Overlapping-copy case: long run of one byte. *)
  let s = String.make 10_000 'z' in
  let c = Lz.compress s in
  check str "roundtrip" s (Lz.decompress c ~expected_len:10_000);
  check bool "tiny output" true (String.length c < 100)

let test_lz_incompressible () =
  let rng = Purity_util.Rng.create ~seed:55L in
  let s = Bytes.to_string (Purity_util.Rng.bytes rng 4096) in
  check str "roundtrip random" s (roundtrip s)

let test_lz_long_literal_run () =
  (* >15 literals forces length extension bytes. *)
  let s = String.init 300 (fun i -> Char.chr ((i * 7) mod 256)) in
  check str "roundtrip" s (roundtrip s)

let test_lz_long_match () =
  (* Match length >> 19 forces match extension bytes. *)
  let unit = "abcdefgh" in
  let s = "prefix-" ^ String.concat "" (List.init 1000 (fun _ -> unit)) in
  check str "roundtrip" s (roundtrip s)

let test_lz_binary_with_zeros () =
  let s = String.make 100 '\000' ^ "data" ^ String.make 100 '\000' in
  check str "roundtrip" s (roundtrip s)

let test_lz_bad_input_rejected () =
  (* An offset pointing before the start of output must be rejected. *)
  let bogus = "\x04AAAA\x10\x00" in
  (match Lz.decompress bogus ~expected_len:100 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection");
  (* Wrong expected length must be rejected. *)
  let c = Lz.compress "hello world" in
  match Lz.decompress c ~expected_len:5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected length mismatch rejection"

let test_lz_ratio () =
  check bool "compressible ratio > 2" true (Lz.ratio (String.make 1000 'a') > 2.0);
  check bool "empty ratio 1" true (Lz.ratio "" = 1.0)

let prop_lz_roundtrip_random =
  QCheck.Test.make ~name:"lz roundtrip arbitrary strings" ~count:500
    QCheck.(string_of_size Gen.(0 -- 2000))
    (fun s -> roundtrip s = s)

let prop_lz_roundtrip_structured =
  (* Strings built from a tiny alphabet create pathological match patterns. *)
  QCheck.Test.make ~name:"lz roundtrip low-entropy strings" ~count:500
    QCheck.(string_gen_of_size Gen.(0 -- 3000) (Gen.oneofl [ 'a'; 'b' ]))
    (fun s -> roundtrip s = s)

(* The fast and reference kernels must produce byte-identical output —
   not just roundtrip-equal — so one generator is shared across several
   input shapes (random, low-entropy, RLE, text-like). *)
let fast_equals_ref s =
  let c_fast = Lz.compress s in
  let c_ref = Lz.compress_ref s in
  c_fast = c_ref
  && Lz.decompress c_fast ~expected_len:(String.length s)
     = Lz.decompress_ref c_fast ~expected_len:(String.length s)

let prop_lz_fast_equals_ref_random =
  QCheck.Test.make ~name:"lz word kernel equals byte kernel (random)" ~count:300
    QCheck.(string_of_size Gen.(0 -- 2000))
    fast_equals_ref

let prop_lz_fast_equals_ref_low_entropy =
  QCheck.Test.make ~name:"lz word kernel equals byte kernel (low entropy)" ~count:300
    QCheck.(string_gen_of_size Gen.(0 -- 3000) (Gen.oneofl [ 'a'; 'b' ]))
    fast_equals_ref

let texty =
  String.concat ""
    (List.init 40 (fun i ->
         Printf.sprintf "row|id=%08d|st=ACTIVE |bal=000042|name=customer_%04d|" i (i mod 7919)))

let random_bytes rng n = Bytes.to_string (Purity_util.Rng.bytes rng n)

let test_lz_fast_equals_ref_shapes () =
  let rng = Purity_util.Rng.create ~seed:77L in
  List.iter
    (fun s -> check bool "identical output" true (fast_equals_ref s))
    [
      String.make 10_000 'z';
      (* odd lengths around the word-loop boundaries *)
      String.sub texty 0 63;
      String.sub texty 3 129;
      texty;
      random_bytes rng 4097;
      (* a whole cblock with no match: the step grows every 512 misses *)
      random_bytes rng (32 * 1024);
      (* the first match comes after a miss streak longer than a sector *)
      random_bytes rng 600 ^ texty;
      (* a sector-sized incompressible block between compressible ones *)
      texty ^ random_bytes rng 512 ^ texty;
    ]

(* After a long miss streak the scan strides, but the text that follows
   is still found: the random prefix costs little more than its own
   bytes and everything after it compresses. *)
let test_lz_skip_resumes_matching () =
  let rng = Purity_util.Rng.create ~seed:78L in
  let text = String.concat "" (List.init 8 (fun _ -> texty)) in
  let s = random_bytes rng 2048 ^ text in
  let c = Lz.compress s in
  check str "roundtrip" s (Lz.decompress c ~expected_len:(String.length s));
  check bool "text after the streak compresses" true
    (String.length c < 2048 + (String.length text / 4))

let prop_lz_random_prefix_then_text =
  QCheck.Test.make ~name:"lz random prefix then repeated text: roundtrip, fast = ref"
    ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 2048)) (int_range 1 6))
    (fun (prefix, reps) ->
      let s = prefix ^ String.concat "" (List.init reps (fun _ -> texty)) in
      roundtrip s = s && fast_equals_ref s)

let test_lz_scratch_reuse_deterministic () =
  (* Reusing one scratch across many inputs must not leak state between
     calls: each compress must equal a fresh-scratch compress. *)
  let scratch = Lz.create_scratch () in
  let rng = Purity_util.Rng.create ~seed:99L in
  for i = 0 to 20 do
    let s =
      if i mod 3 = 0 then Bytes.to_string (Purity_util.Rng.bytes rng (17 * (i + 1)))
      else String.concat "" (List.init (i + 1) (fun j -> Printf.sprintf "chunk-%d-%d " i j))
    in
    check str "scratch reuse" (Lz.compress s) (Lz.compress ~scratch s)
  done

(* ---------- Cblock ---------- *)

let test_cblock_roundtrip_compressible () =
  let data = String.concat "" (List.init 64 (fun _ -> "0123456789abcdef")) in
  let cb = Cblock.of_data data in
  check bool "chose lz" true (cb.Cblock.encoding = Cblock.Lz);
  check str "data back" data (Cblock.data cb);
  check bool "reduction > 1" true (Cblock.reduction cb > 1.0)

let test_cblock_raw_fallback () =
  let rng = Purity_util.Rng.create ~seed:77L in
  let data = Bytes.to_string (Purity_util.Rng.bytes rng 512) in
  let cb = Cblock.of_data data in
  check bool "fell back to raw" true (cb.Cblock.encoding = Cblock.Raw);
  check str "data back" data (Cblock.data cb)

(* The write path's framing of an incompressible 32 KiB run: the
   compressor strides through it, and the frame still falls back to Raw. *)
let test_cblock_add_frame_into_random_is_raw () =
  let rng = Purity_util.Rng.create ~seed:79L in
  let data = Bytes.to_string (Purity_util.Rng.bytes rng Cblock.max_logical) in
  let buf = Buffer.create (Cblock.max_logical + 16) in
  let scratch = Lz.create_scratch () in
  let size = Cblock.add_frame_into ~scratch ~compress:true buf data in
  let cb, next = Cblock.decode (Buffer.to_bytes buf) ~pos:0 in
  check int "frame size" size next;
  check bool "raw frame" true (cb.Cblock.encoding = Cblock.Raw);
  check str "data back" data (Cblock.data cb)

let test_cblock_frame_roundtrip () =
  let blocks = [ "hello"; String.make 512 'q'; ""; "final block of data" ] in
  let buf = Buffer.create 256 in
  List.iter (fun d -> Cblock.encode buf (Cblock.of_data d)) blocks;
  let raw = Buffer.to_bytes buf in
  let rec decode_all pos acc =
    if pos >= Bytes.length raw then List.rev acc
    else begin
      let cb, next = Cblock.decode raw ~pos in
      decode_all next (Cblock.data cb :: acc)
    end
  in
  check (Alcotest.list str) "all frames" blocks (decode_all 0 [])

let test_cblock_crc_detects_corruption () =
  let buf = Buffer.create 64 in
  Cblock.encode buf (Cblock.of_data (String.make 256 'k'));
  let raw = Buffer.to_bytes buf in
  (* flip a payload byte (last byte is always payload for non-empty data) *)
  let n = Bytes.length raw in
  Bytes.set_uint8 raw (n - 1) (Bytes.get_uint8 raw (n - 1) lxor 0xFF);
  match Cblock.decode raw ~pos:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "corruption not detected"

let test_cblock_max_size_enforced () =
  Alcotest.check_raises "33 KiB rejected"
    (Invalid_argument "Cblock.of_data: larger than 32 KiB") (fun () ->
      ignore (Cblock.of_data (String.make ((32 * 1024) + 1) 'x')))

let test_cblock_512b_min_granularity () =
  (* Paper: 512 B is the minimum dedup/compress unit; a 512 B cblock works. *)
  let data = String.make 512 '\000' in
  let cb = Cblock.of_data data in
  check int "logical len" 512 cb.Cblock.logical_len;
  check str "roundtrip" data (Cblock.data cb)

let prop_cblock_roundtrip =
  QCheck.Test.make ~name:"cblock roundtrip arbitrary data" ~count:300
    QCheck.(string_of_size Gen.(0 -- 4096))
    (fun s ->
      let buf = Buffer.create 64 in
      Cblock.encode buf (Cblock.of_data s);
      let cb, consumed = Cblock.decode (Buffer.to_bytes buf) ~pos:0 in
      Cblock.data cb = s && consumed = Buffer.length buf)

let prop_cblock_never_expands_much =
  (* Raw fallback bounds expansion to the frame header. *)
  QCheck.Test.make ~name:"cblock stored size bounded" ~count:200
    QCheck.(string_of_size Gen.(1 -- 4096))
    (fun s ->
      let cb = Cblock.of_data s in
      Cblock.stored_size cb <= String.length s + 16)

let prop_cblock_add_frame_equals_encode =
  (* The zero-alloc framing path must be byte-identical to the boxed
     [of_data] + [encode] path, including the raw-fallback branch. *)
  QCheck.Test.make ~name:"cblock add_frame equals encode (of_data)" ~count:200
    QCheck.(string_of_size Gen.(0 -- 4096))
    (fun s ->
      let scratch = Lz.create_scratch () in
      let direct = Buffer.create 64 in
      let n = Cblock.add_frame ~scratch direct s in
      let boxed = Buffer.create 64 in
      Cblock.encode boxed (Cblock.of_data s);
      n = Buffer.length direct && Buffer.contents direct = Buffer.contents boxed)

let () =
  Alcotest.run "compress"
    [
      ( "lz",
        [
          Alcotest.test_case "empty" `Quick test_lz_empty;
          Alcotest.test_case "single byte" `Quick test_lz_single_byte;
          Alcotest.test_case "short" `Quick test_lz_short;
          Alcotest.test_case "repetitive compresses" `Quick test_lz_repetitive_compresses;
          Alcotest.test_case "rle overlap" `Quick test_lz_rle_overlap;
          Alcotest.test_case "incompressible" `Quick test_lz_incompressible;
          Alcotest.test_case "long literal run" `Quick test_lz_long_literal_run;
          Alcotest.test_case "long match" `Quick test_lz_long_match;
          Alcotest.test_case "binary zeros" `Quick test_lz_binary_with_zeros;
          Alcotest.test_case "bad input rejected" `Quick test_lz_bad_input_rejected;
          Alcotest.test_case "ratio" `Quick test_lz_ratio;
          QCheck_alcotest.to_alcotest prop_lz_roundtrip_random;
          QCheck_alcotest.to_alcotest prop_lz_roundtrip_structured;
          Alcotest.test_case "fast equals ref shapes" `Quick test_lz_fast_equals_ref_shapes;
          Alcotest.test_case "skip resumes matching" `Quick test_lz_skip_resumes_matching;
          QCheck_alcotest.to_alcotest prop_lz_random_prefix_then_text;
          Alcotest.test_case "scratch reuse deterministic" `Quick test_lz_scratch_reuse_deterministic;
          QCheck_alcotest.to_alcotest prop_lz_fast_equals_ref_random;
          QCheck_alcotest.to_alcotest prop_lz_fast_equals_ref_low_entropy;
        ] );
      ( "cblock",
        [
          Alcotest.test_case "roundtrip compressible" `Quick test_cblock_roundtrip_compressible;
          Alcotest.test_case "raw fallback" `Quick test_cblock_raw_fallback;
          Alcotest.test_case "add_frame_into random is raw" `Quick
            test_cblock_add_frame_into_random_is_raw;
          Alcotest.test_case "frame stream" `Quick test_cblock_frame_roundtrip;
          Alcotest.test_case "crc detects corruption" `Quick test_cblock_crc_detects_corruption;
          Alcotest.test_case "max size enforced" `Quick test_cblock_max_size_enforced;
          Alcotest.test_case "512B granularity" `Quick test_cblock_512b_min_granularity;
          QCheck_alcotest.to_alcotest prop_cblock_roundtrip;
          QCheck_alcotest.to_alcotest prop_cblock_never_expands_much;
          QCheck_alcotest.to_alcotest prop_cblock_add_frame_equals_encode;
        ] );
    ]
