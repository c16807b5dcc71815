(* Unit tests for the small core-support modules: key encodings, block
   references, the boot region, and the metadata log / NVRAM record
   codec. *)

module Clock = Purity_sim.Clock
module Keys = Purity_core.Keys
module Blockref = Purity_core.Blockref
module Boot = Purity_core.Boot_region
module Meta_log = Purity_core.Meta_log
module Fact = Purity_pyramid.Fact

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ---------- Keys ---------- *)

let test_block_key_roundtrip () =
  let k = Keys.block_key ~medium:42 ~block:99999 in
  check int "key width" 16 (String.length k);
  check int "medium" 42 (Keys.block_key_medium k);
  check int "block" 99999 (Keys.block_key_block k)

let test_block_key_ordering () =
  (* byte order must equal (medium, block) order for range scans *)
  let pairs = [ (1, 5); (1, 6); (1, 100000); (2, 0); (2, 7); (300, 1) ] in
  let keys = List.map (fun (m, b) -> Keys.block_key ~medium:m ~block:b) pairs in
  let sorted = List.sort compare keys in
  check bool "lexicographic = numeric" true (keys = sorted)

let test_medium_segment_keys () =
  check int "medium id" 77 (Keys.medium_key_id (Keys.medium_key 77));
  check int "segment id" 123456 (Keys.segment_key_id (Keys.segment_key 123456))

let prop_block_key_injective =
  QCheck.Test.make ~name:"block keys are injective" ~count:200
    QCheck.(pair (pair (int_bound 10000) (int_bound 100000)) (pair (int_bound 10000) (int_bound 100000)))
    (fun ((m1, b1), (m2, b2)) ->
      let k1 = Keys.block_key ~medium:m1 ~block:b1 in
      let k2 = Keys.block_key ~medium:m2 ~block:b2 in
      (k1 = k2) = (m1 = m2 && b1 = b2))

(* ---------- Blockref ---------- *)

let test_blockref_roundtrip () =
  let r = { Blockref.segment = 9001; off = 123456; stored_len = 8201; index = 63 } in
  let r2 = Blockref.decode (Blockref.encode r) in
  check bool "roundtrip" true (r = r2)

let test_blockref_same_cblock () =
  let a = { Blockref.segment = 5; off = 100; stored_len = 900; index = 0 } in
  let b = { a with Blockref.index = 7 } in
  let c = { a with Blockref.off = 200 } in
  check bool "same cblock ignores index" true (Blockref.same_cblock a b);
  check bool "different offset differs" false (Blockref.same_cblock a c)

let prop_blockref_roundtrip =
  QCheck.Test.make ~name:"blockref roundtrip" ~count:200
    QCheck.(quad (int_bound 100000) (int_bound 10_000_000) (int_bound 40000) (int_bound 64))
    (fun (segment, off, stored_len, index) ->
      let r = { Blockref.segment; off; stored_len; index } in
      Blockref.decode (Blockref.encode r) = r)

(* ---------- Boot region ---------- *)

let test_boot_empty_reads_none () =
  let clock = Clock.create () in
  let b = Boot.create ~clock () in
  let got = ref (Some "sentinel") in
  Boot.read b (fun r -> got := r);
  Clock.run clock;
  check bool "factory fresh" true (!got = None)

let test_boot_write_then_read () =
  let clock = Clock.create () in
  let b = Boot.create ~clock () in
  Boot.write b "blob-1" (fun () -> ());
  Boot.write b "blob-2" (fun () -> ());
  let got = ref None in
  Boot.read b (fun r -> got := r);
  Clock.run clock;
  check (Alcotest.option Alcotest.string) "latest blob wins" (Some "blob-2") !got;
  check int "write count" 2 (Boot.writes b)

let test_boot_latency_charged () =
  let clock = Clock.create () in
  let b = Boot.create ~write_us:600.0 ~clock () in
  let done_at = ref 0.0 in
  Boot.write b "x" (fun () -> done_at := Clock.now clock);
  Clock.run clock;
  check bool "write took simulated time" true (!done_at >= 600.0)

(* ---------- Meta_log ---------- *)

let long_key = String.init 130 (fun i -> Char.chr (97 + (i mod 26)))
let f_volume = Fact.make ~key:"vol-a" ~value:"V\x05\x80\x01" ~seq:300L
let f_tomb = Fact.tombstone ~key:long_key ~seq:5L
let f_wide = Fact.make ~key:"\x00\x00\x00\x07" ~value:"" ~seq:0x1_0000_0000L

(* Every record kind against the bytes the encoders wrote before the
   codec was gathered into one module: the formats are on media, so they
   must not drift. *)
let golden_log =
  Meta_log.
    [
      ( Fact (Volumes, f_volume),
        "\x56\xac\x02\x05\x76\x6f\x6c\x2d\x61\x01\x04\x56\x05\x80\x01" );
      (Fact (Blocks, f_tomb), "\x42\x05\x82\x01" ^ long_key ^ "\x00");
      (Fact (Segments, f_wide), "\x53\x80\x80\x80\x80\x10\x04\x00\x00\x00\x07\x01\x00");
      (Elide (Mediums, { seq = 301L; lo = 7; hi = 9 }), "\x65\x4d\xad\x02\x07\x09");
      (Elide (Blocks, { seq = 1L; lo = 0; hi = 200 }), "\x65\x42\x01\x00\xc8\x01");
    ]

let golden_nvram =
  Meta_log.
    [
      ( Stash (Fact (Volumes, f_volume)),
        "\x46\x56\xac\x02\x05\x76\x6f\x6c\x2d\x61\x01\x04\x56\x05\x80\x01" );
      (Stash (Fact (Mediums, f_tomb)), "\x46\x4d\x05\x82\x01" ^ long_key ^ "\x00");
      ( Stash (Fact (Segments, f_wide)),
        "\x46\x53\x80\x80\x80\x80\x10\x04\x00\x00\x00\x07\x01\x00" );
      (Stash (Elide (Mediums, { seq = 301L; lo = 7; hi = 9 })), "\x45\x4d\xad\x02\x07\x09");
      (Stash (Elide (Volumes, { seq = 1L; lo = 0; hi = 200 })), "\x45\x56\x01\x00\xc8\x01");
      (Intent { medium = 3; block = 200; data = "abc" }, "\x57\x03\xc8\x01\x03\x61\x62\x63");
      (Intent { medium = 130; block = 0; data = "" }, "\x57\x82\x01\x00\x00");
    ]

let test_meta_log_golden () =
  List.iter
    (fun (m, bytes) ->
      check Alcotest.string "log record bytes" bytes (Meta_log.encode_log m);
      check bool "log record decodes" true (Meta_log.decode_log bytes = Some m))
    golden_log;
  List.iter
    (fun (r, bytes) ->
      check Alcotest.string "NVRAM record bytes" bytes (Meta_log.encode_nvram r);
      check bool "NVRAM record decodes" true (Meta_log.decode_nvram bytes = Some r))
    golden_nvram;
  List.iter
    (fun t ->
      check bool "table name roundtrip" true
        (Meta_log.table_of_name (Meta_log.name t) = Some t))
    Meta_log.tables;
  (* each framing is its own: a log record is not an NVRAM record *)
  check bool "log fact is no stash" true (Meta_log.decode_nvram (snd (List.hd golden_log)) = None);
  check bool "stash is no log record" true (Meta_log.decode_log (snd (List.hd golden_nvram)) = None)

let gen_meta =
  let open QCheck.Gen in
  let nat = map (fun i -> i land max_int) int in
  let small_or_wide g = oneof [ small_nat; g ] in
  let table = oneofl Meta_log.tables in
  let fact =
    map3
      (fun key value seq -> { Fact.key; value; seq })
      (string_size (int_bound 140)) (opt (string_size (int_bound 200))) ui64
  in
  let elide =
    map3 (fun seq lo hi -> { Meta_log.seq; lo; hi }) ui64 (small_or_wide nat) (small_or_wide nat)
  in
  oneof
    [
      map2 (fun t f -> Meta_log.Fact (t, f)) table fact;
      map2 (fun t e -> Meta_log.Elide (t, e)) table elide;
    ]

let gen_nvram =
  let open QCheck.Gen in
  let nat = map (fun i -> i land max_int) int in
  oneof
    [
      map (fun m -> Meta_log.Stash m) gen_meta;
      map3
        (fun medium block data -> Meta_log.Intent { medium; block; data })
        (oneof [ small_nat; nat ]) (oneof [ small_nat; nat ]) (string_size (int_bound 600));
    ]

let prop_log_roundtrip =
  QCheck.Test.make ~name:"log record roundtrip" ~count:500 (QCheck.make gen_meta) (fun m ->
      Meta_log.decode_log (Meta_log.encode_log m) = Some m)

let prop_nvram_roundtrip =
  QCheck.Test.make ~name:"NVRAM record roundtrip" ~count:500 (QCheck.make gen_nvram) (fun r ->
      let bytes = Meta_log.encode_nvram r in
      (match r with
      | Intent { medium; block; data } ->
        String.length bytes = Meta_log.intent_size ~medium ~block (String.length data)
      | Stash _ -> true)
      && Meta_log.decode_nvram bytes = Some r)

(* Damage a valid encoding: cut it short, flip one bit, or splice a piece
   of another encoding into it. *)
let gen_mutated gen encode =
  let open QCheck.Gen in
  let* s = map encode gen in
  let n = String.length s in
  oneof
    [
      map (fun k -> String.sub s 0 (k mod (n + 1))) nat;
      map2
        (fun i b ->
          let bytes = Bytes.of_string s in
          let i = i mod n in
          Bytes.set bytes i (Char.chr (Char.code s.[i] lxor (1 lsl (b mod 8))));
          Bytes.to_string bytes)
        nat nat;
      map3
        (fun other i j ->
          let i = i mod (n + 1) and j = j mod (String.length other + 1) in
          String.sub s 0 i ^ String.sub other j (String.length other - j))
        (map encode gen) nat nat;
    ]

(* A decoder never raises on damaged input: it says "not a record", or
   returns a record whose encoding is exactly the input. *)
let prop_log_mutation =
  QCheck.Test.make ~name:"log decoder total on damaged records" ~count:2000
    (QCheck.make (gen_mutated gen_meta Meta_log.encode_log))
    (fun s ->
      match Meta_log.decode_log s with
      | None -> true
      | Some m -> String.equal (Meta_log.encode_log m) s)

let prop_nvram_mutation =
  QCheck.Test.make ~name:"NVRAM decoder total on damaged records" ~count:2000
    (QCheck.make (gen_mutated gen_nvram Meta_log.encode_nvram))
    (fun s ->
      match Meta_log.decode_nvram s with
      | None -> true
      | Some r -> String.equal (Meta_log.encode_nvram r) s)

let () =
  Alcotest.run "core-parts"
    [
      ( "keys",
        [
          Alcotest.test_case "block key roundtrip" `Quick test_block_key_roundtrip;
          Alcotest.test_case "ordering" `Quick test_block_key_ordering;
          Alcotest.test_case "medium/segment" `Quick test_medium_segment_keys;
          QCheck_alcotest.to_alcotest prop_block_key_injective;
        ] );
      ( "blockref",
        [
          Alcotest.test_case "roundtrip" `Quick test_blockref_roundtrip;
          Alcotest.test_case "same cblock" `Quick test_blockref_same_cblock;
          QCheck_alcotest.to_alcotest prop_blockref_roundtrip;
        ] );
      ( "boot_region",
        [
          Alcotest.test_case "empty" `Quick test_boot_empty_reads_none;
          Alcotest.test_case "write then read" `Quick test_boot_write_then_read;
          Alcotest.test_case "latency" `Quick test_boot_latency_charged;
        ] );
      ( "meta_log",
        [
          Alcotest.test_case "golden bytes" `Quick test_meta_log_golden;
          QCheck_alcotest.to_alcotest prop_log_roundtrip;
          QCheck_alcotest.to_alcotest prop_nvram_roundtrip;
          QCheck_alcotest.to_alcotest prop_log_mutation;
          QCheck_alcotest.to_alcotest prop_nvram_mutation;
        ] );
    ]
