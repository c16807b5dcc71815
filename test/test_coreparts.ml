(* Unit tests for the small core-support modules: key encodings, block
   references, the boot region, and the metadata log / NVRAM record
   codec. *)

module Clock = Purity_sim.Clock
module Keys = Purity_core.Keys
module Blockref = Purity_core.Blockref
module Boot = Purity_core.Boot_region
module Meta_log = Purity_core.Meta_log
module Block_index = Purity_core.Block_index
module Fact = Purity_pyramid.Fact
module Segment = Purity_segment.Segment
module State = Purity_core.State
module Ranges = Purity_encoding.Ranges

(* The block index's key and value codecs, on strings. *)
let block_key ~medium ~block =
  let b = Buffer.create 16 in
  Keys.Block.write b (medium, block);
  Buffer.contents b

let parse_block_key k = Keys.Block.read (Bytes.of_string k) ~pos:0 ~len:(String.length k)

let blockref_encode r =
  let b = Buffer.create 12 in
  Blockref.write b r;
  Buffer.contents b

let blockref_decode s = Blockref.read (Bytes.of_string s) ~pos:0 ~len:(String.length s)
module Medium = Purity_medium.Medium

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ---------- Keys ---------- *)

let test_block_key_roundtrip () =
  let k = block_key ~medium:42 ~block:99999 in
  check int "key width" 16 (String.length k);
  check bool "parses back" true (parse_block_key k = Some (42, 99999));
  check bool "max_int block" true
    (parse_block_key (block_key ~medium:0 ~block:max_int) = Some (0, max_int))

(* Only a 16-byte string whose halves are sign-extended 63-bit ints is a
   block key. *)
let test_block_key_rejects () =
  let k = block_key ~medium:42 ~block:99999 in
  check bool "short" true (parse_block_key (String.sub k 0 15) = None);
  check bool "long" true (parse_block_key (k ^ "\x00") = None);
  check bool "empty" true (parse_block_key "" = None);
  check bool "half beyond 63 bits" true
    (parse_block_key ("\x40" ^ String.sub k 1 15) = None);
  check bool "sign bit without bit 62" true
    (parse_block_key ("\x80" ^ String.sub k 1 15) = None);
  check bool "negative half is an int" true
    (parse_block_key (block_key ~medium:(-1) ~block:7) = Some (-1, 7))

let test_block_key_ordering () =
  (* byte order must equal (medium, block) order for range scans *)
  let pairs = [ (1, 5); (1, 6); (1, 100000); (2, 0); (2, 7); (300, 1) ] in
  let keys = List.map (fun (m, b) -> block_key ~medium:m ~block:b) pairs in
  let sorted = List.sort compare keys in
  check bool "lexicographic = numeric" true (keys = sorted)

(* The in-memory order of the block index must be the bytewise order of
   its encoded keys: serialised patches are sorted. *)
let prop_block_key_order =
  let half = QCheck.Gen.(oneof [ return 0; return max_int; return min_int; small_nat; int ]) in
  QCheck.Test.make ~name:"typed block-key order = bytewise key order" ~count:1000
    (QCheck.make QCheck.Gen.(pair (pair half half) (pair half half)))
    (fun (((m1, b1) as a), ((m2, b2) as b)) ->
      let sign x = compare x 0 in
      sign (Keys.Block.compare a b)
      = sign (String.compare (block_key ~medium:m1 ~block:b1) (block_key ~medium:m2 ~block:b2))
      && Keys.Block.equal a b = (Keys.Block.compare a b = 0))

let test_medium_segment_keys () =
  check int "medium id" 77 (Keys.medium_key_id (Keys.medium_key 77));
  check int "segment id" 123456 (Keys.segment_key_id (Keys.segment_key 123456))

let prop_block_key_injective =
  QCheck.Test.make ~name:"block keys are injective" ~count:200
    QCheck.(pair (pair (int_bound 10000) (int_bound 100000)) (pair (int_bound 10000) (int_bound 100000)))
    (fun ((m1, b1), (m2, b2)) ->
      let k1 = block_key ~medium:m1 ~block:b1 in
      let k2 = block_key ~medium:m2 ~block:b2 in
      (k1 = k2) = (m1 = m2 && b1 = b2))

(* ---------- Blockref ---------- *)

let test_blockref_roundtrip () =
  let r = { Blockref.segment = 9001; off = 123456; stored_len = 8201; index = 63 } in
  check bool "roundtrip" true (blockref_decode (blockref_encode r) = Some r);
  check int "size" (String.length (blockref_encode r)) (Blockref.size r)

(* Anything but exactly four shortest-encoding varints is rejected. *)
let test_blockref_rejects () =
  let e = blockref_encode { Blockref.segment = 9001; off = 123456; stored_len = 8201; index = 63 } in
  check bool "empty" true (blockref_decode "" = None);
  check bool "truncated" true (blockref_decode (String.sub e 0 (String.length e - 1)) = None);
  check bool "trailing byte" true (blockref_decode (e ^ "\x00") = None);
  check bool "overlong varint" true (blockref_decode "\x80\x00\x01\x02\x03" = None);
  check bool "three fields" true (blockref_decode "\x01\x02\x03" = None)

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
      blockref_decode (blockref_encode r) = Some r)

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
  check int "write count" 2 (Purity_telemetry.Registry.value (Boot.writes b))

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

let f_block =
  Block_index.Fact.make ~key:(3, 200)
    ~value:{ Blockref.segment = 9001; off = 123456; stored_len = 8201; index = 63 }
    ~seq:70000L

let f_block_edge =
  Block_index.Fact.make ~key:(0, max_int)
    ~value:{ Blockref.segment = 0; off = 127; stored_len = 128; index = 0 }
    ~seq:1L

(* Every record kind against the bytes the encoders wrote before the
   codec was gathered into one module: the formats are on media, so they
   must not drift. *)
let golden_log =
  Meta_log.
    [
      ( Fact (Volumes, f_volume),
        "\x56\xac\x02\x05\x76\x6f\x6c\x2d\x61\x01\x04\x56\x05\x80\x01" );
      (Fact (Volumes, f_tomb), "\x56\x05\x82\x01" ^ long_key ^ "\x00");
      ( Block f_block,
        "\x42\xf0\xa2\x04\x10\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\xc8\x01\x08\xa9\x46\xc0\xc4\x07\x89\x40\x3f"
      );
      ( Block f_block_edge,
        "\x42\x01\x10\x00\x00\x00\x00\x00\x00\x00\x00\x3f\xff\xff\xff\xff\xff\xff\xff\x01\x05\x00\x7f\x80\x01\x00"
      );
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

(* 'B' records that are no block-index fact. The first was a valid
   record when every table was string-keyed; block facts are never
   tombstones, and their keys are 16 bytes. *)
let not_block_records =
  [
    ("130-byte-key block tombstone", "\x42\x05\x82\x01" ^ long_key ^ "\x00");
    ( "16-byte-key block tombstone",
      "\x42\x05\x10" ^ block_key ~medium:3 ~block:200 ^ "\x00" );
    ("15-byte block key", "\x42\x05\x0f" ^ String.sub (block_key ~medium:3 ~block:200) 1 15 ^ "\x01\x04\x01\x02\x03\x04");
    ( "blockref with a trailing byte",
      "\x42\x05\x10" ^ block_key ~medium:3 ~block:200 ^ "\x01\x05\x01\x02\x03\x04\x05" );
    ( "overlong blockref varint",
      "\x42\x05\x10" ^ block_key ~medium:3 ~block:200 ^ "\x01\x05\x81\x00\x02\x03\x04" );
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
  List.iter
    (fun (why, bytes) -> check bool why true (Meta_log.decode_log bytes = None))
    not_block_records;
  (* each framing is its own: a log record is not an NVRAM record *)
  check bool "log fact is no stash" true (Meta_log.decode_nvram (snd (List.hd golden_log)) = None);
  check bool "stash is no log record" true (Meta_log.decode_log (snd (List.hd golden_nvram)) = None)

(* Block-index fields at 0, max_int (replication's range bound) and on
   every varint byte boundary. *)
let gen_edge =
  QCheck.Gen.(oneof [ map (fun i -> i land max_int) int; oneofl [ 0; 127; 128; 16383; 16384; max_int ] ])

let gen_blockref =
  QCheck.Gen.(
    map
      (fun (segment, off, stored_len, index) -> { Blockref.segment; off; stored_len; index })
      (quad gen_edge gen_edge gen_edge gen_edge))

let gen_block_fact =
  QCheck.Gen.(
    map3
      (fun key value seq -> Block_index.Fact.make ~key ~value ~seq)
      (pair gen_edge gen_edge) gen_blockref ui64)

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
      map2 (fun t f -> Meta_log.Fact (t, f)) (oneofl Meta_log.[ Mediums; Segments; Volumes ]) fact;
      map (fun f -> Meta_log.Block f) gen_block_fact;
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

(* The block-index codecs: each damaged encoding is rejected or re-encodes
   to exactly itself. *)
let prop_block_record_mutation =
  QCheck.Test.make ~name:"block fact records: decoder total on damage" ~count:2000
    (QCheck.make (gen_mutated gen_block_fact (fun f -> Meta_log.encode_log (Block f))))
    (fun s ->
      match Meta_log.decode_log s with
      | None -> true
      | Some m -> String.equal (Meta_log.encode_log m) s)

let prop_blockref_mutation =
  QCheck.Test.make ~name:"Blockref.decode total on damage" ~count:2000
    (QCheck.make (gen_mutated gen_blockref blockref_encode))
    (fun s ->
      match blockref_decode s with None -> true | Some r -> String.equal (blockref_encode r) s)

let prop_block_key_mutation =
  QCheck.Test.make ~name:"block-key parse total on damage" ~count:2000
    (QCheck.make
       (gen_mutated (QCheck.Gen.pair gen_edge gen_edge) (fun (medium, block) ->
            block_key ~medium ~block)))
    (fun s ->
      match parse_block_key s with
      | None -> true
      | Some (medium, block) -> String.equal (block_key ~medium ~block) s)

(* A block-index patch blob: a damaged one is rejected (recovery takes it
   as a corrupt chunk) or re-serialises to itself. *)
let prop_block_patch_mutation =
  QCheck.Test.make ~name:"block patch deserialise total on damage" ~count:500
    (QCheck.make
       (gen_mutated
          QCheck.Gen.(list_size (int_bound 40) gen_block_fact)
          (fun fs -> Block_index.Patch.serialize (Block_index.Patch.of_facts fs))))
    (fun s ->
      match Block_index.Patch.deserialize s with
      | Some p -> String.equal (Block_index.Patch.serialize p) s
      | None -> true)

(* The checkpoint's elide table and the medium table's rows, the other
   two decoders recovery runs on bytes read back from the drives. *)
let prop_ranges_mutation =
  (* elide ids are medium ids: dense, non-negative, far from max_int *)
  let gen_ranges =
    QCheck.Gen.(
      map
        (List.fold_left (fun acc (lo, len) -> Ranges.add_range acc ~lo ~hi:(lo + len)) Ranges.empty)
        (list_size (int_bound 12)
           (pair (oneof [ int_bound 300; int_bound (1 lsl 40) ]) (int_bound 300))))
  in
  QCheck.Test.make ~name:"Ranges.decode total on damage" ~count:2000
    (QCheck.make (gen_mutated gen_ranges Ranges.encode))
    (fun s ->
      match Ranges.decode s with None -> true | Some r -> String.equal (Ranges.encode r) s)

let prop_extents_mutation =
  let gen_extent =
    QCheck.Gen.(
      map3
        (fun (start_block, len) target (rw, skip_local) ->
          {
            Medium.start_block;
            end_block = start_block + min len (max_int - start_block);
            target;
            status = (if rw then Medium.RW else Medium.RO);
            skip_local;
          })
        (pair gen_edge gen_edge)
        (oneof
           [
             return Medium.Base;
             map2 (fun medium offset -> Medium.Underlying { medium; offset }) gen_edge gen_edge;
           ])
        (pair bool bool))
  in
  QCheck.Test.make ~name:"Medium.decode_extents total on damage" ~count:2000
    (QCheck.make (gen_mutated QCheck.Gen.(list_size (int_bound 6) gen_extent) Medium.encode_extents))
    (fun s ->
      match Medium.decode_extents s with
      | None -> true
      | Some es -> String.equal (Medium.encode_extents es) s)

(* A patch blob carrying a block tombstone is corrupt, CRC or not. *)
let test_block_patch_rejects_tombstone () =
  let string_patch =
    Purity_pyramid.Patch.of_facts
      [ Fact.tombstone ~key:(block_key ~medium:3 ~block:200) ~seq:5L ]
  in
  match Block_index.Patch.deserialize (Purity_pyramid.Patch.serialize string_patch) with
  | None -> ()
  | Some _ -> Alcotest.fail "block patch with a tombstone accepted"

(* ---------- Block index vs the string pyramid ---------- *)

(* The block index is the shared pyramid at typed keys and values. Fed
   the same facts, elides and maintenance as a string-keyed pyramid whose
   facts are the on-media encodings, it must answer every read the same
   way and serialise byte-identical patches. Keys include negative
   halves, whose unsigned order differs from the signed one. *)
module Spyr = Purity_pyramid.Pyramid

type op =
  | Put of (int * int) * Blockref.t
  | Elide_mediums of int * int
  | Flush
  | Merge
  | Flatten

let gen_half =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0; 1; 127; 128; 16383; 16384; max_int; max_int - 1; -1; min_int ];
        small_nat;
      ])

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (12, map2 (fun k r -> Put (k, r)) (pair (oneofl [ 0; 1; 2; max_int; -1 ]) gen_half) gen_blockref);
        (1, map2 (fun a b -> Elide_mediums (min a b, max a b)) (oneofl [ 0; 1; 2; max_int ]) (oneofl [ 0; 1; 2; max_int ]));
        (2, return Flush);
        (1, return Merge);
        (1, return Flatten);
      ])

let block_of_string_key k = Option.get (parse_block_key k)

let run_both ops =
  let b =
    Block_index.create ~memtable_flush_count:8 ~policy:Purity_core.State.blocks_policy ~name:"b" ()
  in
  let s =
    Spyr.create ~memtable_flush_count:8
      ~policy:(Spyr.Elide (fun f -> fst (block_of_string_key f.Fact.key)))
      ~name:"s" ()
  in
  List.iteri
    (fun i op ->
      let seq = Int64.of_int (i + 1) in
      match op with
      | Put (((medium, block) as key), r) ->
        Block_index.insert b ~seq ~key ~value:r;
        Spyr.insert s ~seq ~key:(block_key ~medium ~block) ~value:(blockref_encode r)
      | Elide_mediums (lo, hi) ->
        Block_index.elide_range b ~seq ~lo ~hi;
        Spyr.elide_range s ~seq ~lo ~hi
      | Flush ->
        Block_index.flush b;
        Spyr.flush s
      | Merge -> ignore (Block_index.merge_step b && Spyr.merge_step s)
      | Flatten ->
        Block_index.flatten b;
        Spyr.flatten s)
    ops;
  (b, s)

let same_reads (b, s) ops =
  let live_b = ref [] and live_s = ref [] in
  Block_index.iter_live b (fun ~key ~value -> live_b := (key, value) :: !live_b);
  Spyr.iter_live s (fun ~key ~value ->
      live_s := (block_of_string_key key, Option.get (blockref_decode value)) :: !live_s);
  let runs_agree (medium, block) =
    let n = 4 in
    let block = if block >= 0 then min block (max_int - n) else min block (-1 - n) in
    let run_b =
      Block_index.find_run b ~n ~key_of:(fun i -> (medium, block + i)) ~index:(fun (m, k) ->
          if m = medium then k - block else -1)
    in
    let run_s =
      Spyr.find_run s ~n
        ~key_of:(fun i -> block_key ~medium ~block:(block + i))
        ~index:(fun k ->
          match parse_block_key k with Some (m, k) when m = medium -> k - block | _ -> -1)
    in
    List.for_all
      (fun i ->
        Block_index.resolve_fact b run_b.(i)
        = Option.map (fun v -> Option.get (blockref_decode v)) (Spyr.resolve_fact s run_s.(i))
        && Block_index.find b (medium, block + i)
           = Option.map
               (fun v -> Option.get (blockref_decode v))
               (Spyr.find s (block_key ~medium ~block:(block + i))))
      [ 0; 1; 2; 3 ]
  in
  (* one medium's range, as replication's delta reads it, against the
     full merged walk *)
  let range_agrees (medium, _) =
    Block_index.range b ~lo:(medium, 0) ~hi:(medium, max_int)
    = List.filter (fun ((m, k), _) -> m = medium && k >= 0) (List.rev !live_b)
  in
  !live_b = !live_s
  && List.for_all (function Put (k, _) -> runs_agree k && range_agrees k | _ -> true) ops
  && List.map Block_index.Patch.serialize (Block_index.patches b)
     = List.map Spyr.Patch.serialize (Spyr.patches s)
  && Block_index.fact_count b = Spyr.fact_count s

let prop_block_index_matches_string_pyramid =
  QCheck.Test.make ~name:"block index = string pyramid over the encoded facts" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 120) gen_op))
    (fun ops ->
      let both = run_both ops in
      same_reads both ops
      &&
      (* and once more after everything is flushed into patches *)
      (Block_index.flush (fst both);
       Spyr.flush (snd both);
       same_reads both ops))

(* ---------- Boot region codec ---------- *)

let gen_segment =
  let open QCheck.Gen in
  let wide = oneof [ small_nat; map (fun i -> i land max_int) int ] in
  let member = map2 (fun drive au -> { Segment.drive; au }) small_nat wide in
  let* id = wide and* members = array_size (int_bound 12) member in
  let* payload_len = wide and* log_off = wide and* log_len = wide in
  let+ seq_lo = ui64 and+ seq_hi = ui64 in
  { Segment.id; members; payload_len; log_off; log_len; seq_lo; seq_hi }

let gen_boot =
  let open QCheck.Gen in
  let wide = oneof [ small_nat; map (fun i -> i land max_int) int ] in
  let member = map2 (fun drive au -> { Segment.drive; au }) small_nat wide in
  let entry =
    triple (string_size (int_bound 12)) (string_size (int_bound 40))
      (list_size (int_bound 4) (triple gen_segment wide wide))
  in
  let* frontier = list_size (int_bound 40) member and* dir = list_size (int_bound 4) entry in
  let* next_segment = wide and* next_medium = wide in
  let+ seq = ui64 and+ checkpoint_seq = ui64 in
  { Boot.frontier; next_segment; next_medium; seq; checkpoint_seq; dir }

let prop_boot_roundtrip =
  QCheck.Test.make ~name:"boot contents roundtrip" ~count:300 (QCheck.make gen_boot) (fun c ->
      Boot.decode (Boot.encode c) = Some c)

(* Hand-built images: counts far beyond the bytes left, a wrong version,
   a trailing byte, a compact meta for a shard other than 0. *)
let test_boot_rejects () =
  let varints vs =
    let buf = Buffer.create 16 in
    List.iter (Purity_util.Varint.write buf) vs;
    Buffer.contents buf
  in
  let empty =
    { Boot.frontier = []; next_segment = 1; next_medium = 1; seq = 0L; checkpoint_seq = 0L; dir = [] }
  in
  let blob = Boot.encode empty in
  check bool "empty contents decode" true (Boot.decode blob = Some empty);
  check bool "huge frontier count" true (Boot.decode (varints [ 2; max_int; 1; 2 ]) = None);
  check bool "huge directory count" true
    (Boot.decode (varints [ 2; 0; 1; 1; 0; 0; 1 lsl 40 ]) = None);
  check bool "wrong version" true
    (Boot.decode ("\001" ^ String.sub blob 1 (String.length blob - 1)) = None);
  check bool "trailing byte" true (Boot.decode (blob ^ "\000") = None);
  check bool "huge member count" true
    (Segment.decode_compact (varints [ 7; 0; max_int; 1; 2 ]) = None);
  check bool "shard 1" true (Segment.decode_compact (varints [ 7; 1; 0; 0; 0; 0; 0; 0 ]) = None);
  check bool "shard 0" true
    (Option.is_some (Segment.decode_compact (varints [ 7; 0; 0; 0; 0; 0; 0; 0 ])))

let prop_boot_mutation =
  QCheck.Test.make ~name:"Boot_region.decode total on damage" ~count:2000
    (QCheck.make (gen_mutated gen_boot Boot.encode))
    (fun s -> match Boot.decode s with None -> true | Some c -> String.equal (Boot.encode c) s)

let prop_segment_compact_mutation =
  QCheck.Test.make ~name:"Segment.decode_compact total on damage" ~count:2000
    (QCheck.make (gen_mutated gen_segment Segment.encode_compact))
    (fun s ->
      match Segment.decode_compact s with
      | None -> true
      | Some t -> String.equal (Segment.encode_compact t) s)

(* A volume-table value: a damaged one is rejected or re-encodes to
   exactly itself, so recovery never raises on one. *)
let prop_volume_value_mutation =
  let gen_volume =
    QCheck.Gen.(
      map3
        (fun kind medium blocks ->
          { State.kind; medium; blocks; observer = State.fresh_observer () })
        (oneofl [ State.Volume; State.Snapshot ])
        gen_edge gen_edge)
  in
  QCheck.Test.make ~name:"State.decode_volume_value total on damage" ~count:2000
    (QCheck.make (gen_mutated gen_volume State.encode_volume_value))
    (fun s ->
      match State.decode_volume_value s with
      | None -> true
      | Some v -> String.equal (State.encode_volume_value v) s)

let () =
  Alcotest.run "core-parts"
    [
      ( "keys",
        [
          Alcotest.test_case "block key roundtrip" `Quick test_block_key_roundtrip;
          Alcotest.test_case "block key rejects" `Quick test_block_key_rejects;
          QCheck_alcotest.to_alcotest prop_block_key_order;
          QCheck_alcotest.to_alcotest prop_block_key_mutation;
          Alcotest.test_case "ordering" `Quick test_block_key_ordering;
          Alcotest.test_case "medium/segment" `Quick test_medium_segment_keys;
          QCheck_alcotest.to_alcotest prop_block_key_injective;
        ] );
      ( "blockref",
        [
          Alcotest.test_case "roundtrip" `Quick test_blockref_roundtrip;
          Alcotest.test_case "rejects" `Quick test_blockref_rejects;
          Alcotest.test_case "same cblock" `Quick test_blockref_same_cblock;
          QCheck_alcotest.to_alcotest prop_blockref_mutation;
          QCheck_alcotest.to_alcotest prop_blockref_roundtrip;
        ] );
      ( "boot_region",
        [
          Alcotest.test_case "empty" `Quick test_boot_empty_reads_none;
          Alcotest.test_case "write then read" `Quick test_boot_write_then_read;
          Alcotest.test_case "latency" `Quick test_boot_latency_charged;
          QCheck_alcotest.to_alcotest prop_boot_roundtrip;
          Alcotest.test_case "codec rejects" `Quick test_boot_rejects;
          QCheck_alcotest.to_alcotest prop_boot_mutation;
          QCheck_alcotest.to_alcotest prop_segment_compact_mutation;
        ] );
      ("volumes", [ QCheck_alcotest.to_alcotest prop_volume_value_mutation ]);
      ( "decoders",
        [
          QCheck_alcotest.to_alcotest prop_ranges_mutation;
          QCheck_alcotest.to_alcotest prop_extents_mutation;
        ] );
      ("block_index", [ QCheck_alcotest.to_alcotest prop_block_index_matches_string_pyramid ]);
      ( "meta_log",
        [
          Alcotest.test_case "golden bytes" `Quick test_meta_log_golden;
          QCheck_alcotest.to_alcotest prop_log_roundtrip;
          QCheck_alcotest.to_alcotest prop_nvram_roundtrip;
          QCheck_alcotest.to_alcotest prop_log_mutation;
          QCheck_alcotest.to_alcotest prop_nvram_mutation;
          QCheck_alcotest.to_alcotest prop_block_record_mutation;
          QCheck_alcotest.to_alcotest prop_block_patch_mutation;
          Alcotest.test_case "block patch rejects tombstone" `Quick
            test_block_patch_rejects_tombstone;
        ] );
    ]
