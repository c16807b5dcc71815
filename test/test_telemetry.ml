(* purity.telemetry: registry, spans, phone-home exporter. *)

module Clock = Purity_sim.Clock
module Histogram = Purity_util.Histogram
module Registry = Purity_telemetry.Registry
module Span = Purity_telemetry.Span
module Export = Purity_telemetry.Export
module Json = Purity_telemetry.Json

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* ---------- registry ---------- *)

let test_registry_counters () =
  let reg = Registry.create () in
  let c = Registry.counter reg "write_path/app_writes" in
  Registry.incr c;
  Registry.add c 4;
  check int "counter value" 5 (Registry.value c);
  (* same key, same family: the original handle comes back *)
  let c' = Registry.counter reg "write_path/app_writes" in
  Registry.incr c';
  check int "shared cell" 6 (Registry.value c)

let test_registry_duplicate_family_clash () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "x/key");
  match Registry.histogram reg "x/key" with
  | _ -> Alcotest.fail "family mismatch must raise"
  | exception Invalid_argument _ -> ()

(* a registry's keys, sorted, as its snapshot lists them *)
let registry_keys reg = List.map fst (Registry.snapshot reg)
let registry_mem reg key = List.mem key (registry_keys reg)

let test_registry_keys_and_mem () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "b/two");
  ignore (Registry.counter reg "a/one");
  Registry.derive_int reg "c/three" (fun () -> 3);
  check bool "mem" true (registry_mem reg "a/one");
  check bool "not mem" false (registry_mem reg "nope");
  check (Alcotest.list string) "sorted keys" [ "a/one"; "b/two"; "c/three" ]
    (registry_keys reg)

let test_registry_derived () =
  let reg = Registry.create () in
  let v = ref 10 in
  Registry.derive_int reg "derived/x" (fun () -> !v);
  let snap1 = Registry.snapshot reg in
  v := 25;
  let snap2 = Registry.snapshot reg in
  (match (Registry.find snap1 "derived/x", Registry.find snap2 "derived/x") with
  | Some (Registry.Int 10), Some (Registry.Int 25) -> ()
  | _ -> Alcotest.fail "derived metric must sample at snapshot time");
  (* re-registration replaces the closure *)
  Registry.derive_int reg "derived/x" (fun () -> 99);
  match Registry.find (Registry.snapshot reg) "derived/x" with
  | Some (Registry.Int 99) -> ()
  | _ -> Alcotest.fail "re-derivation must replace"

let test_snapshot_diff () =
  let reg = Registry.create () in
  let c = Registry.counter reg "ops/total" in
  let level = ref 1.0 in
  Registry.derive_float reg "fill/level" (fun () -> !level);
  let h = Registry.histogram reg "lat/us" in
  Registry.add c 10;
  Histogram.record h 100.0;
  Histogram.record h 200.0;
  let base = Registry.snapshot reg in
  Registry.add c 7;
  level := 2.5;
  Histogram.record h 400.0;
  let current = Registry.snapshot reg in
  let d = Registry.diff ~base ~current in
  (match Registry.find d "ops/total" with
  | Some (Registry.Int 7) -> ()
  | _ -> Alcotest.fail "counter diff must subtract");
  (match Registry.find d "fill/level" with
  | Some (Registry.Float f) -> check (Alcotest.float 1e-9) "level keeps current" 2.5 f
  | _ -> Alcotest.fail "level diff must keep current");
  match Registry.find d "lat/us" with
  | Some (Registry.Hist hs) ->
    check int "interval count" 1 hs.Registry.h_count;
    (* the one sample in the interval was 400us; its log-bucket upper
       bound is what the percentile reports *)
    check bool "interval p50 covers 400" true (hs.Registry.h_p50 >= 400.0)
  | _ -> Alcotest.fail "histogram diff must subtract buckets"

let test_reset () =
  let reg = Registry.create () in
  let c = Registry.counter reg "a/c" in
  let h = Registry.histogram reg "a/h" in
  Registry.add c 5;
  Histogram.record h 10.0;
  Registry.reset reg;
  check int "counter zeroed" 0 (Registry.value c);
  check int "histogram cleared" 0 (Histogram.count h)

(* A device-owned cell: every registry that adopts it reads the live
   count; diff and reset treat it as a counter. *)
let test_adopted_counter () =
  let cell = Registry.cell () in
  let r1 = Registry.create () and r2 = Registry.create () in
  Registry.attach_counter r1 "dev/ops" cell;
  Registry.attach_counter r2 "dev/ops" cell;
  Registry.attach_counter r1 "dev/ops" cell;
  Registry.add cell 4;
  check int "first registry" 4 (Registry.read_int r1 "dev/ops");
  check int "second registry" 4 (Registry.read_int r2 "dev/ops");
  check bool "counter returns the adopted cell" true (Registry.counter r1 "dev/ops" == cell);
  let base = Registry.snapshot r1 in
  Registry.incr cell;
  (match Registry.find (Registry.diff ~base ~current:(Registry.snapshot r1)) "dev/ops" with
  | Some (Registry.Int 1) -> ()
  | _ -> Alcotest.fail "an adopted cell diffs like a counter");
  Registry.reset r1;
  check int "reset zeroes the cell" 0 (Registry.value cell);
  check int "for every adopter" 0 (Registry.read_int r2 "dev/ops");
  (match Registry.attach_counter r1 "dev/ops" (Registry.cell ()) with
  | () -> Alcotest.fail "a second cell under one key must raise"
  | exception Invalid_argument _ -> ());
  ignore (Registry.histogram r1 "dev/lat");
  (match Registry.attach_counter r1 "dev/lat" cell with
  | () -> Alcotest.fail "adopting over another family must raise"
  | exception Invalid_argument _ -> ());
  match Registry.read_int r1 "dev/lat" with
  | _ -> Alcotest.fail "read_int of a histogram must raise"
  | exception Not_found -> ()

(* ---------- histogram satellites ---------- *)

let test_histogram_to_buckets () =
  let h = Histogram.create () in
  Histogram.record h 3.0;
  Histogram.record h 3.0;
  Histogram.record h 1000.0;
  let buckets = Histogram.to_buckets h in
  check int "total count" 3 (List.fold_left (fun a (_, c) -> a + c) 0 buckets);
  check bool "bounds ascend" true
    (List.sort compare buckets = buckets && List.for_all (fun (_, c) -> c > 0) buckets)

(* ---------- spans ---------- *)

let test_span_parentage () =
  let clock = Clock.create () in
  let tr = Span.create_tracer ~clock () in
  let parent = Span.start tr "write" in
  Clock.advance clock 5.0;
  let child = Span.start tr ~parent ~tags:[ ("seq", "1") ] "nvram_commit" in
  Clock.advance clock 7.0;
  Span.finish child;
  Span.finish parent;
  check (Alcotest.option int) "child links parent" (Some (Span.id parent))
    (Span.parent_id child);
  check (Alcotest.option int) "root has no parent" None (Span.parent_id parent);
  (match Span.duration_us child with
  | Some d -> check (Alcotest.float 1e-9) "child duration" 7.0 d
  | None -> Alcotest.fail "finished span has a duration");
  (match Span.duration_us parent with
  | Some d -> check (Alcotest.float 1e-9) "parent spans both hops" 12.0 d
  | None -> Alcotest.fail "finished span has a duration");
  (* ring holds both, oldest (first finished) first *)
  match Span.drain tr with
  | [ a; b ] ->
    check string "oldest first" "nvram_commit" (Span.name a);
    check string "then parent" "write" (Span.name b)
  | l -> Alcotest.failf "expected 2 finished spans, got %d" (List.length l)

let test_span_ring_eviction () =
  let clock = Clock.create () in
  let tr = Span.create_tracer ~capacity:4 ~clock () in
  for i = 1 to 10 do
    Span.finish (Span.start tr (Printf.sprintf "s%d" i))
  done;
  let names = List.map Span.name (Span.drain tr) in
  check (Alcotest.list string) "newest 4 survive, oldest first"
    [ "s7"; "s8"; "s9"; "s10" ] names;
  check int "evictions counted" 6 (Registry.value (Span.dropped tr));
  check int "ring empty after drain" 0 (List.length (Span.drain tr))

let test_span_sink_and_double_finish () =
  let clock = Clock.create () in
  let tr = Span.create_tracer ~clock () in
  let seen = ref [] in
  Span.set_sink tr (Some (fun s -> seen := Span.name s :: !seen));
  let s = Span.start tr "once" in
  Span.finish s;
  Span.finish s;
  (* idempotent: no double entry in ring or sink *)
  check int "sink fired once" 1 (List.length !seen);
  check int "ring holds one" 1 (List.length (Span.drain tr))

(* Starting a span allocates its record and, for a child, the [Some]
   that passes its parent; finishing allocates nothing. Per root + child
   pair (the child's start tags built before the count), measured: 18
   words. *)
let test_span_allocation () =
  let clock = Clock.create () in
  let tr = Span.create_tracer ~capacity:64 ~clock () in
  let tags = [ ("volume", "v") ] in
  let pair () =
    let root = Span.start tr "write" in
    let child = Span.start tr ~parent:root ~tags "nvram_commit" in
    Span.finish child;
    Span.finish root
  in
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    pair ()
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  check int "the ring keeps the newest" 64 (List.length (Span.drain tr));
  if words > 18.5 then Alcotest.failf "a root and a child span allocate %.1f words" words

(* ---------- exporter ---------- *)

(* A tiny structural validator: every line must parse as a single JSON
   object with the shared schema fields. We re-parse with a minimal
   checker rather than a full parser: balanced braces/strings plus
   required keys. *)
let line_is_object line =
  String.length line > 1
  && line.[0] = '{'
  && line.[String.length line - 1] = '}'
  (* no raw newline inside: one object per line *)
  && not (String.contains line '\n')

let test_exporter_jsonl () =
  let clock = Clock.create () in
  let reg = Registry.create () in
  let c = Registry.counter reg "ops/total" in
  let h = Registry.histogram reg "lat/us" in
  let tr = Span.create_tracer ~clock () in
  let buf = Buffer.create 256 in
  let ex =
    Export.create ~array_id:"arrayX" ~tracer:tr ~clock ~registry:reg
      ~sink:(Export.buffer_sink buf) ()
  in
  Registry.add c 3;
  Histogram.record h 42.0;
  Span.finish (Span.start tr "hop");
  for _ = 1 to 3 do
    Export.sample ex
  done;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf) |> List.filter (fun l -> l <> "")
  in
  (* 3 samples + 1 span line *)
  check bool "several lines" true (List.length lines >= 3);
  check int "emitted counts lines" (List.length lines) (Export.emitted ex);
  List.iter
    (fun line ->
      check bool "one JSON object per line" true (line_is_object line);
      check bool "kind field" true
        (String.length line > 8 && String.sub line 0 8 = {|{"kind":|});
      check bool "array id present" true
        (let re = {|"array":"arrayX"|} in
         let rec find i =
           if i + String.length re > String.length line then false
           else String.sub line i (String.length re) = re || find (i + 1)
         in
         find 0))
    lines;
  check bool "a span line was emitted" true
    (List.exists
       (fun l -> String.length l > 16 && String.sub l 0 15 = {|{"kind":"span",|})
       lines)

let test_json_encoding () =
  check string "escaping"
    {|{"s":"a\"b\\c\nd","n":null,"inf":null,"t":true,"arr":[1,2.5]}|}
    (Json.to_string
       (Json.Obj
          [
            ("s", Json.Str "a\"b\\c\nd");
            ("n", Json.Null);
            ("inf", Json.Float infinity);
            ("t", Json.Bool true);
            ("arr", Json.Arr [ Json.Int 1; Json.Float 2.5 ]);
          ]))

(* ---------- the instrumented array ---------- *)

let await = Testkit.await

let test_array_stats_match_registry () =
  let module Fa = Purity_core.Flash_array in
  let clock = Clock.create () in
  let a = Fa.create ~clock () in
  (match Fa.create_volume a "v" ~blocks:4096 with Ok () -> () | Error _ -> assert false);
  let data = String.init (64 * 512) (fun i -> Char.chr (i land 0xff)) in
  for i = 0 to 7 do
    match await clock (Fa.write a ~volume:"v" ~block:(i * 64) data) with
    | Ok () -> ()
    | Error _ -> assert false
  done;
  (match await clock (Fa.read a ~volume:"v" ~block:0 ~nblocks:64) with
  | Ok got -> check string "roundtrip" data got
  | Error _ -> assert false);
  let s = Fa.stats a in
  let snap = Registry.snapshot (Fa.telemetry a) in
  let reg_int key =
    match Registry.find snap key with
    | Some (Registry.Int n) -> n
    | _ -> Alcotest.failf "missing int metric %s" key
  in
  check int "app_writes agree" s.Fa.app_writes (reg_int "write_path/app_writes");
  check int "logical bytes agree" s.Fa.logical_bytes_written
    (reg_int "write_path/logical_bytes");
  check int "stored bytes agree" s.Fa.stored_bytes_written
    (reg_int "write_path/stored_bytes");
  check int "app_reads derived" s.Fa.app_reads (reg_int "array/app_reads");
  check int "dedup agree" s.Fa.dedup_blocks (reg_int "dedup/inline_blocks");
  (* per-drive metrics exist for the whole shelf *)
  for d = 0 to 10 do
    check bool
      (Printf.sprintf "drive %d wear metric" d)
      true
      (registry_mem (Fa.telemetry a) (Printf.sprintf "ssd/drive%d/wear_ratio" d))
  done;
  (* latency histograms flow into the registry *)
  (match Registry.find snap "write_path/latency_us" with
  | Some (Registry.Hist hs) -> check int "write samples" 8 hs.Registry.h_count
  | _ -> Alcotest.fail "write latency histogram missing");
  (* the multi-hop write trace is reconstructable: spans exist with
     correct parentage *)
  let spans = Span.drain (Fa.tracer a) in
  let by_name n = List.filter (fun s -> Span.name s = n) spans in
  check bool "write spans" true (List.length (by_name "write") >= 8);
  check bool "commit spans" true (List.length (by_name "nvram_commit") >= 8);
  let commit = List.hd (by_name "nvram_commit") in
  check bool "commit parented under a write" true
    (match Span.parent_id commit with
    | Some pid -> List.exists (fun s -> Span.id s = pid) (by_name "write")
    | None -> false)

(* The dedup index's own counters reach the array's registry: a write
   of bytes already stored looks its blocks up and verifies the hit. *)
let test_dedup_index_counters () =
  let module Fa = Purity_core.Flash_array in
  let clock = Clock.create () in
  let a = Fa.create ~clock () in
  (match Fa.create_volume a "v" ~blocks:4096 with Ok () -> () | Error _ -> assert false);
  let data = Bytes.to_string (Purity_util.Rng.bytes (Purity_util.Rng.create ~seed:5L) (64 * 512)) in
  let write block =
    match await clock (Fa.write a ~volume:"v" ~block data) with
    | Ok () -> ()
    | Error _ -> assert false
  in
  let reg_int key =
    match Registry.find (Registry.snapshot (Fa.telemetry a)) key with
    | Some (Registry.Int n) -> n
    | _ -> Alcotest.failf "missing int metric %s" key
  in
  write 0;
  let lookups = reg_int "dedup/lookups" and verified = reg_int "dedup/verified_hits" in
  write 64;
  check bool "the duplicate write looked its blocks up" true (reg_int "dedup/lookups" > lookups);
  check bool "and verified a hit" true (reg_int "dedup/verified_hits" > verified);
  check bool "the write path dedup'd blocks" true (reg_int "dedup/inline_blocks" > 0)

let test_metadata_hotpath_counters () =
  (* smoke: after a mixed write/read workload with flushed patches, the
     metadata fast-path counters must all have moved — probes attempted
     and fences actually skipping work *)
  let module Fa = Purity_core.Flash_array in
  let clock = Clock.create () in
  let cfg = { Fa.default_config with Fa.memtable_flush = 64 } in
  let a = Fa.create ~config:cfg ~clock () in
  (match Fa.create_volume a "v" ~blocks:8192 with Ok () -> () | Error _ -> assert false);
  let data = String.init (64 * 512) (fun i -> Char.chr (i land 0xff)) in
  for i = 0 to 7 do
    match await clock (Fa.write a ~volume:"v" ~block:(i * 64) data) with
    | Ok () -> ()
    | Error _ -> assert false
  done;
  (* a written range, and a thin never-written block far above it
     (fence skip) *)
  ignore (await clock (Fa.read a ~volume:"v" ~block:0 ~nblocks:64));
  ignore (await clock (Fa.read a ~volume:"v" ~block:8000 ~nblocks:8));
  let snap = Registry.snapshot (Fa.telemetry a) in
  let reg_int key =
    match Registry.find snap key with
    | Some (Registry.Int n) -> n
    | _ -> Alcotest.failf "missing int metric %s" key
  in
  check bool "patch probes attempted" true (reg_int "pyramid/blocks_probes" > 0);
  check bool "fences skipped work" true (reg_int "pyramid/blocks_fence_skips" > 0)

let test_kernel_counters () =
  (* smoke: a mixed write/read workload must move the data-plane kernel
     counters through the registry bridge — every stored byte is
     fingerprinted, compressed, CRC-framed and RS-encoded, and reads pull
     the same bytes back through CRC + decompress. *)
  let module Fa = Purity_core.Flash_array in
  Purity_util.Kernel_stats.reset ();
  let clock = Clock.create () in
  let a = Fa.create ~clock () in
  (match Fa.create_volume a "v" ~blocks:4096 with Ok () -> () | Error _ -> assert false);
  let data =
    String.init (64 * 512)
      (fun i -> Char.chr (if i land 7 = 0 then i land 0xff else 0x20))
  in
  for i = 0 to 3 do
    match await clock (Fa.write a ~volume:"v" ~block:(i * 64) data) with
    | Ok () -> ()
    | Error _ -> assert false
  done;
  (* sealing the open segio forces the RS parity path (gf + rs cells) *)
  ignore (await clock (fun k -> Fa.flush a k));
  ignore (await clock (Fa.read a ~volume:"v" ~block:0 ~nblocks:64));
  let snap = Registry.snapshot (Fa.telemetry a) in
  let reg_int key =
    match Registry.find snap key with
    | Some (Registry.Int n) -> n
    | _ -> Alcotest.failf "missing int metric %s" key
  in
  List.iter
    (fun k ->
      check bool (k ^ " bytes moved") true (reg_int ("kernels/" ^ k ^ "_bytes") > 0);
      check bool (k ^ " calls moved") true (reg_int ("kernels/" ^ k ^ "_calls") > 0);
      (* ns only accumulates under an installed clock; here just present *)
      check bool (k ^ " ns exported") true (reg_int ("kernels/" ^ k ^ "_ns") >= 0))
    [ "crc"; "fingerprint"; "lz_compress"; "lz_decompress"; "gf"; "rs" ]

let test_failover_resets_registry () =
  let module Fa = Purity_core.Flash_array in
  let clock = Clock.create () in
  let a = Fa.create ~clock () in
  (match Fa.create_volume a "v" ~blocks:4096 with Ok () -> () | Error _ -> assert false);
  let data = String.make (64 * 512) 'x' in
  (match await clock (Fa.write a ~volume:"v" ~block:0 data) with
  | Ok () -> ()
  | Error _ -> assert false);
  ignore (await clock (Fa.read a ~volume:"v" ~block:0 ~nblocks:1));
  let before = Fa.telemetry a in
  let drive_reads_before = Registry.read_int before "ssd/drive0/reads" in
  ignore (await clock (fun k -> Fa.failover a k));
  let after = Fa.telemetry a in
  check bool "fresh registry per controller" true (before != after);
  check bool "every key re-registered" true
    (List.for_all (registry_mem after) (registry_keys before));
  (* the drives own their cells: the new registry adopts them, counts
     and all (recovery reads more on top) *)
  check bool "drive counters persist" true
    (Registry.read_int after "ssd/drive0/reads" >= drive_reads_before);
  let snap = Registry.snapshot after in
  (match Registry.find snap "write_path/app_writes" with
  | Some (Registry.Int 0) -> ()
  | _ -> Alcotest.fail "path counters reset at failover");
  (* array-lifetime levels were re-derived over the new state *)
  match Registry.find snap "array/app_reads" with
  | Some (Registry.Int n) -> check int "app_reads persists" 1 n
  | _ -> Alcotest.fail "array metrics re-registered after failover"

let () =
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_registry_counters;
          Alcotest.test_case "duplicate family clash" `Quick
            test_registry_duplicate_family_clash;
          Alcotest.test_case "keys and mem" `Quick test_registry_keys_and_mem;
          Alcotest.test_case "derived metrics" `Quick test_registry_derived;
          Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "adopted counter" `Quick test_adopted_counter;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "to_buckets" `Quick test_histogram_to_buckets;
        ] );
      ( "span",
        [
          Alcotest.test_case "parentage" `Quick test_span_parentage;
          Alcotest.test_case "ring eviction" `Quick test_span_ring_eviction;
          Alcotest.test_case "sink + idempotent finish" `Quick
            test_span_sink_and_double_finish;
          Alcotest.test_case "span allocation" `Quick test_span_allocation;
        ] );
      ( "export",
        [
          Alcotest.test_case "JSONL schema" `Quick test_exporter_jsonl;
          Alcotest.test_case "JSON encoding" `Quick test_json_encoding;
        ] );
      ( "array",
        [
          Alcotest.test_case "stats match registry" `Quick
            test_array_stats_match_registry;
          Alcotest.test_case "metadata hot-path counters" `Quick
            test_metadata_hotpath_counters;
          Alcotest.test_case "dedup index counters" `Quick test_dedup_index_counters;
          Alcotest.test_case "kernel counters" `Quick test_kernel_counters;
          Alcotest.test_case "failover resets registry" `Quick
            test_failover_resets_registry;
        ] );
    ]
