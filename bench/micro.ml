(* CPU micro-benchmarks (Bechamel): the real host-CPU cost of the
   primitives the simulator charges simulated time for. These are the
   only wall-clock numbers in the harness. *)

open Bechamel
open Toolkit
module Rng = Purity_util.Rng
module Lz = Purity_compress.Lz
module Rs = Purity_erasure.Reed_solomon
module Xxhash = Purity_util.Xxhash
module Tp = Purity_encoding.Tuple_page
module Patch = Purity_pyramid.Patch
module Fact = Purity_pyramid.Fact

let rng = Rng.create ~seed:0xBEEFL

let incompressible_32k = Bytes.to_string (Rng.bytes rng 32768)

let textish_32k =
  let b = Buffer.create 32768 in
  while Buffer.length b < 32768 do
    Buffer.add_string b "row|id=12345678|st=ACTIVE |bal=000042|name=customer_0042|"
  done;
  Buffer.sub b 0 32768

let compressed_32k = Lz.compress textish_32k

let rs = Rs.create ~k:7 ~m:2
let shards = Array.init 7 (fun _ -> Rng.bytes rng 32768)
let coded = Array.append (Array.map Bytes.copy shards) (Rs.encode rs shards)

let erased () =
  let s = Array.map Option.some coded in
  s.(1) <- None;
  s.(5) <- None;
  s

let tuples =
  List.init 2000 (fun i ->
      [| Int64.of_int (i mod 7); Int64.of_int i; Int64.of_int (1000 + (i mod 37)) |])

let page = Tp.encode ~arity:3 tuples

let patch_a =
  Patch.of_facts
    (List.init 2000 (fun i ->
         Fact.make ~key:(Printf.sprintf "k%06d" i) ~value:"v" ~seq:(Int64.of_int i)))

let patch_b =
  Patch.of_facts
    (List.init 2000 (fun i ->
         Fact.make ~key:(Printf.sprintf "k%06d" (i + 1000)) ~value:"w"
           ~seq:(Int64.of_int (i + 2000))))

let tests =
  [
    Test.make ~name:"lz-compress-32k-text" (Staged.stage (fun () -> ignore (Lz.compress textish_32k)));
    Test.make ~name:"lz-compress-32k-random"
      (Staged.stage (fun () -> ignore (Lz.compress incompressible_32k)));
    Test.make ~name:"lz-decompress-32k"
      (Staged.stage (fun () -> ignore (Lz.decompress compressed_32k ~expected_len:32768)));
    Test.make ~name:"rs-7+2-encode-32k-shards"
      (Staged.stage (fun () -> ignore (Rs.encode rs shards)));
    Test.make ~name:"rs-7+2-decode-2-erasures"
      (Staged.stage (fun () -> ignore (Rs.decode rs (erased ()))));
    Test.make ~name:"xxhash64-32k"
      (Staged.stage (fun () ->
           ignore
             (Xxhash.hash
                (Bytes.unsafe_of_string incompressible_32k
                [@purity.lint.allow
                  "unsafe: read-only view of the generated corpus fed to the \
                   checksum kernels"])
                ~pos:0 ~len:32768)));
    Test.make ~name:"tuple-page-encode-2k"
      (Staged.stage (fun () -> ignore (Tp.encode ~arity:3 tuples)));
    Test.make ~name:"tuple-page-scan-packed"
      (Staged.stage (fun () -> ignore (Tp.scan page ~field:0 ~value:3L)));
    Test.make ~name:"tuple-page-scan-naive"
      (Staged.stage (fun () -> ignore (Tp.scan_naive page ~field:0 ~value:3L)));
    Test.make ~name:"patch-merge-2x2k"
      (Staged.stage (fun () -> ignore (Patch.merge patch_a patch_b)));
  ]

let run () =
  Bench_util.section "Micro — host-CPU cost of the primitives (Bechamel, wall clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"purity" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  (match Hashtbl.find_opt merged (Measure.label Instance.monotonic_clock) with
  | None -> Printf.printf "  (no results)\n"
  | Some per_test ->
    let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) per_test [] in
    List.iter
      (fun (name, ols_result) ->
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) ->
          let name =
            match String.index_opt name ' ' with
            | Some i -> String.sub name (i + 1) (String.length name - i - 1)
            | None -> name
          in
          Bench_util.emit_row ~kind:"bench_micro"
            [
              ("name", Purity_telemetry.Json.Str name);
              ("ns_per_op", Purity_telemetry.Json.Float est);
            ];
          Printf.printf "  %-34s %12.0f ns/op\n" name est
        | _ -> Printf.printf "  %-34s %12s\n" name "n/a")
      (List.sort compare rows));
  Printf.printf
    "\n  Note: packed scan vs naive scan shows the benefit of comparing bit\n\
    \  patterns instead of decompressing tuples (paper section 4.9).\n";
  (* kernels before the metadata hot path: the 600k-fact index that
     section builds leaves the major heap in a state that taxes the
     allocating kernel loops (rs-encode drops below its shape floor even
     after a compact), while the reverse order perturbs neither *)
  Exp_kernels.run_in_section ();
  Exp_metadata_hotpath.run_in_section ()
