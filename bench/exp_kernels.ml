(* Data-plane kernels, ref vs fast (wall clock): the word-at-a-time
   CRC32c / GF(256) / RS-encode / LZ / fingerprint kernels against the
   byte-at-a-time reference implementations they replaced, plus the
   composed segment-fill pipeline (fingerprint -> compress -> frame+CRC ->
   RS parity) with and without the reused scratch arena. Runs inside the
   Micro section so its rows land in BENCH_Micro.json next to the other
   host-CPU numbers; `main.exe -- kernels` runs it standalone.

   Every fast kernel is asserted bit-identical to its reference on the
   bench inputs before anything is timed (the qcheck suites prove the
   same over random inputs). *)

module Rng = Purity_util.Rng
module Crc32c = Purity_util.Crc32c
module Xxhash = Purity_util.Xxhash
module Kernel_stats = Purity_util.Kernel_stats
module Varint = Purity_util.Varint
module Gf256 = Purity_erasure.Gf256
module Rs = Purity_erasure.Reed_solomon
module Lz = Purity_compress.Lz
module Cblock = Purity_compress.Cblock
module Json = Purity_telemetry.Json

let rng = Rng.create ~seed:0xCAFEL

let random_32k = Rng.bytes rng 32768

let textish n tag =
  let b = Buffer.create n in
  while Buffer.length b < n do
    Buffer.add_string b
      (Printf.sprintf "row|id=%08d|st=ACTIVE |bal=000042|name=customer_%04d|" tag
         (tag mod 7919))
  done;
  Buffer.sub b 0 n

let text_32k = textish 32768 12345678

(* the mix perfbench's ingest and rand-rw prefill write *)
let mix_3to1_32k =
  Purity_workload.Datagen.compressible
    (Purity_workload.Datagen.create ~seed:0xCAFEL)
    32768 ~target_ratio:3.0

(* Processor time is plenty at these op counts (same harness as the
   metadata hot-path experiment). *)
let time_ops ?warmup ?batch f = Bclock.time_ops ?warmup ?batch f

let emit name ~bytes (ops_s, ns_op) =
  let mb_s = float_of_int bytes *. ops_s /. 1e6 in
  Bench_util.emit_row ~kind:"bench_micro"
    [
      ("name", Json.Str name);
      ("ns_per_op", Json.Float ns_op);
      ("ops_per_sec", Json.Float ops_s);
      ("mb_per_s", Json.Float mb_s);
    ];
  Printf.printf "  %-34s %12.0f ns/op %12.0f MB/s\n%!" name ns_op mb_s;
  mb_s

(* ---------- the composed segment-fill pipeline ----------

   A segio's worth of application blocks through the full reduction
   pipeline: per-512B dedup fingerprints, compression, cblock framing
   with CRC, then RS parity over the filled payload rows — the ref
   variant exactly as the write path used to do it (fresh buffers and
   byte kernels per block), the fast variant on the scratch arena and the
   word kernels. Both produce the same bytes. *)

let fill_k = 7
let fill_m = 2
let fill_wu = 4096
let fill_rows_cap = 20
let fill_cap = fill_k * fill_wu * fill_rows_cap
let fill_rs = Rs.create ~k:fill_k ~m:fill_m

(* 12 compressible + 4 incompressible 32 KiB blocks *)
let fill_blocks =
  Array.init 16 (fun i ->
      if i mod 4 = 3 then Bytes.to_string (Rng.bytes rng 32768)
      else textish 32768 (1000000 + (7717 * i)))

let[@purity.lint.allow
     "unsafe: read-only views of generated corpora fed to the kernels under \
      test"] fingerprints_ref b =
  let bb = Bytes.unsafe_of_string b in
  for j = 0 to (String.length b / 512) - 1 do
    ignore (Purity_reference.Xxhash_ref.hash63 bb ~pos:(j * 512) ~len:512 : int)
  done

let[@purity.lint.allow
     "unsafe: read-only views of generated corpora fed to the kernels under \
      test"] fingerprints_fast b =
  let bb = Bytes.unsafe_of_string b in
  for j = 0 to (String.length b / 512) - 1 do
    ignore (Xxhash.hash63 bb ~pos:(j * 512) ~len:512 : int)
  done

let row_count pos = (pos + (fill_k * fill_wu) - 1) / (fill_k * fill_wu)

(* the [fill_k] data shards of row [r] of a filled segio buffer *)
let row_shards out r =
  Array.init fill_k (fun c -> Bytes.sub out (((r * fill_k) + c) * fill_wu) fill_wu)

let parity_rows encode pos out =
  Array.init (row_count pos) (fun r -> encode fill_rs (row_shards out r))

let fill_ref () =
  let out = Bytes.make fill_cap '\000' in
  let pos = ref 0 in
  Array.iter
    (fun b ->
      fingerprints_ref b;
      let n = String.length b in
      let c = Purity_reference.Lz_ref.compress b in
      let enc, payload = if String.length c < n then ('\001', c) else ('\000', b) in
      let buf = Buffer.create (String.length payload + 16) in
      Varint.write buf n;
      Buffer.add_char buf enc;
      Varint.write buf (String.length payload);
      Buffer.add_int32_le buf
        (Purity_reference.Crc32c_ref.digest
           (Bytes.unsafe_of_string payload
           [@purity.lint.allow
             "unsafe: read-only views of generated corpora fed to the kernels \
              under test"])
           ~pos:0 ~len:(String.length payload));
      Buffer.add_string buf payload;
      Buffer.blit buf 0 out !pos (Buffer.length buf);
      pos := !pos + Buffer.length buf)
    fill_blocks;
  (out, !pos, parity_rows Rs.encode_ref !pos out)

let fill_arena = (Lz.create_scratch (), Buffer.create (40 * 1024))

let fill_fast () =
  let scratch, frame = fill_arena in
  let out = Bytes.make fill_cap '\000' in
  let pos = ref 0 in
  Array.iter
    (fun b ->
      fingerprints_fast b;
      Buffer.clear frame;
      ignore (Cblock.add_frame_into ~scratch frame b : int);
      Buffer.blit frame 0 out !pos (Buffer.length frame);
      pos := !pos + Buffer.length frame)
    fill_blocks;
  (out, !pos, parity_rows Rs.encode !pos out)

let check_equiv () =
  (* point kernels *)
  if Crc32c.digest random_32k ~pos:0 ~len:32768 <> Purity_reference.Crc32c_ref.digest random_32k ~pos:0 ~len:32768
  then failwith "kernels: crc32c fast diverges from ref";
  let gf_fast = Bytes.copy random_32k and gf_ref = Bytes.copy random_32k in
  Gf256.mul_slice 0x57 ~src:random_32k ~dst:gf_fast;
  Gf256.mul_slice_ref 0x57 ~src:random_32k ~dst:gf_ref;
  if gf_fast <> gf_ref then failwith "kernels: gf256 mul_slice fast diverges from ref";
  let shards = Array.init fill_k (fun _ -> Rng.bytes rng 32768) in
  if Rs.encode fill_rs shards <> Rs.encode_ref fill_rs shards then
    failwith "kernels: rs encode fast diverges from ref";
  List.iter
    (fun s ->
      if Lz.compress s <> Purity_reference.Lz_ref.compress s then
        failwith "kernels: lz compress fast diverges from ref")
    [ text_32k; Bytes.to_string random_32k; mix_3to1_32k ];
  let c = Purity_reference.Lz_ref.compress text_32k in
  if Lz.decompress c ~expected_len:32768 <> Purity_reference.Lz_ref.decompress c ~expected_len:32768 then
    failwith "kernels: lz decompress fast diverges from ref";
  if
    Xxhash.hash63 random_32k ~pos:0 ~len:32768
    <> Purity_reference.Xxhash_ref.hash63 random_32k ~pos:0 ~len:32768
  then failwith "kernels: hash63 fast diverges from ref";
  let ro, rn, rp = fill_ref () in
  let fo, fn, fp = fill_fast () in
  if rn <> fn || Bytes.sub ro 0 rn <> Bytes.sub fo 0 fn || rp <> fp then
    failwith "kernels: segment fill fast diverges from ref"

let shape name ok =
  Printf.printf "  Shape check (%s): %s\n" name (if ok then "HOLDS" else "DIVERGES")

(* ---------- lane-chunked segment fill ----------

   Purity's controllers spread the data plane over many cores (paper §2);
   the simulator is single-domain, so this models what sharding the
   segment fill over lanes would buy without running any lane
   concurrently. [chunk] gives each lane a contiguous run of the blocks
   (and of the parity rows); the lane-chunked fill runs each lane's chunk
   of fingerprint -> LZ -> frame+CRC on that lane's own arena, one lane
   after another in lane order, then blits the frames in block order and
   RS-encodes the rows lane chunk by lane chunk. Before anything is timed
   the chunks are asserted to partition the blocks and the rows, and the
   fill at 1, 2 and 4 lanes to be byte-identical to the serial fill,
   frames and parity alike.

   The HOLD checks ride on a *modeled* critical path: each block's frame
   cost and the whole blit and parity stages are timed serially
   (processor time); a lane's frame cost is the sum over its chunk, the
   slowest lane encodes ceil(rows/lanes) of the parity rows, and the blit
   stays serial, so modeled speedup = (frames + parity + blit) / (slowest
   lane + its parity share + blit). *)

let par_nblocks = 64
let par_cap = 80 * fill_k * fill_wu

(* 7 of 8 compressible: compression dominates the per-block cost, the
   write path's common case *)
let par_blocks =
  Array.init par_nblocks (fun i ->
      if i mod 8 = 7 then Bytes.to_string (Rng.bytes rng 32768)
      else textish 32768 (2000000 + (7717 * i)))

let par_arenas lanes =
  Array.init lanes (fun _ -> (Lz.create_scratch (), Buffer.create (40 * 1024)))

let block_frame (scratch, frame) b =
  fingerprints_fast b;
  Buffer.clear frame;
  ignore (Cblock.add_frame_into ~scratch frame b : int);
  Buffer.contents frame

(* The segio buffer, preallocated and zeroed once like the real writer's:
   every fill writes the same [0, pos) prefix, so the row padding beyond
   [pos] stays zero and parity over the padded tail is deterministic. *)
let par_out = Bytes.make par_cap '\000'

(* serial middle shared by every lane count: in-order frame blit *)
let blit_frames frames =
  let pos = ref 0 in
  Array.iter
    (fun f ->
      Bytes.blit_string f 0 par_out !pos (String.length f);
      pos := !pos + String.length f)
    frames;
  !pos

(* Static chunking: contiguous [lo, lo+len) per lane, remainder spread
   over the lowest lanes. Pure in (lanes, tasks, lane). *)
let chunk ~lanes ~tasks lane =
  let q = tasks / lanes and r = tasks mod lanes in
  ((lane * q) + min lane r, q + if lane < r then 1 else 0)

(* the lanes' chunks tile [0, tasks) in lane order, sizes within one *)
let chunks_partition ~lanes ~tasks =
  let next = ref 0 and ok = ref true in
  for lane = 0 to lanes - 1 do
    let lo, len = chunk ~lanes ~tasks lane in
    if lo <> !next || len < tasks / lanes || len > (tasks / lanes) + 1 then ok := false;
    next := lo + len
  done;
  !ok && !next = tasks

(* [f lane i] for every [i] of each lane's chunk of [0, tasks), lanes in
   order *)
let by_lane ~lanes ~tasks f =
  for lane = 0 to lanes - 1 do
    let lo, len = chunk ~lanes ~tasks lane in
    for i = lo to lo + len - 1 do
      f lane i
    done
  done

let lane_fill lanes =
  let arenas = par_arenas lanes in
  let frames = Array.make par_nblocks "" in
  by_lane ~lanes ~tasks:par_nblocks (fun lane i ->
      frames.(i) <- block_frame arenas.(lane) par_blocks.(i));
  let pos = blit_frames frames in
  let rows = row_count pos in
  let parity = Array.make rows [||] in
  by_lane ~lanes ~tasks:rows (fun _ r -> parity.(r) <- Rs.encode fill_rs (row_shards par_out r));
  (pos, parity)

let run_scaling () =
  Printf.printf "\n  Lane-chunked segment fill (%d x 32 KiB blocks, modeled lanes):\n"
    par_nblocks;
  let serial_arena = par_arenas 1 in
  let serial_frames = Array.map (block_frame serial_arena.(0)) par_blocks in
  let s_pos = blit_frames serial_frames in
  let s_snap = Bytes.sub par_out 0 s_pos in
  let s_par = parity_rows Rs.encode s_pos par_out in
  List.iter
    (fun lanes ->
      if
        not
          (chunks_partition ~lanes ~tasks:par_nblocks
          && chunks_partition ~lanes ~tasks:(row_count s_pos))
      then failwith (Printf.sprintf "kernels: %d-lane chunks do not partition" lanes);
      let p_pos, p_par = lane_fill lanes in
      if s_pos <> p_pos || Bytes.sub par_out 0 p_pos <> s_snap || s_par <> p_par then
        failwith (Printf.sprintf "kernels: %d-lane fill diverges from serial" lanes))
    [ 1; 2; 4 ];
  (* Modeled critical path: every stage the lane-chunked fill executes is
     timed serially and composed with the same chunk arithmetic lane_fill
     uses:
     - frame stage: slowest lane's chunk of blocks;
     - parity: the slowest lane encodes ceil(rows/lanes) of the rows;
     - blit: serial, in frame order, at every lane count. *)
  let time_once f =
    let ops_s, _ = time_ops ~warmup:3 ~batch:1 (fun () -> ignore (f () : int)) in
    1.0 /. ops_s
  in
  (* Per-block frame times, all from one interleaved pass (identical GC
     conditions for every block); min over rounds, since scheduler and GC
     noise only ever inflate a timing. Lane-chunk costs are then sums of
     the same per-block numbers at every lane count, so the speedup ratio
     is not at the mercy of two timing loops drawing different noise. *)
  Gc.compact ();
  let block_times =
    let best = Array.make par_nblocks infinity in
    Array.iter (fun b -> ignore (block_frame serial_arena.(0) b : string)) par_blocks;
    for _ = 1 to 25 do
      Array.iteri
        (fun i b ->
          let s = Bclock.now_s () in
          ignore (block_frame serial_arena.(0) b : string);
          best.(i) <- Float.min best.(i) (Bclock.now_s () -. s))
        par_blocks
    done;
    best
  in
  let chunk_time lanes lane =
    let lo, len = chunk ~lanes ~tasks:par_nblocks lane in
    let t = ref 0.0 in
    for i = lo to lo + len - 1 do
      t := !t +. block_times.(i)
    done;
    !t
  in
  let blit_t = time_once (fun () -> blit_frames serial_frames) in
  let parity_t =
    time_once (fun () ->
        Array.length (parity_rows Rs.encode s_pos par_out))
  in
  let rows = row_count s_pos in
  let modeled lanes =
    (* total and slowest-lane come from the same per-chunk measurements,
       so the frame-stage term is bounded by [lanes] by construction *)
    let slowest = ref 0.0 and total = ref 0.0 in
    for lane = 0 to lanes - 1 do
      let t = chunk_time lanes lane in
      slowest := Float.max !slowest t;
      total := !total +. t
    done;
    (* row-major parity: the slowest lane encodes ceil(rows/lanes) rows *)
    let parity_frac =
      float_of_int ((rows + lanes - 1) / lanes) /. float_of_int rows
    in
    (!total +. parity_t +. blit_t)
    /. (!slowest +. (parity_t *. parity_frac) +. blit_t)
  in
  let m2 = modeled 2 and m4 = modeled 4 in
  Bench_util.emit_row ~kind:"bench_kernels"
    [
      ("fill_par_2d_modeled_speedup", Json.Float m2);
      ("fill_par_4d_modeled_speedup", Json.Float m4);
    ];
  Printf.printf "  scaling: modeled critical path %.2fx @2 lanes, %.2fx @4 lanes\n" m2 m4;
  shape "parallel fill >= 1.8x @2 lanes (modeled critical path), bytes identical"
    (m2 >= 1.8);
  shape "parallel fill >= 3.0x @4 lanes (modeled critical path), bytes identical"
    (m4 >= 3.0)

let run_in_section () =
  (* earlier sections (the metadata hot path builds a 600k-fact index)
     leave a big major heap behind; compact so their GC tax doesn't land
     on the allocating kernel loops below *)
  Gc.compact ();
  check_equiv ();
  (* exercise the kernels/<k>_ns telemetry counters under a wall clock,
     then remove it so the timed loops below pay no per-call clock reads *)
  Kernel_stats.set_clock (Some Bclock.now_ns);
  ignore (fill_fast ());
  Kernel_stats.set_clock None;
  let kb k = Printf.sprintf "%s %d calls / %d bytes" k.Kernel_stats.name k.calls k.bytes in
  Printf.printf "\n  Data-plane kernels (ref = byte-at-a-time, fast = word-at-a-time):\n";
  Printf.printf "  telemetry: %s\n"
    (String.concat ", " (List.map kb [ Kernel_stats.crc; Kernel_stats.gf; Kernel_stats.fingerprint ]));

  let crc_ref =
    time_ops (fun () -> ignore (Purity_reference.Crc32c_ref.digest random_32k ~pos:0 ~len:32768 : int32))
  in
  let crc_fast =
    time_ops (fun () -> ignore (Crc32c.digest random_32k ~pos:0 ~len:32768 : int32))
  in
  let gf_dst = Bytes.create 32768 in
  let gf_ref =
    time_ops (fun () -> Gf256.mul_slice_ref 0x57 ~src:random_32k ~dst:gf_dst)
  in
  let gf_fast = time_ops (fun () -> Gf256.mul_slice 0x57 ~src:random_32k ~dst:gf_dst) in
  let shards = Array.init fill_k (fun _ -> Rng.bytes rng 32768) in
  let rs_ref =
    time_ops ~batch:10 (fun () -> ignore (Rs.encode_ref fill_rs shards : Bytes.t array))
  in
  let rs_fast =
    time_ops ~batch:10 (fun () -> ignore (Rs.encode fill_rs shards : Bytes.t array))
  in
  let lz_c = Purity_reference.Lz_ref.compress text_32k in
  let lz_ref =
    time_ops ~batch:10 (fun () ->
        ignore (Purity_reference.Lz_ref.decompress (Purity_reference.Lz_ref.compress text_32k) ~expected_len:32768 : string))
  in
  let lz_fast =
    time_ops ~batch:10 (fun () ->
        ignore (Lz.decompress (Lz.compress text_32k) ~expected_len:32768 : string))
  in
  (* compression alone, on the write path's reused scratch: random input
     is the incompressible run the skip trigger strides through *)
  let lz_scratch = Lz.create_scratch () in
  let random_32k_s = Bytes.to_string random_32k in
  let lzc_random = time_ops (fun () -> ignore (Lz.compress_into lz_scratch random_32k_s : int)) in
  let lzc_mix = time_ops (fun () -> ignore (Lz.compress_into lz_scratch mix_3to1_32k : int)) in
  let unz_ref =
    time_ops (fun () -> ignore (Purity_reference.Lz_ref.decompress lz_c ~expected_len:32768 : string))
  in
  let unz_fast =
    time_ops (fun () -> ignore (Lz.decompress lz_c ~expected_len:32768 : string))
  in
  let fp_ref =
    time_ops (fun () -> ignore (Purity_reference.Xxhash_ref.hash63 random_32k ~pos:0 ~len:32768 : int))
  in
  let fp_fast =
    time_ops (fun () -> ignore (Xxhash.hash63 random_32k ~pos:0 ~len:32768 : int))
  in
  let fill_bytes = 16 * 32768 in
  let fill_ref_t =
    time_ops ~warmup:20 ~batch:2 (fun () -> ignore (fill_ref () : Bytes.t * int * Bytes.t array array))
  in
  let fill_fast_t =
    time_ops ~warmup:20 ~batch:2 (fun () -> ignore (fill_fast () : Bytes.t * int * Bytes.t array array))
  in
  ignore (emit "crc32c-32k-ref" ~bytes:32768 crc_ref : float);
  ignore (emit "crc32c-32k-fast" ~bytes:32768 crc_fast : float);
  ignore (emit "gf256-mul-slice-32k-ref" ~bytes:32768 gf_ref : float);
  ignore (emit "gf256-mul-slice-32k-fast" ~bytes:32768 gf_fast : float);
  ignore (emit "rs-7+2-encode-32k-ref" ~bytes:(fill_k * 32768) rs_ref : float);
  ignore (emit "rs-7+2-encode-32k-fast" ~bytes:(fill_k * 32768) rs_fast : float);
  ignore (emit "lz-roundtrip-32k-text-ref" ~bytes:32768 lz_ref : float);
  ignore (emit "lz-roundtrip-32k-text-fast" ~bytes:32768 lz_fast : float);
  ignore (emit "lz-compress-32k-random" ~bytes:32768 lzc_random : float);
  ignore (emit "lz-compress-32k-3to1" ~bytes:32768 lzc_mix : float);
  ignore (emit "lz-decompress-32k-ref" ~bytes:32768 unz_ref : float);
  ignore (emit "lz-decompress-32k-fast" ~bytes:32768 unz_fast : float);
  ignore (emit "fingerprint-32k-ref" ~bytes:32768 fp_ref : float);
  ignore (emit "fingerprint-32k-fast" ~bytes:32768 fp_fast : float);
  ignore (emit "segment-fill-16x32k-ref" ~bytes:fill_bytes fill_ref_t : float);
  ignore (emit "segment-fill-16x32k-fast" ~bytes:fill_bytes fill_fast_t : float);
  let sp (fast_ops, _) (ref_ops, _) = fast_ops /. ref_ops in
  let crc_sp = sp crc_fast crc_ref in
  let gf_sp = sp gf_fast gf_ref in
  let rs_sp = sp rs_fast rs_ref in
  let lz_sp = sp lz_fast lz_ref in
  let unz_sp = sp unz_fast unz_ref in
  let fp_sp = sp fp_fast fp_ref in
  let fill_sp = sp fill_fast_t fill_ref_t in
  (* same input size, so the ns/op ratio is the per-byte cost ratio *)
  let skip_sp = snd lzc_mix /. snd lzc_random in
  Bench_util.emit_row ~kind:"bench_kernels"
    [
      ("crc_speedup", Json.Float crc_sp);
      ("gf_speedup", Json.Float gf_sp);
      ("rs_encode_speedup", Json.Float rs_sp);
      ("lz_roundtrip_speedup", Json.Float lz_sp);
      ("lz_decompress_speedup", Json.Float unz_sp);
      ("fingerprint_speedup", Json.Float fp_sp);
      ("segment_fill_speedup", Json.Float fill_sp);
      ("lz_random_vs_3to1_cost", Json.Float skip_sp);
    ];
  Printf.printf
    "\n  speedups: crc %.1fx, gf %.1fx, rs-encode %.1fx, lz roundtrip %.1fx,\n\
    \  lz decompress %.1fx, fingerprint %.1fx, segment fill %.1fx,\n\
    \  lz compress random input %.1fx cheaper per byte than 3:1\n"
    crc_sp gf_sp rs_sp lz_sp unz_sp fp_sp fill_sp skip_sp;
  shape "crc32c fast >= 3x ref, results identical" (crc_sp >= 3.0);
  shape "gf256/rs-encode fast >= 3x ref, results identical" (gf_sp >= 3.0 && rs_sp >= 3.0);
  shape "lz compress+decompress fast >= 3x ref, bytes identical" (lz_sp >= 3.0);
  shape "fingerprint fast >= 3x ref, results identical" (fp_sp >= 3.0);
  shape "segment fill fast >= 1.5x ref, bytes identical" (fill_sp >= 1.5);
  shape "lz compress of random input >= 2x cheaper per byte than 3:1" (skip_sp >= 2.0);
  run_scaling ()

let run () =
  Bench_util.section "Kernels — word-at-a-time data-plane kernels vs reference (wall clock)";
  run_in_section ()
