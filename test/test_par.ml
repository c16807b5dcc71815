(* purity.par: the deterministic domain pool and the parallel data plane
   built on it. The load-bearing property everywhere
   is byte-identity: a parallel run must produce exactly the bytes a
   serial run produces, at every domain count, so per-seed replay and
   purity.check's digest-compared double execution survive sharding. *)

module Pool = Purity_par.Pool
module Rs = Purity_erasure.Reed_solomon
module Clock = Purity_sim.Clock
module Drive = Purity_ssd.Drive
module Shelf = Purity_ssd.Shelf
module Layout = Purity_segment.Layout
module Segment = Purity_segment.Segment
module Allocator = Purity_segment.Allocator
module Writer = Purity_segment.Writer
module Io = Purity_sched.Io
module Fa = Purity_core.Flash_array
module State = Purity_core.State
module Rng = Purity_util.Rng

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let with_pool ~domains f =
  let p = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* ---------- chunking ---------- *)

let prop_chunk_partitions =
  QCheck.Test.make ~name:"chunks partition 0..tasks-1 contiguously" ~count:500
    QCheck.(pair (int_range 1 8) (int_range 0 200))
    (fun (lanes, tasks) ->
      let covered = Array.make (max tasks 1) 0 in
      let ok = ref true in
      let next = ref 0 in
      for lane = 0 to lanes - 1 do
        let lo, len = Pool.chunk ~lanes ~tasks lane in
        (* contiguous: each lane starts where the previous ended *)
        if lo <> !next then ok := false;
        next := lo + len;
        (* balanced: lane sizes differ by at most one *)
        if len < tasks / lanes || len > (tasks / lanes) + 1 then ok := false;
        for i = lo to lo + len - 1 do
          covered.(i) <- covered.(i) + 1
        done
      done;
      if !next <> tasks then ok := false;
      for i = 0 to tasks - 1 do
        if covered.(i) <> 1 then ok := false
      done;
      !ok)

(* ---------- map: order and lane ownership ---------- *)

let[@purity.lint.allow
     "escape: the test probes the pool itself — [p] is only queried for \
      lanes/chunk inside the closure, never mutated"] test_map_order () =
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          let expected = Array.init 53 (fun i -> i * i) in
          let got = Pool.map p ~tasks:53 (fun ~lane:_ i -> i * i) in
          check bool
            (Printf.sprintf "map @%d domains returns index order" domains)
            true
            (got = expected);
          (* each index runs on its statically-owned lane *)
          let owned = Pool.map p ~tasks:53 (fun ~lane i ->
              let lo, len = Pool.chunk ~lanes:(Pool.lanes p) ~tasks:53 lane in
              lo <= i && i < lo + len)
          in
          check bool
            (Printf.sprintf "lane ownership @%d domains matches chunk" domains)
            true
            (Array.for_all Fun.id owned)))
      [ 1; 2; 4 ]

let[@purity.lint.allow
     "escape: [hit] is written at lane-disjoint indices by construction; \
      the assertion reads it only after the batch joined"] test_run_covers_all_tasks () =
  with_pool ~domains:4 (fun p ->
      let tasks = 101 in
      let hit = Array.make tasks 0 in
      Pool.run p ~tasks (fun ~lane:_ ~lo ~len ->
          for i = lo to lo + len - 1 do
            hit.(i) <- hit.(i) + 1
          done);
      check bool "every task ran exactly once" true
        (Array.for_all (fun n -> n = 1) hit))

exception Lane_fail of int

let test_run_reraises_lowest_lane () =
  with_pool ~domains:4 (fun p ->
      (match
         Pool.run p ~tasks:8 (fun ~lane ~lo:_ ~len:_ ->
             if lane >= 2 then raise (Lane_fail lane))
       with
      | () -> Alcotest.fail "expected an exception"
      | exception Lane_fail l -> check int "lowest failing lane wins" 2 l);
      (* the pool survives a failed batch *)
      let got = Pool.map p ~tasks:8 (fun ~lane:_ i -> i) in
      check bool "pool usable after failure" true (got = Array.init 8 Fun.id))

let test_lane_seeds () =
  with_pool ~domains:4 (fun p ->
      let seeds = List.init 4 (Pool.lane_seed p) in
      let distinct = List.sort_uniq compare seeds in
      check int "lane seeds distinct" 4 (List.length distinct);
      with_pool ~domains:4 (fun q ->
          check bool "lane seeds are a pure function of (seed, lane)" true
            (List.init 4 (Pool.lane_seed q) = seeds)))

(* ---------- RS encode: parallel == serial, byte for byte ---------- *)

let prop_encode_par_matches_serial =
  QCheck.Test.make ~name:"encode_par == encode at 2 and 4 domains" ~count:30
    QCheck.(triple (int_range 1 8) (int_range 1 4) (int_range 1 257))
    (fun (k, m, shard_size) ->
      let rng = Rng.create ~seed:(Int64.of_int ((k * 1009) + (m * 31) + shard_size)) in
      let data = Array.init k (fun _ -> Rng.bytes rng shard_size) in
      let rs = Rs.create ~k ~m in
      let serial = Rs.encode rs data in
      List.for_all
        (fun domains ->
          with_pool ~domains (fun p ->
              let par = Rs.encode_par p rs data in
              Array.length par = Array.length serial
              && Array.for_all2 (fun a b -> Bytes.equal a b) par serial))
        [ 2; 4 ])

(* ---------- segment fill: parallel == serial, byte for byte ---------- *)

let au_size = 64 * 1024
let layout = Layout.make ~k:3 ~m:2 ~write_unit:4096 ~header_size:4096 ~au_size ()

let drive_config =
  { Drive.default_config with Drive.au_size; num_aus = 64; dies = 4 }

type env = { clock : Clock.t; shelf : Shelf.t; rs : Rs.t; alloc : Allocator.t }

let make_env () =
  let clock = Clock.create () in
  let rng = Rng.create ~seed:2024L in
  let shelf = Shelf.create ~drive_config ~clock ~rng ~drives:6 () in
  let rs = Rs.create ~k:3 ~m:2 in
  let alloc = Allocator.create ~layout ~drives:6 ~aus_per_drive:64 () in
  { clock; shelf; rs; alloc }

let await env f =
  let result = ref None in
  f (fun r -> result := Some r);
  Clock.run env.clock;
  match !result with Some r -> r | None -> Alcotest.fail "operation never completed"

(* Fill one segment with a deterministic payload + log mix, flush it with
   the given pool, and dump every member AU back off the drives. *)
let flush_and_dump ~pool =
  let env = make_env () in
  let online d = Drive.is_online (Shelf.drive env.shelf d) in
  let members = Option.get (Allocator.allocate env.alloc ~online) in
  let w = Writer.create ~layout ~shelf:env.shelf ~rs:env.rs ~members ~id:7 in
  let rng = Rng.create ~seed:0xF111L in
  let n = ref 0 in
  let full = ref false in
  while not !full do
    let s = Bytes.to_string (Rng.bytes rng (1024 + (!n * 131 mod 3000))) in
    (* keep 16 bytes spare, room for the short log record below *)
    if String.length s + 16 > Writer.remaining w then full := true
    else begin
      ignore (Writer.append_data w s);
      incr n;
      if !n mod 3 = 0 then Writer.append_log w ~seq:(Int64.of_int !n) (string_of_int !n)
    end
  done;
  let seg = await env (fun cb -> Writer.finalize w ~pool cb) in
  let dump =
    Array.map
      (fun (m : Segment.member) ->
        await env (fun cb -> Drive.read (Shelf.drive env.shelf m.Segment.drive)
                     ~au:m.Segment.au ~off:0 ~len:au_size cb))
      seg.Segment.members
  in
  Array.map (function Ok b -> Bytes.to_string b | Error _ -> Alcotest.fail "read failed") dump

let test_segment_fill_par_matches_serial () =
  let serial = with_pool ~domains:1 (fun p -> flush_and_dump ~pool:p) in
  List.iter
    (fun domains ->
      let par = with_pool ~domains (fun p -> flush_and_dump ~pool:p) in
      check bool
        (Printf.sprintf "flushed members byte-identical @%d domains" domains)
        true (par = serial))
    [ 2; 4 ]

(* ---------- whole-array byte-equality across domain counts ---------- *)

let bs = Fa.block_size

let test_config =
  {
    Fa.default_config with
    Fa.drives = 6;
    k = 3;
    m = 2;
    write_unit = 8 * 1024;
    drive_config =
      {
        Purity_ssd.Drive.default_config with
        Purity_ssd.Drive.au_size = 64 * 1024 + 4096;
        num_aus = 256;
        dies = 4;
      };
    memtable_flush = 100_000;
  }

(* Run a fixed multi-block workload through a full array with the global
   pool at [domains], and fold everything externally observable — every
   read-back byte plus the flush pipeline's control state — into a digest. *)
let workload_digest domains =
  Pool.set_global_domains domains;
  let clock = Clock.create () in
  let a = Fa.create ~config:test_config ~clock () in
  (match Fa.create_volume a "v" ~blocks:1024 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "create_volume failed");
  let awaitc f =
    let result = ref None in
    f (fun r -> result := Some r);
    Clock.run clock;
    match !result with Some r -> r | None -> Alcotest.fail "operation never completed"
  in
  let data_for i nblocks =
    if i mod 3 = 0 then begin
      (* compressible, so the parallel LZ path does real work *)
      let unit = Printf.sprintf "segment %d rides the parallel fill path. " i in
      let b = Buffer.create (nblocks * bs) in
      while Buffer.length b < nblocks * bs do
        Buffer.add_string b unit
      done;
      Buffer.sub b 0 (nblocks * bs)
    end
    else
      Bytes.to_string (Rng.bytes (Rng.create ~seed:(Int64.of_int (0xA0 + i))) (nblocks * bs))
  in
  for i = 0 to 11 do
    match awaitc (Fa.write a ~volume:"v" ~block:(i * 16) (data_for i 8)) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "write failed"
  done;
  (* overwrites, so dedup/GC state moves too *)
  for i = 0 to 3 do
    match awaitc (Fa.write a ~volume:"v" ~block:(i * 32) (data_for (20 + i) 8)) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "write failed"
  done;
  awaitc (fun cb -> Fa.flush a (fun () -> cb ()));
  let digest = ref 0 in
  let mix v = digest := (!digest * 31) + (Hashtbl.hash v land 0xFFFFFF) in
  for i = 0 to 11 do
    match awaitc (Fa.read a ~volume:"v" ~block:(i * 16) ~nblocks:8) with
    | Ok data -> mix data
    | Error _ -> Alcotest.fail "read failed"
  done;
  let st = Fa.state a in
  mix st.State.next_segment_id;
  mix (Hashtbl.length st.State.unflushed);
  mix (Queue.length st.State.sealed);
  !digest

let test_array_digest_stable_across_domains () =
  let serial = workload_digest 1 in
  Fun.protect
    ~finally:(fun () -> Pool.set_global_domains 1)
    (fun () ->
      List.iter
        (fun domains ->
          check int
            (Printf.sprintf "whole-array digest @%d domains == serial" domains)
            serial (workload_digest domains))
        [ 2; 4 ])

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          QCheck_alcotest.to_alcotest prop_chunk_partitions;
          Alcotest.test_case "map order" `Quick test_map_order;
          Alcotest.test_case "run covers all tasks" `Quick test_run_covers_all_tasks;
          Alcotest.test_case "lowest-lane exception" `Quick test_run_reraises_lowest_lane;
          Alcotest.test_case "lane seeds" `Quick test_lane_seeds;
        ] );
      ( "byte-identity",
        [
          QCheck_alcotest.to_alcotest prop_encode_par_matches_serial;
          Alcotest.test_case "segment fill" `Quick test_segment_fill_par_matches_serial;
          Alcotest.test_case "whole array" `Quick test_array_digest_stable_across_domains;
        ] );
    ]
