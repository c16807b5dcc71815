(* Purity_par: the bench's deterministic domain pool. The load-bearing
   property is determinism: chunking is pure arithmetic, results land in
   index order and errors re-raise from the lowest lane, so a parallel
   batch yields exactly what a serial one does at every domain count. *)

module Pool = Purity_par.Pool

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let with_pool ~domains f =
  let p = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* ---------- chunking ---------- *)

let prop_chunk_partitions =
  QCheck.Test.make ~name:"chunks partition 0..tasks-1 contig" ~count:500
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

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          QCheck_alcotest.to_alcotest prop_chunk_partitions;
          Alcotest.test_case "map order" `Quick test_map_order;
          Alcotest.test_case "run covers all tasks" `Quick test_run_covers_all_tasks;
          Alcotest.test_case "lowest-lane exception" `Quick test_run_reraises_lowest_lane;
        ] );
    ]
