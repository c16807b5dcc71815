module Medium = Purity_medium.Medium
module Rng = Purity_util.Rng

(* a medium's size and status, read off its extents *)
let size_blocks t m =
  List.fold_left (fun acc e -> max acc (e.Medium.end_block + 1)) 0 (Medium.extents t m)

let status t m =
  match Medium.extents t m with
  | [] -> None
  | es -> Some (if List.exists (fun e -> e.Medium.status = Medium.RW) es then Medium.RW else Medium.RO)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let chain = Alcotest.list (Alcotest.pair int int)

let test_base_medium () =
  let t = Medium.create () in
  let m = Medium.create_base t ~blocks:100 in
  check int "size" 100 (size_blocks t m);
  check bool "rw" true (status t m = Some Medium.RW);
  check chain "resolve to self" [ (m, 42) ] (Medium.resolve t m ~block:42);
  check chain "out of range" [] (Medium.resolve t m ~block:100)

let test_snapshot_freezes_and_chains () =
  let t = Medium.create () in
  let m = Medium.create_base t ~blocks:10 in
  let snap, succ = Medium.take_snapshot t m in
  check bool "original frozen" true (status t m = Some Medium.RO);
  check bool "snap ro" true (status t snap = Some Medium.RO);
  check bool "successor rw" true (status t succ = Some Medium.RW);
  (* successor resolves through itself then the frozen original *)
  check chain "successor chain" [ (succ, 3); (m, 3) ] (Medium.resolve t succ ~block:3);
  (* snapshot handle skips its own (empty) level *)
  check chain "snapshot chain skips itself" [ (m, 3) ] (Medium.resolve t snap ~block:3)

let test_snapshot_of_ro_rejected () =
  let t = Medium.create () in
  let m = Medium.create_base t ~blocks:10 in
  let snap, _succ = Medium.take_snapshot t m in
  (match Medium.take_snapshot t snap with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "snapshot of RO accepted");
  match Medium.take_snapshot t m with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "snapshot of frozen accepted"

let test_clone_with_offset () =
  let t = Medium.create () in
  let m = Medium.create_base t ~blocks:4000 in
  let _snap, _succ = Medium.take_snapshot t m in
  let c = Medium.clone t m ~range:(2000, 2999) () in
  check int "clone size" 1000 (size_blocks t c);
  check chain "clone offset mapping" [ (c, 5); (m, 2005) ] (Medium.resolve t c ~block:5);
  check chain "clone oob" [] (Medium.resolve t c ~block:1000)

let test_clone_requires_ro () =
  let t = Medium.create () in
  let m = Medium.create_base t ~blocks:10 in
  match Medium.clone t m () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "clone of RW accepted"

let test_write_target () =
  let t = Medium.create () in
  let m = Medium.create_base t ~blocks:10 in
  check bool "rw writable" true (Medium.write_target t m ~block:5 = Ok m);
  let _snap, succ = Medium.take_snapshot t m in
  check bool "frozen not writable" true (Medium.write_target t m ~block:5 = Error `Read_only);
  check bool "successor writable" true (Medium.write_target t succ ~block:5 = Ok succ);
  check bool "oob" true (Medium.write_target t succ ~block:50 = Error `Out_of_range);
  check bool "no such" true (Medium.write_target t 999 ~block:0 = Error `No_such_medium)

let test_extend () =
  let t = Medium.create () in
  let m = Medium.create_base t ~blocks:10 in
  Medium.extend t m ~blocks:10;
  check int "grown" 20 (size_blocks t m);
  check chain "new range is base" [ (m, 15) ] (Medium.resolve t m ~block:15)

let test_drop_protects_references () =
  let t = Medium.create () in
  let m = Medium.create_base t ~blocks:10 in
  let snap, succ = Medium.take_snapshot t m in
  (match Medium.drop t m with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dropped referenced medium");
  Medium.drop t snap;
  Medium.drop t succ;
  Medium.drop t m;
  check (Alcotest.list int) "empty" [] (Medium.live_mediums t)

let test_deep_chain_resolution () =
  let t = Medium.create () in
  let m0 = Medium.create_base t ~blocks:10 in
  let _s1, m1 = Medium.take_snapshot t m0 in
  let _s2, m2 = Medium.take_snapshot t m1 in
  let _s3, m3 = Medium.take_snapshot t m2 in
  check chain "four-level chain" [ (m3, 0); (m2, 0); (m1, 0); (m0, 0) ]
    (Medium.resolve t m3 ~block:0);
  check int "depth 4" 4 (Medium.resolve_depth t m3 ~block:0)

let test_shortcut_flattens_empty_intermediates () =
  let t = Medium.create () in
  let m0 = Medium.create_base t ~blocks:10 in
  let _s1, m1 = Medium.take_snapshot t m0 in
  let _s2, m2 = Medium.take_snapshot t m1 in
  let _s3, m3 = Medium.take_snapshot t m2 in
  (* only m0 holds blocks; m1 and m2 are empty RO layers *)
  let owned m = if m = m0 then [ (0, 9) ] else [] in
  Medium.shortcut t ~owned;
  check chain "flattened to <= 3 hops" [ (m3, 0); (m0, 0) ] (Medium.resolve t m3 ~block:0);
  check bool "within the paper's 3-cblock bound" true (Medium.resolve_depth t m3 ~block:0 <= 3)

let test_shortcut_stops_at_data () =
  let t = Medium.create () in
  let m0 = Medium.create_base t ~blocks:10 in
  let _s1, m1 = Medium.take_snapshot t m0 in
  let _s2, m2 = Medium.take_snapshot t m1 in
  (* m1 owns blocks: the chain must keep it *)
  let owned m = if m = m0 || m = m1 then [ (0, 9) ] else [] in
  Medium.shortcut t ~owned;
  check chain "kept data-bearing layer" [ (m2, 0); (m1, 0); (m0, 0) ]
    (Medium.resolve t m2 ~block:0)

let test_shortcut_idempotent () =
  let t = Medium.create () in
  let m0 = Medium.create_base t ~blocks:10 in
  let _s1, m1 = Medium.take_snapshot t m0 in
  let _s2, _m2 = Medium.take_snapshot t m1 in
  let owned m = if m = m0 then [ (0, 9) ] else [] in
  Medium.shortcut t ~owned;
  let rows1 = Medium.rows t in
  Medium.shortcut t ~owned;
  check bool "idempotent" true (rows1 = Medium.rows t)

(* Figure 6 golden test: rebuild the paper's table structurally.
   The figure's schedule: 12 is the frozen original; 14 a snapshot of 12;
   15 and 18 clones of blocks 2000-2999 of 12; 20 a snapshot of 18; 21 the
   volume medium after that snapshot; 22 the volume medium after a
   snapshot of 21, grown by 1000 fresh blocks. Blocks 0-499 of the volume
   were overwritten while 21 was live; 500-999 were not, so GC shortcuts
   them straight to 12 at offset 2500 — splitting 22's extent into the
   figure's three rows. (The paper's ids have gaps from unrelated
   mediums; we assert structure, not raw ids.) *)
let test_figure6_schedule () =
  let t = Medium.create ~first_id:12 () in
  let m12 = Medium.create_base t ~blocks:4000 in
  check int "id 12" 12 m12;
  let m14, succ12 =
    let snap, succ = Medium.take_snapshot t m12 in
    (snap, succ)
  in
  Medium.drop t succ12;
  let m15 = Medium.clone t m12 ~range:(2000, 2999) () in
  let m18 = Medium.clone t m12 ~range:(2000, 2999) () in
  let m20, m21 =
    let snap, succ = Medium.take_snapshot t m18 in
    (snap, succ)
  in
  let _snap21, m22 =
    let snap, succ = Medium.take_snapshot t m21 in
    (snap, succ)
  in
  Medium.extend t m22 ~blocks:1000;
  (* Structure before GC: 22 resolves through 21 -> 20 -> 18 -> 12. *)
  let chain_to_12 = Medium.resolve t m22 ~block:500 in
  check bool "22 reaches 12's blocks pre-GC" true
    (List.exists (fun (m, b) -> m = m12 && b = 2500) chain_to_12);
  (* Data placement: 12 holds the original blocks; 21 holds overwrites of
     volume blocks 0-499 made while it was live. *)
  let owned m = if m = m12 then [ (0, 3999) ] else if m = m21 then [ (0, 499) ] else [] in
  Medium.shortcut ~only:[ m22 ] t ~owned;
  (* Figure row "22 | 0:499 | 21 | 0 | RW" (21 itself is not yet
     flattened, so its chain still walks through 18 to 12) *)
  check chain "0:499 goes through 21"
    [ (m22, 100); (m21, 100); (m18, 100); (m12, 2100) ]
    (Medium.resolve t m22 ~block:100);
  (* Figure row "22 | 500:999 | 12 | 2500 | RW" — the direct shortcut *)
  check chain "500:999 shortcuts to 12" [ (m22, 500); (m12, 2500) ]
    (Medium.resolve t m22 ~block:500);
  (* Figure row "22 | 1000:1999 | none | RW" *)
  check chain "1000:1999 is base" [ (m22, 1500) ] (Medium.resolve t m22 ~block:1500);
  (* The extents of 22 now match the figure's three rows exactly. *)
  let rows22 =
    List.filter_map (fun (m, e) -> if m = m22 then Some e else None) (Medium.rows t)
  in
  (match rows22 with
  | [ r1; r2; r3 ] ->
    check int "row1 start" 0 r1.Medium.start_block;
    check int "row1 end" 499 r1.Medium.end_block;
    check bool "row1 -> 21@0" true
      (r1.Medium.target = Medium.Underlying { medium = m21; offset = 0 });
    check int "row2 start" 500 r2.Medium.start_block;
    check int "row2 end" 999 r2.Medium.end_block;
    check bool "row2 -> 12@2500" true
      (r2.Medium.target = Medium.Underlying { medium = m12; offset = 2500 });
    check int "row3 start" 1000 r3.Medium.start_block;
    check int "row3 end" 1999 r3.Medium.end_block;
    check bool "row3 base" true (r3.Medium.target = Medium.Base)
  | rows -> Alcotest.failf "expected 3 rows for medium 22, got %d" (List.length rows));
  (* And the rest of the table: 14 -> 12@0 RO, 15 -> 12@2000 RW,
     18 -> 12@2000 RO, 20 -> 18@0 RO. *)
  let extent_target m =
    match List.filter_map (fun (m', e) -> if m' = m then Some e else None) (Medium.rows t) with
    | [ e ] -> Some (e.Medium.target, e.Medium.status)
    | _ -> None
  in
  check bool "14 row" true
    (extent_target m14 = Some (Medium.Underlying { medium = m12; offset = 0 }, Medium.RO));
  check bool "15 row" true
    (extent_target m15 = Some (Medium.Underlying { medium = m12; offset = 2000 }, Medium.RW));
  check bool "18 row" true
    (extent_target m18 = Some (Medium.Underlying { medium = m12; offset = 2000 }, Medium.RO));
  check bool "20 row" true
    (extent_target m20 = Some (Medium.Underlying { medium = m18; offset = 0 }, Medium.RO))

(* The reference for [Medium.shortcut]'s one-walk chase: halve a range
   wherever the medium owns anything in it, hop a range an immutable
   medium owns nothing of, then merge the pieces back together. Each
   block gets the same answer, so the rows must be equal. Returns the
   rewritten table. *)
let binary_shortcut ?only t ~has_blocks =
  let rec chase medium offset len =
    let stop = [ (0, len, medium, offset) ] in
    let split () =
      if len = 1 then stop
      else begin
        let half = len / 2 in
        let left = chase medium offset half in
        let right = chase medium (offset + half) (len - half) in
        left @ List.map (fun (r, l, m, o) -> (r + half, l, m, o)) right
      end
    in
    if status t medium <> Some Medium.RO then stop
    else if has_blocks ~medium ~lo:offset ~hi:(offset + len - 1) then split ()
    else
      match Medium.extent_of t medium ~block:offset with
      | Some ({ Medium.target = Medium.Underlying { medium = next; offset = noff }; _ } as inner)
        when offset >= inner.Medium.start_block && offset + len - 1 <= inner.Medium.end_block ->
        chase next (offset - inner.Medium.start_block + noff) len
      | Some _ -> if len = 1 then stop else split ()
      | None -> stop
  in
  let rec merge = function
    | (r1, l1, m1, o1) :: (r2, l2, m2, o2) :: rest when m1 = m2 && r1 + l1 = r2 && o1 + l1 = o2
      ->
      merge ((r1, l1 + l2, m1, o1) :: rest)
    | piece :: rest -> piece :: merge rest
    | [] -> []
  in
  let reanchor (e : Medium.extent) =
    match e.Medium.target with
    | Medium.Base -> [ e ]
    | Medium.Underlying { medium; offset } ->
      merge (chase medium offset (e.Medium.end_block - e.Medium.start_block + 1))
      |> List.map (fun (rel, sublen, m', o') ->
             {
               e with
               Medium.start_block = e.Medium.start_block + rel;
               end_block = e.Medium.start_block + rel + sublen - 1;
               target = Medium.Underlying { medium = m'; offset = o' };
             })
  in
  let selected m = match only with None -> true | Some ms -> List.mem m ms in
  let rows =
    List.map
      (fun m ->
        let es = Medium.extents t m in
        (m, if selected m then List.concat_map reanchor es else es))
      (Medium.live_mediums t)
  in
  Medium.restore ~rows ~next_id:(Medium.peek_next_id t)

(* A random history of creates, snapshots, clones, extends and drops over
   small mediums, each medium owning random runs of its blocks. *)
let random_history rng =
  let t = Medium.create () in
  let pick = function [] -> None | ms -> Some (List.nth ms (Rng.int rng (List.length ms))) in
  let with_status st = List.filter (fun m -> status t m = Some st) (Medium.live_mediums t) in
  ignore (Medium.create_base t ~blocks:(1 + Rng.int rng 24) : int);
  for _ = 1 to 4 + Rng.int rng 16 do
    match Rng.int rng 10 with
    | 0 -> ignore (Medium.create_base t ~blocks:(1 + Rng.int rng 24) : int)
    | 1 | 2 | 3 ->
      Option.iter (fun m -> ignore (Medium.take_snapshot t m : int * int)) (pick (with_status RW))
    | 4 | 5 | 6 ->
      Option.iter
        (fun m ->
          let size = size_blocks t m in
          let lo = Rng.int rng size in
          let hi = lo + Rng.int rng (size - lo) in
          ignore (Medium.clone t m ~range:(lo, hi) () : int))
        (pick (with_status RO))
    | 7 | 8 ->
      Option.iter (fun m -> Medium.extend t m ~blocks:(1 + Rng.int rng 8)) (pick (with_status RW))
    | _ -> (
      match pick (Medium.live_mediums t) with
      | Some m when Medium.referenced_by t m = [] -> Medium.drop t m
      | _ -> ())
  done;
  let owned = Hashtbl.create 16 in
  List.iter
    (fun m ->
      let runs = ref [] in
      for b = size_blocks t m - 1 downto 0 do
        if Rng.int rng 3 = 0 then
          runs :=
            match !runs with
            | (lo, hi) :: rest when lo = b + 1 -> (b, hi) :: rest
            | rs -> (b, b) :: rs
      done;
      Hashtbl.replace owned m !runs)
    (Medium.live_mediums t);
  (t, fun m -> Option.value ~default:[] (Hashtbl.find_opt owned m))

let prop_shortcut_matches_binary_chase =
  QCheck.Test.make ~name:"shortcut ~owned = binary has_blocks chase on random histories"
    ~count:500 QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, restrict) ->
      Testkit.with_seed_report ~seed:(Int64.of_int seed) @@ fun rng ->
      let t, owned = random_history rng in
      let only =
        if restrict then Some (List.filter (fun _ -> Rng.bool rng) (Medium.live_mediums t))
        else None
      in
      let has_blocks ~medium ~lo ~hi =
        List.exists (fun (rlo, rhi) -> rlo <= hi && rhi >= lo) (owned medium)
      in
      let expected = Medium.rows (binary_shortcut ?only t ~has_blocks) in
      let asked = Hashtbl.create 16 in
      let owned m =
        if Hashtbl.mem asked m then failwith "owned asked twice";
        if status t m <> Some Medium.RO then failwith "owned asked of a RW medium";
        Hashtbl.add asked m ();
        owned m
      in
      Medium.shortcut ?only t ~owned;
      Medium.rows t = expected)

let prop_resolve_depth_bounded =
  QCheck.Test.make ~name:"resolve terminates and is bounded by medium count" ~count:100
    QCheck.(int_range 1 12)
    (fun levels ->
      let t = Medium.create () in
      let m0 = Medium.create_base t ~blocks:8 in
      let top = ref m0 in
      for _ = 1 to levels do
        let _snap, succ = Medium.take_snapshot t !top in
        top := succ
      done;
      let depth = Medium.resolve_depth t !top ~block:0 in
      depth = levels + 1)

let prop_snapshot_preserves_resolution_target =
  (* After any snapshot tower, block b of the top medium still reaches
     (m0, b) at the bottom. *)
  QCheck.Test.make ~name:"snapshot tower preserves base mapping" ~count:100
    QCheck.(pair (int_range 0 7) (int_range 1 8))
    (fun (block, levels) ->
      let t = Medium.create () in
      let m0 = Medium.create_base t ~blocks:8 in
      let top = ref m0 in
      for _ = 1 to levels do
        let _snap, succ = Medium.take_snapshot t !top in
        top := succ
      done;
      match List.rev (Medium.resolve t !top ~block) with
      | (m, b) :: _ -> m = m0 && b = block
      | [] -> false)

let () =
  Alcotest.run "medium"
    [
      ( "mediums",
        [
          Alcotest.test_case "base" `Quick test_base_medium;
          Alcotest.test_case "snapshot" `Quick test_snapshot_freezes_and_chains;
          Alcotest.test_case "snapshot of RO rejected" `Quick test_snapshot_of_ro_rejected;
          Alcotest.test_case "clone with offset" `Quick test_clone_with_offset;
          Alcotest.test_case "clone requires RO" `Quick test_clone_requires_ro;
          Alcotest.test_case "write target" `Quick test_write_target;
          Alcotest.test_case "extend" `Quick test_extend;
          Alcotest.test_case "drop protects references" `Quick test_drop_protects_references;
          Alcotest.test_case "deep chain" `Quick test_deep_chain_resolution;
          QCheck_alcotest.to_alcotest prop_resolve_depth_bounded;
          QCheck_alcotest.to_alcotest prop_snapshot_preserves_resolution_target;
        ] );
      ( "shortcut",
        [
          Alcotest.test_case "flattens empty intermediates" `Quick
            test_shortcut_flattens_empty_intermediates;
          Alcotest.test_case "stops at data" `Quick test_shortcut_stops_at_data;
          Alcotest.test_case "idempotent" `Quick test_shortcut_idempotent;
          QCheck_alcotest.to_alcotest prop_shortcut_matches_binary_chase;
        ] );
      ("figure6", [ Alcotest.test_case "paper schedule" `Quick test_figure6_schedule ]);
    ]
