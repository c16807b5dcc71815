(* Sets built and read back through the exported [add_range] and [fold]. *)
module Ranges = struct
  include Purity_encoding.Ranges

  let add t v = add_range t ~lo:v ~hi:v
  let is_empty t = range_count t = 0
  let cardinal t = fold (fun ~lo ~hi acc -> acc + (hi - lo + 1)) t 0
  let to_list t = List.rev (fold (fun ~lo ~hi acc -> (lo, hi) :: acc) t [])
  let of_list l = List.fold_left (fun acc (lo, hi) -> add_range acc ~lo ~hi) empty l
end
module Tp = Purity_encoding.Tuple_page

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let ranges_t = Alcotest.testable (fun ppf r -> Fmt.(list (pair int int)) ppf (Ranges.to_list r))
    (fun a b -> Ranges.to_list a = Ranges.to_list b)

(* ---------- Ranges ---------- *)

let test_ranges_empty () =
  check bool "empty" true (Ranges.is_empty Ranges.empty);
  check int "cardinal" 0 (Ranges.cardinal Ranges.empty);
  check bool "mem" false (Ranges.mem Ranges.empty 5)

let test_ranges_adjacent_merge () =
  (* The paper's key property: dense monotone ids collapse to one range. *)
  let r = List.fold_left Ranges.add Ranges.empty [ 1; 2; 3; 4; 5 ] in
  check int "one range" 1 (Ranges.range_count r);
  check (Alcotest.list (Alcotest.pair int int)) "collapsed" [ (1, 5) ] (Ranges.to_list r)

let test_ranges_out_of_order_merge () =
  let r = List.fold_left Ranges.add Ranges.empty [ 5; 1; 3; 2; 4 ] in
  check int "one range" 1 (Ranges.range_count r);
  check int "cardinal" 5 (Ranges.cardinal r)

let test_ranges_gap_kept () =
  let r = List.fold_left Ranges.add Ranges.empty [ 1; 2; 10; 11 ] in
  check int "two ranges" 2 (Ranges.range_count r);
  check bool "gap not member" false (Ranges.mem r 5);
  check bool "members" true (Ranges.mem r 2 && Ranges.mem r 10)

let test_ranges_bridge () =
  let r = List.fold_left Ranges.add Ranges.empty [ 1; 3 ] in
  check int "two before bridge" 2 (Ranges.range_count r);
  let r = Ranges.add r 2 in
  check int "bridged to one" 1 (Ranges.range_count r)

let test_ranges_overlapping_add_range () =
  let r = Ranges.add_range Ranges.empty ~lo:10 ~hi:20 in
  let r = Ranges.add_range r ~lo:15 ~hi:30 in
  check (Alcotest.list (Alcotest.pair int int)) "merged overlap" [ (10, 30) ] (Ranges.to_list r);
  let r = Ranges.add_range r ~lo:0 ~hi:100 in
  check (Alcotest.list (Alcotest.pair int int)) "engulfed" [ (0, 100) ] (Ranges.to_list r)

let test_ranges_idempotent () =
  let r = Ranges.add_range Ranges.empty ~lo:5 ~hi:9 in
  let r2 = Ranges.add_range r ~lo:5 ~hi:9 in
  check ranges_t "idempotent" r r2

let test_ranges_union () =
  let a = Ranges.of_list [ (0, 5); (10, 15) ] in
  let b = Ranges.of_list [ (6, 9); (20, 25) ] in
  let u = Ranges.union a b in
  check (Alcotest.list (Alcotest.pair int int)) "union merges" [ (0, 15); (20, 25) ]
    (Ranges.to_list u)

let test_ranges_encode_roundtrip () =
  let r = Ranges.of_list [ (3, 17); (100, 100); (1000, 5000) ] in
  let r2 = Ranges.decode (Ranges.encode r) in
  check (Alcotest.option ranges_t) "roundtrip" (Some r) r2

let test_ranges_bad_add () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Ranges.add_range: lo > hi") (fun () ->
      ignore (Ranges.add_range Ranges.empty ~lo:5 ~hi:4))

let prop_ranges_match_naive_set =
  QCheck.Test.make ~name:"ranges agree with a naive set" ~count:300
    QCheck.(list_of_size Gen.(0 -- 100) (int_bound 200))
    (fun ids ->
      let r = List.fold_left Ranges.add Ranges.empty ids in
      let module S = Set.Make (Int) in
      let s = S.of_list ids in
      Ranges.cardinal r = S.cardinal s
      && List.for_all (fun v -> Ranges.mem r v = S.mem v s) (List.init 201 Fun.id))

(* Ranges inserted whole, and the union of two such sets, against a
   naive set: membership, size, and canonical form (sorted ranges with
   gaps between them). *)
let prop_ranges_add_range_and_union =
  let ranges_gen = QCheck.Gen.(list_size (0 -- 12) (pair (int_bound 150) (int_bound 12))) in
  QCheck.Test.make ~name:"add_range and union agree with a naive set" ~count:300
    (QCheck.make QCheck.Gen.(pair ranges_gen ranges_gen))
    (fun (xs, ys) ->
      let module S = Set.Make (Int) in
      let build = List.fold_left (fun acc (lo, len) -> Ranges.add_range acc ~lo ~hi:(lo + len)) in
      let naive = List.fold_left (fun acc (lo, len) -> S.union acc (S.of_list (List.init (len + 1) (( + ) lo)))) in
      let r = Ranges.union (build Ranges.empty xs) (build Ranges.empty ys) in
      let s = naive (naive S.empty xs) ys in
      let rec canonical = function
        | (lo, hi) :: ((lo', _) :: _ as rest) -> lo <= hi && hi + 1 < lo' && canonical rest
        | [ (lo, hi) ] -> lo <= hi
        | [] -> true
      in
      canonical (Ranges.to_list r)
      && Ranges.cardinal r = S.cardinal s
      && List.for_all (fun v -> Ranges.mem r v = S.mem v s) (List.init 170 (fun i -> i - 2)))

let prop_ranges_count_bounded =
  (* range_count <= number of distinct inserted ids (the paper's bound). *)
  QCheck.Test.make ~name:"range count bounded by distinct ids" ~count:200
    QCheck.(list_of_size Gen.(0 -- 100) (int_bound 500))
    (fun ids ->
      let r = List.fold_left Ranges.add Ranges.empty ids in
      let module S = Set.Make (Int) in
      Ranges.range_count r <= S.cardinal (S.of_list ids))

let prop_ranges_encode_roundtrip =
  QCheck.Test.make ~name:"ranges serialisation roundtrip" ~count:200
    QCheck.(list_of_size Gen.(0 -- 50) (pair (int_bound 10_000) (int_bound 100)))
    (fun pairs ->
      let r =
        List.fold_left (fun acc (lo, len) -> Ranges.add_range acc ~lo ~hi:(lo + len)) Ranges.empty
          pairs
      in
      Option.map Ranges.to_list (Ranges.decode (Ranges.encode r)) = Some (Ranges.to_list r))

(* ---------- Tuple_page ---------- *)

let tuples_of_lists ls = List.map (fun l -> Array.of_list (List.map Int64.of_int l)) ls

(* The page holds exactly [tuples], in order: for every field, the
   compressed scan for each stored value finds exactly the tuples that
   hold it. *)
let scans_back p ~arity tuples =
  let tuples = Array.of_list tuples in
  let n = Array.length tuples in
  List.for_all
    (fun f ->
      Array.for_all
        (fun tup ->
          let v = tup.(f) in
          Tp.scan p ~field:f ~value:v
          = List.filter (fun j -> Int64.equal tuples.(j).(f) v) (List.init n Fun.id))
        tuples)
    (List.init arity Fun.id)

let test_page_empty () =
  let p = Tp.encode ~arity:3 [] in
  check (Alcotest.list int) "no tuple" [] (Tp.scan p ~field:0 ~value:0L);
  check (Alcotest.list int) "naive agrees" [] (Tp.scan_naive p ~field:0 ~value:0L)

let test_page_roundtrip_small () =
  let tuples = tuples_of_lists [ [ 1; 100; 7 ]; [ 2; 100; 9 ]; [ 3; 200; 7 ] ] in
  let p = Tp.encode ~arity:3 tuples in
  check bool "scans back" true (scans_back p ~arity:3 tuples);
  check (Alcotest.list int) "field 1 = 100" [ 0; 1 ] (Tp.scan p ~field:1 ~value:100L)

let test_page_constant_field_free () =
  (* Paper: a field with the same value in every tuple takes no space. *)
  let tuples = List.init 100 (fun i -> [| Int64.of_int i; 42L |]) in
  let p_with = Tp.encode ~arity:2 tuples in
  let p_without = Tp.encode ~arity:1 (List.init 100 (fun i -> [| Int64.of_int i |])) in
  check int "constant field adds 0 bits/tuple" (Tp.bits_per_tuple p_without)
    (Tp.bits_per_tuple p_with)

let test_page_scan_matches_naive () =
  let tuples = tuples_of_lists [ [ 5; 1 ]; [ 9; 2 ]; [ 5; 3 ]; [ 700; 4 ]; [ 5; 5 ] ] in
  let p = Tp.encode ~arity:2 tuples in
  check (Alcotest.list int) "scan finds all" [ 0; 2; 4 ] (Tp.scan p ~field:0 ~value:5L);
  check (Alcotest.list int) "naive agrees" (Tp.scan_naive p ~field:0 ~value:5L)
    (Tp.scan p ~field:0 ~value:5L);
  check (Alcotest.list int) "absent value" [] (Tp.scan p ~field:0 ~value:6L)

let test_page_compresses_clustered_values () =
  (* Clustered values (e.g. offsets within a few segments) should encode far
     below 64 bits per field. *)
  let tuples =
    List.init 500 (fun i ->
        [| Int64.of_int (1_000_000 + (i mod 50)); Int64.of_int (8_000_000 + (i mod 20)) |])
  in
  let p = Tp.encode ~arity:2 tuples in
  check bool "beats plain encoding 5x" true
    (Tp.size_bytes p * 5 < Tp.plain_size_bytes ~arity:2 ~count:500)

let test_page_arity_mismatch () =
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Tuple_page.encode: arity mismatch") (fun () ->
      ignore (Tp.encode ~arity:2 [ [| 1L |] ]))

let test_page_value_out_of_range () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Tuple_page.encode: value out of range") (fun () ->
      ignore (Tp.encode ~arity:1 [ [| -1L |] ]))

let gen_tuples =
  QCheck.Gen.(
    let* arity = 1 -- 4 in
    let* n = 0 -- 80 in
    let value = oneof [ int_bound 10; int_bound 1000; int_bound 1_000_000; return 0 ] in
    let* rows = list_repeat n (list_repeat arity value) in
    return (arity, List.map (fun l -> Array.of_list (List.map Int64.of_int l)) rows))

let prop_page_roundtrip =
  QCheck.Test.make ~name:"tuple page roundtrip" ~count:300
    (QCheck.make gen_tuples)
    (fun (arity, tuples) ->
      scans_back (Tp.encode ~arity tuples) ~arity tuples)

let prop_page_scan_equals_naive =
  QCheck.Test.make ~name:"compressed scan = naive scan" ~count:300
    (QCheck.make
       QCheck.Gen.(
         let* (arity, tuples) = gen_tuples in
         let* field = 0 -- (arity - 1) in
         let* needle = oneof [ int_bound 10; int_bound 1000; int_bound 1_000_000 ] in
         return (arity, tuples, field, Int64.of_int needle)))
    (fun (arity, tuples, field, needle) ->
      let p = Tp.encode ~arity tuples in
      Tp.scan p ~field ~value:needle = Tp.scan_naive p ~field ~value:needle)

let () =
  Alcotest.run "encoding"
    [
      ( "ranges",
        [
          Alcotest.test_case "empty" `Quick test_ranges_empty;
          Alcotest.test_case "adjacent merge" `Quick test_ranges_adjacent_merge;
          Alcotest.test_case "out of order merge" `Quick test_ranges_out_of_order_merge;
          Alcotest.test_case "gap kept" `Quick test_ranges_gap_kept;
          Alcotest.test_case "bridge" `Quick test_ranges_bridge;
          Alcotest.test_case "overlapping add_range" `Quick test_ranges_overlapping_add_range;
          Alcotest.test_case "idempotent" `Quick test_ranges_idempotent;
          Alcotest.test_case "union" `Quick test_ranges_union;
          Alcotest.test_case "encode roundtrip" `Quick test_ranges_encode_roundtrip;
          Alcotest.test_case "bad add" `Quick test_ranges_bad_add;
          QCheck_alcotest.to_alcotest prop_ranges_match_naive_set;
          QCheck_alcotest.to_alcotest prop_ranges_add_range_and_union;
          QCheck_alcotest.to_alcotest prop_ranges_count_bounded;
          QCheck_alcotest.to_alcotest prop_ranges_encode_roundtrip;
        ] );
      ( "tuple_page",
        [
          Alcotest.test_case "empty" `Quick test_page_empty;
          Alcotest.test_case "roundtrip small" `Quick test_page_roundtrip_small;
          Alcotest.test_case "constant field free" `Quick test_page_constant_field_free;
          Alcotest.test_case "scan matches naive" `Quick test_page_scan_matches_naive;
          Alcotest.test_case "compresses clustered" `Quick test_page_compresses_clustered_values;
          Alcotest.test_case "arity mismatch" `Quick test_page_arity_mismatch;
          Alcotest.test_case "value range" `Quick test_page_value_out_of_range;
          QCheck_alcotest.to_alcotest prop_page_roundtrip;
          QCheck_alcotest.to_alcotest prop_page_scan_equals_naive;
        ] );
    ]
