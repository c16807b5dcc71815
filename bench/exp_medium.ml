(* E4 — Figure 6: the medium table after the paper's snapshot/clone
   schedule, including the GC shortcut that lets medium 22 refer directly
   to medium 12. Prints the resulting table in the figure's layout and
   checks the rows structurally. *)

open Bench_util
module Medium = Purity_medium.Medium

let run () =
  section "E4 / Figure 6 — medium table after snapshots, clones and GC shortcut";
  let t = Medium.create ~first_id:12 () in
  let m12 = Medium.create_base t ~blocks:4000 in
  let m14, succ12 = Medium.take_snapshot t m12 in
  Medium.drop t succ12;
  let m15 = Medium.clone t m12 ~range:(2000, 2999) () in
  let m18 = Medium.clone t m12 ~range:(2000, 2999) () in
  let m20, m21 = Medium.take_snapshot t m18 in
  let _snap21, m22 = Medium.take_snapshot t m21 in
  Medium.extend t m22 ~blocks:1000;
  (* data placement: 12 holds the original blocks; 21 holds overwrites of
     volume blocks 0-499 made while it was the live medium *)
  let owned m = if m = m12 then [ (0, 3999) ] else if m = m21 then [ (0, 499) ] else [] in
  Medium.shortcut ~only:[ m22 ] t ~owned;
  Fmt.pr "%a@." Medium.pp_table t;
  Printf.printf "  (ids %d=12, %d=14, %d=15, %d=18, %d=20, %d=21, %d=22 in the figure)\n" m12
    m14 m15 m18 m20 m21 m22;
  let rows22 =
    List.filter_map (fun (m, e) -> if m = m22 then Some e else None) (Medium.rows t)
  in
  let matches =
    match rows22 with
    | [ r1; r2; r3 ] ->
      r1.Medium.start_block = 0 && r1.Medium.end_block = 499
      && r1.Medium.target = Medium.Underlying { medium = m21; offset = 0 }
      && r2.Medium.start_block = 500 && r2.Medium.end_block = 999
      && r2.Medium.target = Medium.Underlying { medium = m12; offset = 2500 }
      && r3.Medium.start_block = 1000 && r3.Medium.end_block = 1999
      && r3.Medium.target = Medium.Base
    | _ -> false
  in
  Printf.printf
    "  Figure 6 rows for the live medium (0:499 -> 21@0 | 500:999 -> 12@2500 | 1000:1999 -> none): %s\n"
    (if matches then "REPRODUCED" else "DIVERGES");
  Printf.printf "  Lookup depth for block 500 after the shortcut: %d (paper: <= 3 cblocks)\n"
    (Medium.resolve_depth t m22 ~block:500)
