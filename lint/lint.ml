(* Library interface + driver: scan build dirs for .cmt/.cmti files,
   run the engine over each, build the whole-program call graph from the
   per-file summaries, run the interprocedural passes and the
   unused-export pass, produce a summary. The only way to accept a finding is a scoped in-source
   [@purity.lint.allow "<rule>: <reason>"] waiver. *)

module Finding = Finding
module Rules = Rules
module Engine = Engine
module Callgraph = Callgraph
module Alloc = Alloc
module Raises = Raises
module Unused_export = Unused_export
module Report = Report

(* All .cmt and .cmti files under [roots] (skipping excluded paths), sorted for
   deterministic report order. *)
let scan_cmts (cfg : Rules.config) ~roots =
  let acc = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
      Array.sort String.compare entries;
      Array.iter
        (fun name ->
          let path = Filename.concat dir name in
          (* dune may replace an entry (a linked .exe) between the
             readdir and this test: a vanished one is skipped *)
          if Rules.is_excluded cfg path then ()
          else
            match Sys.is_directory path with
            | true -> walk path
            | false ->
              if Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti"
              then acc := path :: !acc
            | exception Sys_error _ -> ())
        entries
  in
  List.iter (fun r -> if Sys.file_exists r && Sys.is_directory r then walk r) roots;
  List.sort String.compare !acc

let check_all cfg cmts =
  let checked, read_errors =
    List.partition_map
      (fun cmt ->
        match Engine.check_cmt cfg cmt with Ok r -> Either.Left r | Error e -> Right e)
      cmts
  in
  (List.filter_map (Option.map snd) checked, read_errors)

(* [references] are cmts read only for the uses they make of exported
   values: their own findings are not reported. *)
let run (cfg : Rules.config) ?(references = []) cmts : Report.summary =
  let results, read_errors = check_all cfg cmts in
  let ref_results, ref_errors = check_all cfg references in
  let per_file = List.concat_map (fun r -> r.Engine.findings) results in
  let summaries = List.map (fun r -> r.Engine.summary) results in
  let graph = Callgraph.build summaries in
  let unused, unused_waived =
    Unused_export.run
      (summaries @ List.map (fun r -> r.Engine.summary) ref_results)
  in
  let hot, hot_waived = Alloc.run cfg graph in
  let raises, raises_waived = Raises.run cfg graph in
  {
    Report.files = List.length results;
    findings = List.sort Finding.order (per_file @ hot @ raises @ unused);
    waived =
      List.fold_left
        (fun a r -> a + r.Engine.waived)
        (unused_waived + hot_waived + raises_waived)
        results;
    waivers = List.fold_left (fun a r -> a + r.Engine.waivers) 0 results;
    read_errors = read_errors @ ref_errors;
  }
