(* Library interface + driver: scan build dirs for .cmt files, run the
   engine over each (through the digest cache when one is given), build
   the whole-program call graph from the per-file summaries, run the
   interprocedural passes, fold in the baseline, produce a summary. *)

module Finding = Finding
module Rules = Rules
module Engine = Engine
module Callgraph = Callgraph
module Escape = Escape
module Alloc = Alloc
module Raises = Raises
module Cache = Cache
module Baseline = Baseline
module Report = Report

(* All .cmt files under [roots] (skipping excluded paths), sorted for
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
            | false -> if Filename.check_suffix name ".cmt" then acc := path :: !acc
            | exception Sys_error _ -> ())
        entries
  in
  List.iter (fun r -> if Sys.file_exists r && Sys.is_directory r then walk r) roots;
  List.sort String.compare !acc

(* Per-file results for [cmts], served from [cache] where the digest is
   unchanged. Returns (results, read_errors, hits, misses). *)
let check_all (cfg : Rules.config) ~cache cmts =
  let results = ref [] in
  let read_errors = ref [] in
  let hits = ref 0 in
  let misses = ref 0 in
  List.iter
    (fun cmt ->
      let digest =
        match Digest.file cmt with exception Sys_error _ -> "" | d -> d
      in
      match Cache.find cache ~cmt ~digest with
      | Some e ->
        incr hits;
        (match e.Cache.e_result with
        | Some r -> results := r :: !results
        | None -> ())
      | None -> (
        incr misses;
        match Engine.check_cmt cfg cmt with
        | Error e -> read_errors := e :: !read_errors
        | Ok None ->
          Cache.add cache ~cmt
            { Cache.e_digest = digest; e_source = None; e_result = None }
        | Ok (Some (source, r)) ->
          Cache.add cache ~cmt
            { Cache.e_digest = digest; e_source = Some source; e_result = Some r };
          results := r :: !results))
    cmts;
  (List.rev !results, List.rev !read_errors, !hits, !misses)

let run ?cache_path ?(stale_hard = false) (cfg : Rules.config) ~baseline
    ~baseline_path cmts : Report.summary =
  let cache =
    match cache_path with Some p -> Cache.load p | None -> Cache.empty ()
  in
  let results, read_errors, cache_hits, cache_misses =
    check_all cfg ~cache cmts
  in
  (match cache_path with
  | Some p -> ( try Cache.save cache p with Sys_error _ -> ())
  | None -> ());
  let per_file = List.concat_map (fun r -> r.Engine.findings) results in
  let waived = List.fold_left (fun a r -> a + r.Engine.waived) 0 results in
  let waivers = List.fold_left (fun a r -> a + r.Engine.waivers) 0 results in
  let graph = Callgraph.build (List.map (fun r -> r.Engine.summary) results) in
  let inter =
    Escape.run cfg graph @ Alloc.run cfg graph @ Raises.run cfg graph
  in
  let kept, suppressed = Baseline.apply baseline (per_file @ inter) in
  let stale = Baseline.stale ~path:baseline_path baseline in
  let stale_findings, notes =
    if stale_hard then (stale, [])
    else ([], List.map (fun (f : Finding.t) -> f.message) stale)
  in
  {
    Report.files = List.length results;
    findings = List.sort Finding.order (stale_findings @ kept);
    waived;
    waivers;
    baseline_suppressed = suppressed;
    read_errors;
    notes;
    cache_hits;
    cache_misses;
  }
