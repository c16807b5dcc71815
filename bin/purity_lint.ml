(* purity_lint: the standalone static-analysis driver. Run from the build
   root (the dune @lint alias does this): scans the .cmt typed ASTs dune
   already produced for every module under the given roots, runs the
   per-file rules plus the interprocedural allocation-freedom /
   exception-reachability passes over the whole-program call graph and
   the unused-export pass (with its callers marks), and exits non-zero on any finding not waived
   in source. *)

(* The benchmark's code: its uses of exported values count, but its own
   findings are not gated. *)
let reference_roots = [ "perfbench" ]

let () =
  let roots = ref [] in
  let jsonl = ref "" in
  let spec =
    [
      ( "--root",
        Arg.String (fun s -> roots := s :: !roots),
        "DIR scan this directory for .cmt files (repeatable; default: lib bin \
         bench test lint examples)" );
      ("--jsonl", Arg.Set_string jsonl, "FILE write machine-readable findings (telemetry exporter schema)");
    ]
  in
  Arg.parse spec
    (fun s -> roots := s :: !roots)
    "purity_lint [--root DIR]... [--jsonl FILE]";
  let roots =
    match !roots with
    | [] -> [ "lib"; "bin"; "bench"; "test"; "lint"; "examples" ]
    | rs -> List.rev rs
  in
  let cfg = Lint.Rules.default in
  let summary =
    Lint.run cfg
      ~references:(Lint.scan_cmts cfg ~roots:reference_roots)
      (Lint.scan_cmts cfg ~roots)
  in
  if !jsonl <> "" then Lint.Report.write_jsonl ~path:!jsonl summary;
  Lint.Report.print summary;
  if not (Lint.Report.clean summary) then exit 1
