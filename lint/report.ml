(* Reporting: compiler-style text on stdout plus a machine-readable JSONL
   report in the telemetry exporter schema (one row per finding with
   kind/array fields, then a lint_summary row), so fleet tooling that
   already parses phone-home output can ingest lint results unchanged.
   Findings carry an "id" under the lint/* namespace and their call-chain
   witness when interprocedural. *)

module Json = Purity_telemetry.Json
module Export = Purity_telemetry.Export

type summary = {
  files : int;
  findings : Finding.t list;  (* unwaived, sorted *)
  waived : int;  (* suppressed by in-source [@purity.lint.allow] *)
  waivers : int;  (* total in-source waivers seen *)
  read_errors : string list;  (* unreadable cmt files *)
}

let finding_row (f : Finding.t) =
  Export.row ~kind:"lint_finding" ~array_id:"purity.lint"
    [
      ("id", Json.Str ("lint/" ^ Finding.rule_name f.rule));
      ("rule", Json.Str (Finding.rule_name f.rule));
      ("severity", Json.Str (Finding.severity_name f.severity));
      ("file", Json.Str f.file);
      ("line", Json.Int f.line);
      ("col", Json.Int f.col);
      ("message", Json.Str f.message);
      ("chain", Json.Arr (List.map (fun s -> Json.Str s) f.chain));
    ]

let summary_row s =
  let count sev =
    List.length (List.filter (fun f -> f.Finding.severity = sev) s.findings)
  in
  Export.row ~kind:"lint_summary" ~array_id:"purity.lint"
    [
      ("id", Json.Str "lint/summary");
      ("files", Json.Int s.files);
      ("findings", Json.Int (List.length s.findings));
      ("errors", Json.Int (count Finding.Error));
      ("warnings", Json.Int (count Finding.Warning));
      ("waived", Json.Int s.waived);
      ("waivers", Json.Int s.waivers);
      ("read_errors", Json.Int (List.length s.read_errors));
    ]

let write_jsonl ~path s =
  let oc = open_out path in
  List.iter
    (fun f ->
      output_string oc (finding_row f);
      output_char oc '\n')
    s.findings;
  output_string oc (summary_row s);
  output_char oc '\n';
  close_out oc

let print s =
  List.iter (fun f -> print_endline (Finding.to_string f)) s.findings;
  List.iter (fun e -> Printf.printf "purity.lint: %s\n" e) s.read_errors;
  Printf.printf "purity.lint: %d files scanned, %d findings (%d waived in source)\n"
    s.files (List.length s.findings) s.waived

let clean s = s.findings = [] && s.read_errors = []
