(* purity.lint engine tests: lint the planted-violation fixtures in
   test/lint_fixtures/ (excluded from the real @lint run) under a config
   that treats them as hot-path / recovery / audited code, and assert that
   every rule class fires at the planted file:line, that the
   interprocedural passes (escape / hotalloc / raises / unused_export)
   catch their planted fixtures with the right witness chains, that in-source waivers suppress
   exactly their finding, that stale and malformed waivers error, and that
   the call-graph edge set is independent of build order. *)

(* Under `dune runtest` the cwd is _build/default/test; under
   `dune exec test/test_lint.exe` it is the project root. *)
let fixture_objs =
  let rel = "lint_fixtures/.lint_fixtures.objs/byte" in
  let candidates = [ rel; "test/" ^ rel; "_build/default/test/" ^ rel ] in
  match List.find_opt Sys.file_exists candidates with
  | Some d -> d
  | None -> rel

let cmt_for ?(ext = ".cmt") name =
  let want = String.lowercase_ascii name ^ ext in
  let files = Array.to_list (Sys.readdir fixture_objs) in
  match
    List.find_opt
      (fun f ->
        let f = String.lowercase_ascii f in
        String.length f >= String.length want
        && String.sub f (String.length f - String.length want) (String.length want)
           = want)
      files
  with
  | Some f -> Filename.concat fixture_objs f
  | None -> Alcotest.failf "no %s cmt under %s" name fixture_objs

let cfg =
  {
    Lint.Rules.hot_path_dirs = [ "lint_fixtures/" ];
    recovery_files = [ "fx_partial.ml" ];
    audited_unsafe = [ "fx_audited.ml" ];
    audited_domains = [ "fx_audited.ml" ];
    exclude = [];
    mutable_types = [];
    handled_exns = [ "Exit" ];
  }

let check name =
  match Lint.Engine.check_cmt cfg (cmt_for name) with
  | Ok (Some (file, r)) -> (file, r)
  | Ok None -> Alcotest.failf "%s: cmt holds no implementation" name
  | Error e -> Alcotest.fail e

let fired (r : Lint.Engine.result) =
  List.map (fun (f : Lint.Finding.t) -> (Lint.Finding.rule_name f.rule, f.line)) r.findings

let rules_at = Alcotest.(list (pair string int))

let graph_of names =
  Lint.Callgraph.build
    (List.map (fun n -> (snd (check n)).Lint.Engine.summary) names)

let rule_line_chain (f : Lint.Finding.t) =
  ((Lint.Finding.rule_name f.rule, f.line), f.chain)

let pass_shape = Alcotest.(list (pair (pair string int) (list string)))

(* ---- per-file rule classes ---- *)

let test_determinism () =
  let file, r = check "fx_determinism" in
  Alcotest.(check bool) "file recorded" true (Filename.basename file = "fx_determinism.ml");
  Alcotest.check rules_at "wall clock and global Random fire; seeded state does not"
    [ ("determinism", 3); ("determinism", 5) ]
    (fired r)

let test_unsafe () =
  let _, r = check "fx_unsafe" in
  Alcotest.check rules_at "unaudited unsafe_get fires" [ ("unsafe", 3) ] (fired r)

let test_domain () =
  let _, r = check "fx_domain" in
  Alcotest.check rules_at
    "Atomic.make and Domain.spawn fire (under the escape rule that subsumed \
     the path-based domain rule); pure chunk arithmetic does not"
    [ ("escape", 3); ("escape", 5) ]
    (fired r);
  List.iter
    (fun (f : Lint.Finding.t) ->
      Alcotest.(check string) "escape is an error" "error"
        (Lint.Finding.severity_name f.severity))
    r.findings

let test_audited () =
  let _, r = check "fx_audited" in
  Alcotest.check rules_at "audited module is exempt" [] (fired r)

let test_hotpath () =
  let _, r = check "fx_hotpath" in
  Alcotest.check rules_at
    "poly =/compare/hash and string-keyed Hashtbl fire; immediates do not"
    [ ("hotpath", 3); ("hotpath", 5); ("hotpath", 7); ("hotpath", 9); ("hotpath", 11) ]
    (fired r)

let test_partial () =
  let _, r = check "fx_partial" in
  Alcotest.check rules_at "List.hd and Option.get fire in recovery code"
    [ ("partial", 3); ("partial", 5) ]
    (fired r)

let test_severities () =
  let _, r = check "fx_determinism" in
  List.iter
    (fun (f : Lint.Finding.t) ->
      Alcotest.(check string) "determinism is an error" "error"
        (Lint.Finding.severity_name f.severity))
    r.findings;
  let _, r = check "fx_hotpath" in
  List.iter
    (fun (f : Lint.Finding.t) ->
      Alcotest.(check string) "hotpath is a warning" "warning"
        (Lint.Finding.severity_name f.severity))
    r.findings

(* ---- interprocedural passes ---- *)

let test_escape_pass () =
  let g = graph_of [ "fx_escape" ] in
  let fs = Lint.Escape.run cfg g in
  Alcotest.check pass_shape
    "ref captured into Pool.map fires at the submission site; \
     immutable-capture closure does not"
    [ (("escape", 5), [ "Fx_escape.racy" ]) ]
    (List.map rule_line_chain fs)

let test_escape_transitive () =
  let g = graph_of [ "fx_escape_chain" ] in
  let fs = Lint.Escape.run cfg g in
  Alcotest.check pass_shape
    "closure calling a helper that bumps a module-level counter fires with \
     the submitter -> helper chain; the waived submission does not"
    [ (("escape", 12), [ "Fx_escape_chain.submitter"; "Fx_escape_chain.helper" ]) ]
    (List.map rule_line_chain fs)

let test_alloc_pass () =
  let g = graph_of [ "fx_hotalloc" ] in
  let fs = Lint.Alloc.run cfg g in
  Alcotest.check pass_shape
    "Bytes.create two hops below the hotpath root carries the witness \
     chain; the coldpath cut is not entered"
    [
      ( ("hotalloc", 4),
        [ "Fx_hotalloc.root"; "Fx_hotalloc.mid"; "Fx_hotalloc.leaf" ] );
    ]
    (List.map rule_line_chain fs)

let test_alloc_through_let_module () =
  let g = graph_of [ "fx_alias" ] in
  let fs = Lint.Alloc.run cfg g in
  Alcotest.check pass_shape
    "a call through a [let module] alias reaches the aliased module's def"
    [ (("hotalloc", 5), [ "Fx_alias.root"; "Inner.leaf" ]) ]
    (List.map rule_line_chain fs)

let test_raises_pass () =
  let g = graph_of [ "fx_raise" ] in
  let fs = Lint.Raises.run cfg g in
  Alcotest.check pass_shape
    "partial match and failwith reachable from the recovery root fire; \
     the match-with-exception boundary stops the walk into deep_fail"
    [
      (("raises", 5), [ "Fx_raise.recover"; "Fx_raise.step" ]);
      (("raises", 7), [ "Fx_raise.recover"; "Fx_raise.fail_path" ]);
    ]
    (List.map rule_line_chain fs)

let test_raises_through_functor () =
  let g = graph_of [ "fx_functor"; "fx_instance" ] in
  let fs = Lint.Raises.run cfg g in
  Alcotest.check pass_shape
    "a raise in a functor body is reached through an included instance"
    [
      ( ("raises", 5),
        [ "Fx_instance.recover"; "Fx_instance.check"; "Fx_functor.check" ] );
    ]
    (List.map rule_line_chain fs)

let test_handled_exns () =
  let g = graph_of [ "fx_raise" ] in
  let cfg' = { cfg with Lint.Rules.handled_exns = [ "Exit"; "Failure" ] } in
  let fs = Lint.Raises.run cfg' g in
  Alcotest.check pass_shape "declared-handled Failure is not a finding"
    [ (("raises", 5), [ "Fx_raise.recover"; "Fx_raise.step" ]) ]
    (List.map rule_line_chain fs)

let test_unused_export () =
  let summary name ext =
    match Lint.Engine.check_cmt cfg (cmt_for ~ext name) with
    | Ok (Some (_, r)) -> r.Lint.Engine.summary
    | Ok None -> Alcotest.failf "%s%s: nothing to check" name ext
    | Error e -> Alcotest.fail e
  in
  let base f = Filename.basename f in
  let fs, waived =
    Lint.Unused_export.run
      ~exporting:(fun f -> base f = "fx_exports.mli")
      ~counting:(fun f -> base f <> "fx_test_user.ml")
      [
        summary "fx_exports" ".cmti";
        summary "fx_exports" ".cmt";
        summary "fx_bench_user" ".cmt";
        summary "fx_test_user" ".cmt";
        summary "fx_functor" ".cmt";
      ]
  in
  Alcotest.check rules_at
    "the unreferenced and the test-only value fire, the stale waiver \
     errors; the let-module alias, the functor argument and the \
     bench-style call count as uses"
    [ ("unused_export", 3); ("unused_export", 7); ("waiver", 9) ]
    (List.map (fun (f : Lint.Finding.t) -> (Lint.Finding.rule_name f.rule, f.line)) fs);
  Alcotest.(check int) "the waived value is accepted" 1 waived

(* ---- call-graph determinism ---- *)

let test_edges_stable =
  let names =
    [ "fx_escape"; "fx_hotalloc"; "fx_raise"; "fx_domain"; "fx_hotpath" ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50 ~name:"edge set independent of build order"
       (QCheck.make
          QCheck.Gen.(
            map
              (fun l -> l)
              (shuffle_l
                 (List.map (fun n -> (snd (check n)).Lint.Engine.summary) names))))
       (fun perm ->
         let reference =
           Lint.Callgraph.edges
             (Lint.Callgraph.build
                (List.map (fun n -> (snd (check n)).Lint.Engine.summary) names))
         in
         Lint.Callgraph.edges (Lint.Callgraph.build perm) = reference))

(* ---- waivers ---- *)

let test_waiver_suppresses () =
  let _, r = check "fx_waived" in
  Alcotest.check rules_at "waived finding is suppressed, no stale error" [] (fired r);
  Alcotest.(check int) "one finding waived" 1 r.waived;
  Alcotest.(check int) "one waiver present" 1 r.waivers

let test_stale_waiver () =
  let _, r = check "fx_stale" in
  (match r.findings with
  | [ f ] ->
    Alcotest.(check string) "stale waiver errors" "waiver" (Lint.Finding.rule_name f.rule);
    Alcotest.(check string) "stale waiver is an error severity" "error"
      (Lint.Finding.severity_name f.severity)
  | fs -> Alcotest.failf "expected exactly one stale-waiver finding, got %d" (List.length fs));
  Alcotest.(check int) "nothing waived" 0 r.waived

let test_refused_waivers () =
  let _, r = check "fx_bad_waivers" in
  Alcotest.check rules_at
    "unknown rule, waiver, retired domain, non-string payload and floating \
     waivers are all refused, and the unsafe site after the floating one \
     still fires"
    [
      ("waiver", 3); ("waiver", 5); ("waiver", 6); ("waiver", 8); ("waiver", 10);
      ("unsafe", 12);
    ]
    (fired r);
  Alcotest.(check int) "nothing waived" 0 r.waived;
  Alcotest.(check int) "no waiver accepted" 0 r.waivers

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "unsafe" `Quick test_unsafe;
          Alcotest.test_case "domain (escape alias)" `Quick test_domain;
          Alcotest.test_case "audited exemption" `Quick test_audited;
          Alcotest.test_case "hotpath" `Quick test_hotpath;
          Alcotest.test_case "partial" `Quick test_partial;
          Alcotest.test_case "severities" `Quick test_severities;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "escape pass" `Quick test_escape_pass;
          Alcotest.test_case "escape pass (transitive)" `Quick test_escape_transitive;
          Alcotest.test_case "alloc pass" `Quick test_alloc_pass;
          Alcotest.test_case "alloc through a let-module alias" `Quick
            test_alloc_through_let_module;
          Alcotest.test_case "raises pass" `Quick test_raises_pass;
          Alcotest.test_case "raises through a functor" `Quick test_raises_through_functor;
          Alcotest.test_case "handled exns" `Quick test_handled_exns;
          Alcotest.test_case "unused exports" `Quick test_unused_export;
          test_edges_stable;
        ] );
      ( "waivers",
        [
          Alcotest.test_case "waiver suppresses" `Quick test_waiver_suppresses;
          Alcotest.test_case "stale waiver errors" `Quick test_stale_waiver;
          Alcotest.test_case "refused waivers" `Quick test_refused_waivers;
        ] );
    ]
