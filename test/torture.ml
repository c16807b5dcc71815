(* Torture sweep: many random fault-plan scenarios through purity.check.
   Excluded from the tier-1 `dune runtest` gate; run with `make torture`
   or `dune build @torture` (array seeds 1..200 and 1000..1999). Exit
   status 1 on the first violation, with a report that prints the seed
   and the shrunk reproducing plan.

   Two suites share the binary:
   - [array]: single-array crash/recovery plans (Runner/Plan);
   - [ac]: stretched-pod ActiveCluster plans — volume creation,
     partitions, mediator loss, straddling writes, simultaneous crashes —
     audited by the two-view pod model (Ac_runner/Ac_plan). `dune build
     @torture-ac` runs seeds 1..200 and 1000..1999, as CI does.
   Both run through the same harness, which replays every passing seed
   and compares execution digests. Each sweep's closing line ends with
   the MD5 of its seeds' execution digests in seed order: equal lines on
   two trees mean the range ran without drift. With [-expect FILE], a
   sweep whose range has a line [suite base count md5] in FILE fails
   unless its digest is that one; the dune aliases pass
   test/torture.digests, so a change that moves a sweep's execution must
   update that file. *)

module Runner = Purity_check.Runner
module Ac_runner = Purity_check.Ac_runner

let () =
  let suite = ref "array" in
  let base = ref 1_000L in
  let count = ref 1_000 in
  let steps = ref 0 in
  let expect = ref "" in
  let spec =
    [
      ( "-suite",
        Arg.Symbol ([ "array"; "ac"; "all" ], fun s -> suite := s),
        " which sweep to run (default array)" );
      ("-base", Arg.String (fun s -> base := Int64.of_string s), "first seed (default 1000)");
      ("-count", Arg.Set_int count, "number of seeds (default 1000)");
      ("-steps", Arg.Set_int steps, "generation steps per scenario (0 = suite default)");
      ("-expect", Arg.Set_string expect, "FILE the closing digest each swept range must have");
    ]
  in
  Arg.parse spec (fun _ -> ())
    "torture [-suite array|ac|all] [-base N] [-count N] [-steps N] [-expect FILE]";
  (* [-expect]'s lines, "suite base count md5"; '#' starts a comment *)
  let expected =
    if !expect = "" then []
    else
      In_channel.with_open_text !expect In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter_map (fun line ->
             match String.split_on_char ' ' (String.trim line) with
             | [ suite; base; count; md5 ] when suite.[0] <> '#' ->
               Some ((suite, Int64.of_string base, int_of_string count), md5)
             | _ -> None)
  in
  let steps = if !steps = 0 then None else Some !steps in
  (* each suite's harness sweep over [base, base+count): the seeds'
     execution digests, or the first report rendered *)
  let suites =
    [
      ( "array",
        fun ~base ~count ->
          Runner.sweep ?steps ~base ~count () |> Result.map_error Runner.report_to_string );
      ( "ac",
        fun ~base ~count ->
          Ac_runner.sweep ?steps ~base ~count ()
          |> Result.map_error Ac_runner.report_to_string );
    ]
  in
  (* one harness sweep per 100 seeds, so progress prints between them;
     the closing line adds the harness's own cost per seed (host ms and
     minor-heap words, replay included), for information, and the
     range's digest *)
  let[@purity.lint.allow
       "determinism: progress/ETA reporting in the test harness, outside the \
        simulation"] sweep (name, run) =
    let t0 = Unix.gettimeofday () in
    let w0 = Gc.minor_words () in
    let digests = Buffer.create 16384 in
    let rec go done_ =
      if done_ >= !count then begin
        let secs = Unix.gettimeofday () -. t0 in
        let per_seed = float_of_int (max 1 !count) in
        let digest = Digest.to_hex (Digest.string (Buffer.contents digests)) in
        Format.printf
          "torture[%s]: %d scenarios clean in %.1fs (per seed: %.1f host ms, %.0f minor \
           words), digest %s@."
          name !count secs
          (secs *. 1000. /. per_seed)
          ((Gc.minor_words () -. w0) /. per_seed)
          digest;
        match List.assoc_opt (name, !base, !count) expected with
        | Some want when want <> digest ->
          Format.printf
            "torture[%s]: seeds %Ld..%Ld drifted: %s expects digest %s; a declared change \
             of execution updates that line@."
            name !base
            (Int64.add !base (Int64.of_int (!count - 1)))
            !expect want;
          false
        | Some _ | None -> true
      end
      else
        let n = min 100 (!count - done_) in
        match run ~base:(Int64.add !base (Int64.of_int done_)) ~count:n with
        | Error report ->
          print_string report;
          print_newline ();
          false
        | Ok ds ->
          List.iter (Printf.bprintf digests "%d\n") ds;
          if n = 100 then
            Format.printf "%s: %d/%d scenarios clean (%.1fs)@." name (done_ + n) !count
              (Unix.gettimeofday () -. t0);
          go (done_ + n)
    in
    go 0
  in
  let selected =
    if !suite = "all" then suites else [ (!suite, List.assoc !suite suites) ]
  in
  if not (List.for_all sweep selected) then exit 1
