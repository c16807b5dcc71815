(* Torture sweep: many random fault-plan scenarios through purity.check.
   Excluded from the tier-1 `dune runtest` gate; run with `make torture`
   or `dune build @torture`. Exit status 1 on the first violation, with a
   report that prints the seed and the shrunk reproducing trace.

   Two suites share the binary:
   - [array]: single-array crash/recovery plans (Runner/Plan);
   - [ac]: stretched-pod ActiveCluster plans — partitions, mediator
     loss, straddling writes, simultaneous crashes — audited by the
     two-array model (Ac_runner/Ac_plan). `dune build @torture-ac` runs
     the fixed seed range 1..200 that CI gates on.
   Both run through the same harness, which replays every passing seed
   and compares execution digests. *)

module Runner = Purity_check.Runner
module Plan = Purity_check.Plan
module Ac_runner = Purity_check.Ac_runner
module Ac_plan = Purity_check.Ac_plan

let () =
  let suite = ref "array" in
  let base = ref 1_000L in
  let count = ref 1_000 in
  let steps = ref 0 in
  let spec =
    [
      ( "-suite",
        Arg.Symbol ([ "array"; "ac"; "all" ], fun s -> suite := s),
        " which sweep to run (default array)" );
      ("-base", Arg.String (fun s -> base := Int64.of_string s), "first seed (default 1000)");
      ("-count", Arg.Set_int count, "number of seeds (default 1000)");
      ("-steps", Arg.Set_int steps, "generation steps per scenario (0 = suite default)");
    ]
  in
  Arg.parse spec (fun _ -> ()) "torture [-suite array|ac|all] [-base N] [-count N] [-steps N]";
  let array_gen =
    if !steps = 0 then Plan.default_gen else { Plan.default_gen with Plan.steps = !steps }
  in
  let ac_gen =
    if !steps = 0 then Ac_plan.default_gen
    else { Ac_plan.default_gen with Ac_plan.steps = !steps }
  in
  (* each suite's harness sweep over [base, base+count), reports rendered *)
  let suites =
    [
      ( "array",
        fun ~base ~count ->
          Runner.sweep ~gen:array_gen ~base ~count ()
          |> Option.map Runner.report_to_string );
      ( "ac",
        fun ~base ~count ->
          Ac_runner.sweep ~gen:ac_gen ~base ~count ()
          |> Option.map Ac_runner.report_to_string );
    ]
  in
  (* one harness sweep per 100 seeds, so progress prints between them *)
  let sweep (name, run) =
    let t0 = Unix.gettimeofday () in
    let rec go done_ =
      if done_ >= !count then begin
        Format.printf "torture[%s]: %d scenarios clean in %.1fs@." name !count
          (Unix.gettimeofday () -. t0);
        true
      end
      else
        let n = min 100 (!count - done_) in
        match run ~base:(Int64.add !base (Int64.of_int done_)) ~count:n with
        | Some report ->
          print_string report;
          print_newline ();
          false
        | None ->
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
