(* Exception-reachability pass. Recovery must be total: from every
   [@purity.lint.recovery_root], walk the call graph along *unguarded*
   edges (a call lexically inside try/with, or a match with an exception
   case over its scrutinee, is a declared handler boundary) and flag every
   reachable unguarded raise site and partial match.

   Exceptions in the config's [handled_exns] list (Exit by default — the
   idiomatic early-exit of iter loops) are not findings. Partial matches
   are always findings: there is no handler to declare for a pattern the
   compiler already warned cannot cover its input. *)

let run (cfg : Rules.config) (g : Callgraph.t) : Finding.t list * int =
  let roots =
    Callgraph.defs_sorted g
    |> List.filter (fun (d : Callgraph.def) -> d.recovery_root)
    |> List.map (fun (d : Callgraph.def) -> d.name)
  in
  let reached =
    Callgraph.reached_sorted g ~roots
      ~follow:(fun ~caller:_ ~call ~callee:_ -> not call.Callgraph.guarded)
  in
  let findings = ref [] and waived = ref 0 in
  List.iter
    (fun ((d : Callgraph.def), chain) ->
      List.iter
        (fun (s : Callgraph.site) ->
          let message =
            match s.kind with
            | Callgraph.Raise_site exn when not (List.mem exn cfg.handled_exns) ->
              Some
                (Printf.sprintf
                   "%s raises %s and is reachable from a recovery root with no \
                    intervening handler; a throw here is a failed failover — \
                    handle it, or add %s to handled_exns with the caller that \
                    catches it"
                   d.name exn exn)
            | Partial_match ->
              Some
                (Printf.sprintf
                   "%s contains a partial match reachable from a recovery root; \
                    Match_failure during failover is data loss — make the \
                    match total"
                   d.name)
            | _ -> None
          in
          match message with
          | Some _ when s.s_guarded -> ()
          | Some _ when s.s_waived -> incr waived
          | Some message ->
            findings :=
              Finding.v ~rule:Raises ~file:s.s_file ~line:s.s_line ~col:s.s_col ~chain
                message
              :: !findings
          | None -> ())
        d.sites)
    reached;
  (List.sort Finding.order !findings, !waived)
