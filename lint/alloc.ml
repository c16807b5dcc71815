(* Allocation-freedom pass. From every [@purity.lint.hotpath] root, walk
   the call graph and flag each reachable allocation site: runtime closure
   creation, boxed construction (records, tuples, non-constant
   constructors, arrays, lazy), and calls to known allocating externals
   (Bytes.create, List.map, sprintf, ref, ...).

   What does NOT count:

   - sites inside raise-argument subtrees (the engine already skips them:
     a formatted message on a failure path is not steady-state);

   - defs marked [@purity.lint.coldpath] — the walk does not enter them.
     Segment roll/seal is declared off the steady state this way: filling
     a segment is hot, rolling to the next one is once-per-32MiB;

   - waived sites, which are tallied as waived instead; guarded sites
     still count (try/with does not stop an allocation).

   Each finding carries the witness chain root -> f -> g ending at the def
   containing the site. *)

let run (_cfg : Rules.config) (g : Callgraph.t) : Finding.t list * int =
  let roots =
    Callgraph.defs_sorted g
    |> List.filter (fun (d : Callgraph.def) -> d.hot_root)
    |> List.map (fun (d : Callgraph.def) -> d.name)
  in
  let reached =
    Callgraph.reached_sorted g ~roots ~follow:(fun ~caller:_ ~call:_ ~callee ->
        not callee.Callgraph.cold)
  in
  let findings = ref [] and waived = ref 0 in
  List.iter
    (fun ((d : Callgraph.def), chain) ->
      if not d.cold then
        List.iter
          (fun (s : Callgraph.site) ->
            let what =
              match s.kind with
              | Callgraph.Closure -> Some "allocates a closure"
              | Boxed w -> Some (Printf.sprintf "allocates a boxed %s" w)
              | Alloc_call fn -> Some (Printf.sprintf "calls allocating %s" fn)
              | Raise_site _ | Partial_match -> None
            in
            match what with
            | Some _ when s.s_waived -> incr waived
            | Some what ->
              findings :=
                Finding.v ~rule:Hotalloc ~file:s.s_file ~line:s.s_line
                  ~col:s.s_col ~chain
                  (Printf.sprintf
                     "%s on a hot path: %s %s; steady state must stay \
                      allocation-free — hoist it, reuse a scratch buffer, \
                      or mark the enclosing def [@purity.lint.coldpath] if \
                      it is off the steady state"
                     d.name what
                     (if s.s_guarded then "(inside try/with)" else ""))
                :: !findings
            | None -> ())
          d.sites)
    reached;
  (List.sort Finding.order !findings, !waived)
