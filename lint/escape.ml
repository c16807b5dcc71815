(* Domain-escape pass. A closure handed to Pool.map/Pool.run runs on a
   worker domain; any mutable value it can reach is shared across domains
   without the pool's own synchronization. Two ways to reach one:

   - capture: a free variable of the closure with mutable type (or a
     module-level mutable value referenced in its body) — reported at the
     submission site;

   - transitively: a function the closure calls touches a module-level
     mutable value ([Mut_global] site) — reported with the call-chain
     witness from the closure to the touching def.

   The walk stops at the audited pool module: its cross-domain state is
   the reviewed implementation. Everything else — the kernels' plain
   [Kernel_stats] cells included — is main-domain state that a lane may
   not reach unwaived. A site inside an audited file is not an escape;
   neither is a waived site or a waived submission. *)

let audited_file cfg file = Rules.is_audited_domains cfg file

let run (cfg : Rules.config) (g : Callgraph.t) : Finding.t list =
  let findings = ref [] in
  List.iter
    (fun (p : Callgraph.pool_site) ->
      if not (p.p_waived || audited_file cfg p.p_file) then begin
        (* direct captures *)
        List.iter
          (fun (c : Callgraph.capture) ->
            findings :=
              Finding.v ~rule:Escape ~file:p.p_file ~line:p.p_line ~col:p.p_col
                ~chain:[ p.p_def ]
                (Printf.sprintf
                   "closure submitted to %s captures mutable %s : %s; worker \
                    domains may race on it — pass per-lane slices, or waive \
                    with the invariant that makes the sharing safe"
                   p.p_fn c.cap_name c.cap_type)
              :: !findings)
          p.p_captures;
        (* transitive: functions the closure body calls that touch
           module-level mutable state outside the audited pool *)
        let reached =
          Callgraph.reached_sorted g ~roots:p.p_calls
            ~follow:(fun ~caller:_ ~call:_ ~callee ->
              not (audited_file cfg callee.Callgraph.d_file))
        in
        List.iter
          (fun ((d : Callgraph.def), chain) ->
            if not (audited_file cfg d.d_file) then
              List.iter
                (fun (s : Callgraph.site) ->
                  match s.kind with
                  | Mut_global (name, ty) when not s.s_waived ->
                    findings :=
                      Finding.v ~rule:Escape ~file:p.p_file ~line:p.p_line
                        ~col:p.p_col
                        ~chain:(p.p_def :: chain)
                        (Printf.sprintf
                           "closure submitted to %s reaches module-level \
                            mutable %s : %s (touched in %s at %s:%d); worker \
                            domains share it unsynchronized"
                           p.p_fn name ty d.name s.s_file s.s_line)
                      :: !findings
                  | _ -> ())
                d.sites)
          reached
      end)
    g.pools;
  List.sort_uniq
    (fun a b -> Finding.order a b)
    (List.sort Finding.order !findings)
