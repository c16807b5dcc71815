(* Domain-escape pass. A closure handed to Pool.map/Pool.run runs on a
   worker domain; any mutable value it can reach is shared across domains
   without the pool's own synchronization. Two ways to reach one:

   - capture: a free variable of the closure with mutable type (or a
     module-level mutable value referenced in its body) — reported at the
     submission site;

   - transitively: a function the closure calls touches a module-level
     mutable value ([Mut_global] site) — reported with the call-chain
     witness from the closure to the touching def.

   The walk stops at the audited multicore modules (pool.ml,
   kernel_stats.ml): their cross-domain state is the reviewed
   implementation, e.g. the shadow kernel counters each worker drains
   into its own lane. The telemetry registry is not among them: it is
   main-domain only, and this pass proves no lane reaches it. A site inside an audited file is not an
   escape; neither is a waived site or a waived submission. *)

let audited_file cfg file = Rules.is_audited_domains cfg file

(* A module-level mutable value *owned by* an audited module is the
   audited implementation no matter where it is referenced: passing
   [Kernel_stats.crc] to [Kernel_stats.tock] from a kernel is the shadow
   protocol (workers record into domain-local shadows the pool drains),
   not an escape. Module name maps back to its basename the same way the
   compiler derived it. *)
let owned_by_audited (cfg : Rules.config) name =
  match String.index_opt name '.' with
  | None -> false
  | Some i ->
    List.mem
      (String.uncapitalize_ascii (String.sub name 0 i) ^ ".ml")
      cfg.audited_domains

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
           module-level mutable state outside the audited modules *)
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
                  | Mut_global (name, ty)
                    when not
                           (s.s_waived
                           || audited_file cfg s.s_file
                           || owned_by_audited cfg name) ->
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
