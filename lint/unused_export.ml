(* Unused-export pass. A value that a library interface declares is a
   finding when no unit outside test/ references it: a caller that only a
   test has is a second path beside the one production runs.

   References are matched by declaration: the engine records, for every
   value a unit names, where the [val] it resolves to is written. That
   follows module aliases, functor parameters, first-class modules and
   [include]d functor instances to the one [val] they all share, and a
   unit's uses of its own bindings (which resolve to its .ml) never count.
   A unit passed whole to a functor references the values the functor's
   parameter takes from it. An [unused_export] waiver on the [val] accepts
   the finding; a waived value that is referenced after all is a stale
   waiver.

   The same references check a [@@purity.lint.callers "A, B"] mark: a
   marked value referenced by a unit other than A or B (and outside test/)
   is a [callers] error, once per referencing file. *)

let lib_root = "lib/"
let test_root = "test/"

let run ?(exporting = Rules.starts_with ~prefix:lib_root)
    ?(counting = fun f -> not (Rules.starts_with ~prefix:test_root f))
    (summaries : Callgraph.file_summary list) : Finding.t list * int =
  (* declaration -> each counted file that references it *)
  let used = Hashtbl.create 4096 in
  List.iter
    (fun (fs : Callgraph.file_summary) ->
      if counting fs.fs_file then
        List.iter (fun d -> Hashtbl.add used d fs.fs_file) fs.fs_uses)
    summaries;
  (* one [val] may be exported under several names ([include S] in two
     interfaces, [module Ipair : S]): report it once *)
  let decls = Hashtbl.create 512 in
  List.iter
    (fun (fs : Callgraph.file_summary) ->
      List.iter
        (fun (e : Callgraph.export) ->
          let file, _, _ = e.e_decl in
          if exporting fs.fs_file && exporting file then
            Hashtbl.replace decls e.e_decl
              (e :: Option.value ~default:[] (Hashtbl.find_opt decls e.e_decl)))
        fs.fs_exports)
    summaries;
  let waived = ref 0 in
  let findings =
    Hashtbl.fold
      (fun ((file, line, col) as decl) (es : Callgraph.export list) acc ->
        let names =
          String.concat "/"
            (List.sort_uniq String.compare
               (List.map (fun (e : Callgraph.export) -> e.e_name) es))
        in
        let allowed = (List.hd es).e_callers in
        let acc =
          if allowed = [] then acc
          else
            List.fold_left
              (fun acc user ->
                if List.mem (Engine.module_name_of_source user) allowed then acc
                else
                  Finding.v ~rule:Callers ~file ~line ~col
                    (Printf.sprintf "%s may be referenced only from %s, but %s references it"
                       names (String.concat ", " allowed) user)
                  :: acc)
              acc
              (List.sort_uniq String.compare (Hashtbl.find_all used decl))
        in
        match (Hashtbl.mem used decl, (List.hd es).e_waiver) with
        | true, None -> acc
        | true, Some (reason, loc) ->
          Finding.of_loc ~rule:Waiver ~file loc
            (Printf.sprintf
               "stale waiver: %s is referenced outside test/ (reason was: %s) \
                — delete the [@purity.lint.allow] attribute"
               names reason)
          :: acc
        | false, Some _ ->
          incr waived;
          acc
        | false, None ->
          Finding.v ~rule:Unused_export ~file ~line ~col
            (Printf.sprintf
               "%s is exported but no unit outside test/ references it; \
                delete it, drop it from the interface, or waive it naming the \
                test or tool that needs it"
               names)
          :: acc)
      decls []
  in
  (List.sort Finding.order findings, !waived)
