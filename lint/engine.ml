(* The typed-AST walk. One [check_cmt] call loads a .cmt produced by dune
   and makes a single pass over its implementation that produces two
   things at once:

   - the per-file findings of the syntactic rule classes (determinism,
     unsafe containment, direct Domain/Atomic use, hot-path hygiene,
     partial functions), with in-source
     [@purity.lint.allow "<rule>: <reason>"] waivers on a binding or an
     expression applied, and stale, malformed or floating waivers
     reported;

   - a [Callgraph.file_summary]: every top-level definition with its call
     edges (guarded when inside try/with), allocation sites, raise sites
     and partial matches, module-level mutable-value touches, root
     annotations ([@purity.lint.hotpath], [@purity.lint.recovery_root],
     [@purity.lint.coldpath]), every Pool.map/Pool.run submission with
     the mutable values its closure captures, and the declarations of
     other units' values it references.

   An interface (.cmti) yields only the values it declares, for the
   unused-export pass ([check_signature]).

   The summary is pure data: the interprocedural passes run over the
   summaries alone and never re-read a cmt. *)

type waiver = {
  w_rule : Finding.rule;
  w_reason : string;
  w_loc : Location.t;
  mutable w_hits : int;
}

type result = {
  findings : Finding.t list;  (* unwaived findings, including stale waivers *)
  waived : int;  (* findings suppressed by an in-source waiver *)
  waivers : int;  (* waivers present in the file *)
  summary : Callgraph.file_summary;
}

let attr_name = "purity.lint.allow"
let attr_hot = "purity.lint.hotpath"
let attr_recovery = "purity.lint.recovery_root"
let attr_cold = "purity.lint.coldpath"

let payload_string (p : Parsetree.payload) =
  match p with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
    Some s
  | _ -> None

let split_waiver s =
  match String.index_opt s ':' with
  | None -> (String.trim s, "")
  | Some i ->
    ( String.trim (String.sub s 0 i),
      String.trim (String.sub s (i + 1) (String.length s - i - 1)) )

let has_attr name (attrs : Typedtree.attributes) =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = name) attrs

(* ---- canonical names ----

   dune mangles a library's modules to Lib__Module; the resolved path of
   a cross-library call may or may not go through the alias. Canonical
   form: strip the [Lib__] prefix of every component, drop a leading
   Stdlib, keep the last two components — so "Purity_core__State.put",
   "State.put" and (for a reference from inside state.ml) the bare
   binding all become "State.put". *)

let canon_component c =
  let rec last_sep i found =
    if i + 2 > String.length c then found
    else if c.[i] = '_' && c.[i + 1] = '_' then last_sep (i + 2) (Some i)
    else last_sep (i + 1) found
  in
  match last_sep 0 None with
  | Some i when i + 2 < String.length c ->
    String.sub c (i + 2) (String.length c - i - 2)
  | _ -> c

let canon_dotted name =
  let name = Rules.strip_stdlib name in
  let parts = String.split_on_char '.' name |> List.map canon_component in
  match List.rev parts with
  | [] -> name
  | [ x ] -> x
  | x :: y :: _ -> y ^ "." ^ x

let module_name_of_source source_file =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename source_file))

(* ---- functors ---- *)

let rec is_functor (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_functor _ -> true
  | Tmod_constraint (me, _, _, _) -> is_functor me
  | _ -> false

(* The unit owning a functor parameter's module type: "Patch" for
   [Patch.S] or [Purity_pyramid.Patch.S]; [None] for a module type of
   the functor's own unit, whose parameter has no implementation there. *)
let rec functor_param_owner (mty : Typedtree.module_type) =
  match mty.mty_desc with
  | Tmty_ident (p, _) -> (
    match String.split_on_char '.' (canon_dotted (Path.name p)) with
    | [ owner; _ ] -> Some owner
    | _ -> None)
  | Tmty_with (mty, _) -> functor_param_owner mty
  | _ -> None

(* The unit whose functor an [include F(X)] applies: "Pyramid" for
   [Purity_pyramid.Pyramid.Make (P)]. *)
let rec applied_owner (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_apply (f, _, _) | Tmod_apply_unit f -> applied_owner f
  | Tmod_constraint (me, _, _, _) -> applied_owner me
  | Tmod_ident (p, _) -> (
    match String.split_on_char '.' (canon_dotted (Path.name p)) with
    | [ owner; _ ] -> Some owner
    | _ -> None)
  | _ -> None

(* ---- type inspection (no Env needed: get_desc follows links only) ---- *)

let rec arrow_params ty =
  match Types.get_desc ty with
  | Tarrow (_, a, b, _) ->
    let ps, r = arrow_params b in
    (a :: ps, r)
  | _ -> ([], ty)

let is_immediate ty =
  match Types.get_desc ty with
  | Tconstr (p, [], _) ->
    Path.same p Predef.path_int
    || Path.same p Predef.path_char
    || Path.same p Predef.path_bool
    || Path.same p Predef.path_unit
  | _ -> false

let is_tvar ty = match Types.get_desc ty with Tvar _ -> true | _ -> false

let type_to_string ty =
  try Format.asprintf "%a" Printtyp.type_expr ty with _ -> "_"

(* Structural mutability for the escape pass: mutable stdlib containers
   by predef path or canonical name, project record types via the config
   list, transparently through tuples / options / lists of mutable.
   [self] is the unit's module name, so a bare local constructor [t]
   inside writer.ml still matches a configured "Writer.t"; [resolve]
   rewrites module aliases (an [Rs.t] where [module Rs = Reed_solomon]
   still matches "Reed_solomon.t"). *)
let rec is_mutable_ty (cfg : Rules.config) ~self ~resolve ty =
  match Types.get_desc ty with
  | Tconstr (p, args, _) ->
    let n = resolve (canon_dotted (Path.name p)) in
    if n = "ref" || n = "array" || n = "bytes" then true
    else if
      List.mem n Rules.mutable_builtin
      || List.mem n cfg.mutable_types
      || ((not (String.contains n '.'))
         && List.mem (self ^ "." ^ n) cfg.mutable_types)
    then true
    else if n = "option" || n = "list" || n = "Lazy.t" then
      List.exists (is_mutable_ty cfg ~self ~resolve) args
    else false
  | Ttuple ts -> List.exists (is_mutable_ty cfg ~self ~resolve) ts
  | _ -> false

(* key type of the [('k, 'v) Hashtbl.t] a polymorphic-Hashtbl function is
   applied at; [None] when it cannot be determined *)
let hashtbl_key_type name ty =
  let params, ret = arrow_params ty in
  let table_ty =
    if name = "Hashtbl.create" then Some ret
    else match params with t :: _ -> Some t | [] -> None
  in
  match table_ty with
  | None -> None
  | Some t -> (
    match Types.get_desc t with Tconstr (_, [ k; _ ], _) -> Some k | _ -> None)

(* Variables bound by a pattern, with their types. *)
let pat_vars : type k. k Typedtree.general_pattern -> (Ident.t * Types.type_expr) list =
 fun p ->
  let acc = ref [] in
  let pat (type k2) sub (p : k2 Typedtree.general_pattern) =
    (match p.pat_desc with
    | Typedtree.Tpat_var (id, _) -> acc := (id, p.pat_type) :: !acc
    | Typedtree.Tpat_alias (_, id, _) -> acc := (id, p.pat_type) :: !acc
    | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  let it = { Tast_iterator.default_iterator with pat } in
  it.pat it p;
  !acc

(* The values of [sg] a functor application takes when [sg] is its
   argument's signature: all of them under an exact match, else the ones
   the coercion picks by runtime position. *)
let supplied_values (sg : Types.signature) (coe : Typedtree.module_coercion) =
  let runtime =
    List.filter_map
      (function
        | Types.Sig_value (_, ({ val_kind = Val_reg; _ } as vd), _) -> Some (Some vd)
        | Sig_value _ | Sig_type _ | Sig_modtype _ | Sig_class_type _
        | Sig_module (_, Mp_absent, _, _, _) ->
          None
        | Sig_typext _ | Sig_module _ | Sig_class _ -> Some None)
      sg
  in
  match coe with
  | Tcoerce_none -> List.filter_map Fun.id runtime
  | Tcoerce_structure (picks, _) ->
    List.filter_map (fun (pos, _) -> Option.join (List.nth_opt runtime pos)) picks
  | _ -> []

(* ---- the per-file walk ---- *)

let check_structure (cfg : Rules.config) ~source_file (str : Typedtree.structure) :
    result =
  let findings = ref [] in
  let waived = ref 0 in
  let all_waivers = ref [] in
  let active = ref [] in
  let unit_module = module_name_of_source source_file in
  let emit ~loc rule message =
    match List.find_opt (fun w -> w.w_rule = rule) !active with
    | Some w ->
      w.w_hits <- w.w_hits + 1;
      incr waived
    | None ->
      findings := Finding.of_loc ~rule ~file:source_file loc message :: !findings
  in
  (* waiver parse errors are never themselves waivable *)
  let emit_bad loc message =
    findings := Finding.of_loc ~rule:Waiver ~file:source_file loc message :: !findings
  in
  let parse_waivers (attrs : Parsetree.attributes) =
    List.filter_map
      (fun (a : Parsetree.attribute) ->
        if a.attr_name.txt <> attr_name then None
        else
          match payload_string a.attr_payload with
          | None ->
            emit_bad a.attr_loc
              "waiver payload must be a string literal: [@purity.lint.allow \
               \"<rule>: <reason>\"]";
            None
          | Some s -> (
            let rule_s, reason = split_waiver s in
            match Finding.rule_of_name rule_s with
            | None ->
              emit_bad a.attr_loc
                (Printf.sprintf "unknown rule %S in waiver (expected one of %s)"
                   rule_s Finding.rule_names);
              None
            | Some r -> Some { w_rule = r; w_reason = reason; w_loc = a.attr_loc; w_hits = 0 }))
      attrs
  in
  let with_waivers attrs f =
    match parse_waivers attrs with
    | [] -> f ()
    | ws ->
      all_waivers := ws @ !all_waivers;
      active := ws @ !active;
      f ();
      active := List.filter (fun w -> not (List.memq w ws)) !active
  in
  (* A site covered by an active waiver of its rule is recorded as waived
     (the passes skip it) and the waiver counts as used: the site exists
     whether or not a root currently reaches it. *)
  let site_waived rule =
    match List.find_opt (fun w -> w.w_rule = rule) !active with
    | Some w ->
      w.w_hits <- w.w_hits + 1;
      true
    | None -> false
  in
  let hot = Rules.in_hot_path cfg source_file in
  let recovery = Rules.in_recovery cfg source_file in
  let audited = Rules.is_audited cfg source_file in
  let audited_domains = Rules.is_audited_domains cfg source_file in

  (* -- pre-pass: module-level bindings (across nested structures), keyed
     by Ident.unique_name so closure free-variable analysis can tell a
     captured local from a same-module top-level reference, plus the
     module aliases the unit declares -- *)
  let toplevel : (string, string * Types.type_expr) Hashtbl.t = Hashtbl.create 64 in
  let aliases : (string, string) Hashtbl.t = Hashtbl.create 8 in
  (* A module alias, [module Rs = Purity_erasure.Reed_solomon] or [let
     module R = ... in]: later references go through the alias path, so
     record the target to keep canonical names (and therefore graph
     edges) unified. *)
  let rec alias_target (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> (
      match List.rev (String.split_on_char '.' (Path.name p)) with
      | last :: _ ->
        let last = canon_component last in
        Some (Option.value ~default:last (Hashtbl.find_opt aliases last))
      | [] -> None)
    | Tmod_constraint (me, _, _, _) -> alias_target me
    | _ -> None
  in
  let rec collect_top modname (s : Typedtree.structure) =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              List.iter
                (fun (id, ty) ->
                  Hashtbl.replace toplevel (Ident.unique_name id)
                    (modname ^ "." ^ Ident.name id, ty))
                (pat_vars vb.vb_pat))
            vbs
        | Tstr_module mb -> collect_top_module modname mb
        | Tstr_recmodule mbs -> List.iter (collect_top_module modname) mbs
        | Tstr_include incl ->
          List.iter
            (function
              | Types.Sig_value (id, vd, _) ->
                Hashtbl.replace toplevel (Ident.unique_name id)
                  (modname ^ "." ^ Ident.name id, vd.Types.val_type)
              | _ -> ())
            incl.incl_type
        | _ -> ())
      s.str_items
  and collect_top_module parent (mb : Typedtree.module_binding) =
    let name =
      match mb.mb_name.txt with Some n -> n | None -> parent ^ "._" in
    let rec body name (me : Typedtree.module_expr) =
      match me.mod_desc with
      | Tmod_structure s -> collect_top name s
      | Tmod_constraint (me, _, _, _) -> body name me
      | Tmod_functor (param, me) ->
        (* A functor's body is its unit's one implementation, whatever
           the instance: its bindings take the enclosing module's names,
           and a parameter stands for the unit that owns its module type
           ([P : Patch.S] resolves [P.find] to "Patch.find"). *)
        (match param with
        | Named (Some id, _, mty) -> (
          match functor_param_owner mty with
          | Some owner -> Hashtbl.replace aliases (Ident.name id) owner
          | None -> ())
        | Named (None, _, _) | Unit -> ());
        body parent me
      | _ -> (
        match alias_target me with
        | Some target -> Hashtbl.replace aliases name target
        | None -> ())
    in
    body name mb.mb_expr
  in
  collect_top unit_module str;

  (* rewrite a canonical name's module component through the alias table *)
  let resolve n =
    match String.index_opt n '.' with
    | None -> n
    | Some i -> (
      match Hashtbl.find_opt aliases (String.sub n 0 i) with
      | Some m -> m ^ String.sub n i (String.length n - i)
      | None -> n)
  in

  (* canonical name of a referenced path; [None] for local variables *)
  let canon_of_path (p : Path.t) =
    match p with
    | Path.Pident id -> (
      match Hashtbl.find_opt toplevel (Ident.unique_name id) with
      | Some (qname, _) -> Some qname
      | None -> None)
    | _ -> Some (resolve (canon_dotted (Path.name p)))
  in

  (* -- graph extraction state -- *)
  let module_stack = ref [] in
  let cur_prefix () =
    match !module_stack with m :: _ -> m | [] -> unit_module
  in
  let defs = ref [] in
  let pools = ref [] in
  let uses = ref [] in
  let record_use (vd : Types.value_description) =
    let p = vd.val_loc.loc_start in
    if p.pos_fname <> source_file && not vd.val_loc.loc_ghost then
      uses := (p.pos_fname, p.pos_lnum, p.pos_cnum - p.pos_bol) :: !uses
  in
  let cur : Callgraph.def option ref = ref None in
  let try_depth = ref 0 in
  let raise_depth = ref 0 in
  let def_heads : Typedtree.expression list ref = ref [] in
  let loc_pos (loc : Location.t) =
    (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
  in
  let record_site ~loc kind =
    match !cur with
    | None -> ()
    | Some d ->
      let rule =
        match (kind : Callgraph.site_kind) with
        | Closure | Boxed _ | Alloc_call _ -> Finding.Hotalloc
        | Raise_site _ | Partial_match -> Finding.Raises
        | Mut_global _ -> Finding.Escape
      in
      let line, col = loc_pos loc in
      let site =
        {
          Callgraph.kind;
          s_file = source_file;
          s_line = line;
          s_col = col;
          s_guarded = !try_depth > 0;
          s_waived = site_waived rule;
        }
      in
      cur := Some { d with Callgraph.sites = site :: d.Callgraph.sites }
  in
  let record_call callee =
    match !cur with
    | None -> ()
    | Some d ->
      let call = { Callgraph.callee; guarded = !try_depth > 0 } in
      cur := Some { d with Callgraph.calls = call :: d.Callgraph.calls }
  in

  (* the syntactic rule classes, unchanged from the per-module engine
     (direct Domain/Atomic/... use is now emitted under [escape]) *)
  let check_ident ~loc name (e : Typedtree.expression) =
    if Rules.determinism_violation name then
      emit ~loc Determinism
        (Printf.sprintf
           "%s reads ambient time/entropy and breaks per-seed replay; use the \
            sim clock or a seeded Purity_util.Rng"
           name)
    else if (not audited) && Rules.unsafe_violation name then
      emit ~loc Unsafe
        (Printf.sprintf
           "%s outside the audited kernel modules; move it behind an audited \
            kernel or waive it with a reason"
           name)
    else if (not audited_domains) && Rules.domain_violation name then
      emit ~loc Escape
        (Printf.sprintf
           "%s outside the audited pool module; cross-domain shared \
            mutable state breaks deterministic replay — go through \
            Purity_par.Pool or audit this module in the lint config"
           name)
    else begin
      if recovery && Rules.partial_violation name then
        emit ~loc Partial
          (Printf.sprintf
             "partial %s in recovery/replication code: an exception here is a \
              failed failover; match explicitly"
             name);
      if hot then begin
        if List.mem name Rules.poly_compare then begin
          match arrow_params e.Typedtree.exp_type with
          | a :: _, _ when (not (is_immediate a)) && not (is_tvar a) ->
            emit ~loc Hotpath
              (Printf.sprintf
                 "polymorphic %s at type %s in a hot-path module; use a \
                  specialized comparison (String.equal, Int64.compare, ...)"
                 (if name = "compare" then "compare" else Printf.sprintf "(%s)" name)
                 (type_to_string a))
          | _ -> ()
        end
        else if name = "Hashtbl.hash" then begin
          match arrow_params e.Typedtree.exp_type with
          | a :: _, _ when (not (is_immediate a)) && not (is_tvar a) ->
            emit ~loc Hotpath
              (Printf.sprintf
                 "polymorphic Hashtbl.hash at type %s in a hot-path module; \
                  use a specialized hash (String.hash, Purity_util.Xxhash)"
                 (type_to_string a))
          | _ -> ()
        end
        else if List.mem name Rules.hashtbl_funcs then begin
          match hashtbl_key_type name e.Typedtree.exp_type with
          | Some k when (not (is_immediate k)) && not (is_tvar k) ->
            emit ~loc Hotpath
              (Printf.sprintf
                 "%s with non-primitive key type %s in a hot-path module; use \
                  Hashtbl.Make with a specialized key module \
                  (Purity_util.Keytbl)"
                 name (type_to_string k))
          | _ -> ()
        end
      end
    end
  in

  (* -- closure capture analysis for Pool.map/Pool.run submissions -- *)
  let analyze_pool_closure (fexp : Typedtree.expression) =
    let used : (string, string * Types.type_expr) Hashtbl.t = Hashtbl.create 32 in
    let order = ref [] in
    let bound : (string, unit) Hashtbl.t = Hashtbl.create 32 in
    let calls = ref [] in
    let expr sub (e : Typedtree.expression) =
      (match e.Typedtree.exp_desc with
      | Texp_ident (Path.Pident id, _, _) ->
        let key = Ident.unique_name id in
        if not (Hashtbl.mem used key) then begin
          Hashtbl.replace used key (Ident.name id, e.Typedtree.exp_type);
          order := key :: !order
        end;
        (match canon_of_path (Path.Pident id) with
        | Some c -> calls := c :: !calls
        | None -> ())
      | Texp_ident (p, _, _) -> (
        match canon_of_path p with Some c -> calls := c :: !calls | None -> ())
      | Texp_for (id, _, _, _, _, _) ->
        Hashtbl.replace bound (Ident.unique_name id) ()
      | _ -> ());
      Tast_iterator.default_iterator.expr sub e
    in
    let pat (type k) sub (p : k Typedtree.general_pattern) =
      (match p.Typedtree.pat_desc with
      | Typedtree.Tpat_var (id, _) -> Hashtbl.replace bound (Ident.unique_name id) ()
      | Typedtree.Tpat_alias (_, id, _) ->
        Hashtbl.replace bound (Ident.unique_name id) ()
      | _ -> ());
      Tast_iterator.default_iterator.pat sub p
    in
    let it = { Tast_iterator.default_iterator with expr; pat } in
    it.expr it fexp;
    let captures =
      List.rev !order
      |> List.filter_map (fun key ->
             if Hashtbl.mem bound key then None
             else
               match Hashtbl.find_opt used key with
               | Some (name, ty)
                 when (not (Hashtbl.mem toplevel key)) && is_mutable_ty cfg ~self:unit_module ~resolve ty ->
                 Some { Callgraph.cap_name = name; cap_type = type_to_string ty }
               | _ -> None)
    in
    (* module-level mutable values the closure touches directly count as
       captures too: the worker domain reaches them all the same *)
    let global_caps =
      List.rev !calls
      |> List.filter_map (fun c ->
             let found =
               Hashtbl.fold
                 (fun _ (qname, ty) acc ->
                   if qname = c && is_mutable_ty cfg ~self:unit_module ~resolve ty then Some ty else acc)
                 toplevel None
             in
             match found with
             | Some ty ->
               Some { Callgraph.cap_name = c; cap_type = type_to_string ty }
             | None -> None)
    in
    let seen = Hashtbl.create 8 in
    let captures =
      List.filter
        (fun (c : Callgraph.capture) ->
          if Hashtbl.mem seen c.cap_name then false
          else begin
            Hashtbl.replace seen c.cap_name ();
            true
          end)
        (captures @ global_caps)
    in
    (captures, List.sort_uniq String.compare !calls)
  in
  let record_pool_site ~loc fn_name (args : (_ * Typedtree.expression option) list) =
    let closure =
      List.fold_left
        (fun acc (_, a) -> match a with Some e -> Some e | None -> acc)
        None args
    in
    let p_waived = site_waived Finding.Escape in
    let captures, calls =
      match closure with
      | Some ({ Typedtree.exp_desc = Texp_function _; _ } as fexp) ->
        analyze_pool_closure fexp
      | Some { Typedtree.exp_desc = Texp_ident (p, _, _); _ } -> (
        match canon_of_path p with Some c -> ([], [ c ]) | None -> ([], []))
      | _ -> ([], [])
    in
    let line, col = loc_pos loc in
    pools :=
      {
        Callgraph.p_fn = fn_name;
        p_file = source_file;
        p_line = line;
        p_col = col;
        p_def =
          (match !cur with Some d -> d.Callgraph.name | None -> cur_prefix ());
        p_captures = captures;
        p_calls = calls;
        p_waived;
      }
      :: !pools
  in

  let default = Tast_iterator.default_iterator in
  let rec expr sub (e : Typedtree.expression) =
    with_waivers e.exp_attributes (fun () ->
        match e.exp_desc with
        | Texp_ident (path, lid, vd) ->
          record_use vd;
          check_ident ~loc:lid.loc (Rules.strip_stdlib (Path.name path)) e;
          (match canon_of_path path with
          | Some c ->
            record_call c;
            (* a module-level mutable value touched inside a function *)
            let is_top =
              match path with
              | Path.Pident id -> Hashtbl.mem toplevel (Ident.unique_name id)
              | _ -> true
            in
            if is_top && is_mutable_ty cfg ~self:unit_module ~resolve e.exp_type then
              record_site ~loc:lid.loc
                (Callgraph.Mut_global (c, type_to_string e.exp_type))
          | None -> ());
          default.expr sub e
        | Texp_apply ({ exp_desc = Texp_ident (p, lid, _); _ }, args) -> (
          let cname = canon_of_path p in
          (match cname with
          | Some c when List.mem c Rules.pool_submit ->
            record_pool_site ~loc:e.exp_loc c args
          | Some c when List.mem c Rules.alloc_externals && !raise_depth = 0 ->
            record_site ~loc:e.exp_loc (Callgraph.Alloc_call c)
          | _ -> ());
          let raise_like =
            match cname with
            | Some c when List.mem c Rules.raise_names -> Some c
            | _ -> None
          in
          match raise_like with
          | Some rn ->
            let exn =
              match args with
              | (_, Some { exp_desc = Texp_construct (_, cd, _); _ }) :: _
                when rn = "raise" || rn = "raise_notrace" ->
                cd.cstr_name
              | _ -> Rules.raise_exn_of rn
            in
            if !raise_depth = 0 then
              record_site ~loc:lid.loc (Callgraph.Raise_site exn);
            incr raise_depth;
            default.expr sub e;
            decr raise_depth
          | None -> default.expr sub e)
        | Texp_function { cases; partial; _ } ->
          if not (List.memq e !def_heads) && !raise_depth = 0 then
            record_site ~loc:e.exp_loc Callgraph.Closure;
          if partial = Partial && !raise_depth = 0 then
            record_site ~loc:e.exp_loc Callgraph.Partial_match;
          ignore cases;
          default.expr sub e
        | Texp_match (scrut, cases, partial) ->
          if partial = Partial && !raise_depth = 0 then
            record_site ~loc:e.exp_loc Callgraph.Partial_match;
          let has_exn_case =
            List.exists
              (fun (c : Typedtree.computation Typedtree.case) ->
                match Typedtree.split_pattern c.c_lhs with
                | _, Some _ -> true
                | _ -> false)
              cases
          in
          if has_exn_case then begin
            incr try_depth;
            expr sub scrut;
            decr try_depth
          end
          else expr sub scrut;
          List.iter (fun c -> sub.Tast_iterator.case sub c) cases
        | Texp_try (body, handlers) ->
          incr try_depth;
          expr sub body;
          decr try_depth;
          List.iter (fun c -> sub.Tast_iterator.case sub c) handlers
        | Texp_assert _ ->
          if !raise_depth = 0 then
            record_site ~loc:e.exp_loc (Callgraph.Raise_site "Assert_failure");
          incr raise_depth;
          default.expr sub e;
          decr raise_depth
        | Texp_construct (_, cd, args) ->
          if args <> [] && !raise_depth = 0 then
            record_site ~loc:e.exp_loc (Callgraph.Boxed cd.cstr_name);
          default.expr sub e
        | Texp_tuple _ ->
          if !raise_depth = 0 then record_site ~loc:e.exp_loc (Callgraph.Boxed "tuple");
          default.expr sub e
        | Texp_record _ ->
          if !raise_depth = 0 then record_site ~loc:e.exp_loc (Callgraph.Boxed "record");
          default.expr sub e
        | Texp_array elts ->
          if elts <> [] && !raise_depth = 0 then
            record_site ~loc:e.exp_loc (Callgraph.Boxed "array");
          default.expr sub e
        | Texp_variant (_, Some _) ->
          if !raise_depth = 0 then
            record_site ~loc:e.exp_loc (Callgraph.Boxed "variant");
          default.expr sub e
        | Texp_lazy _ ->
          if !raise_depth = 0 then record_site ~loc:e.exp_loc (Callgraph.Boxed "lazy");
          default.expr sub e
        | Texp_letmodule (Some id, _, _, me, _) -> (
          match alias_target me with
          | Some target ->
            Hashtbl.add aliases (Ident.name id) target;
            default.expr sub e;
            Hashtbl.remove aliases (Ident.name id)
          | None -> default.expr sub e)
        | _ -> default.expr sub e)
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    with_waivers vb.vb_attributes (fun () -> default.value_binding sub vb)
  in
  let rec unit_path (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Ident.global (Path.head p)
    | Tmod_constraint (me, _, _, _) -> unit_path me
    | _ -> false
  in
  (* A unit passed whole to a functor, [Fact.Make (Keys.Block) (Blockref)],
     supplies the values the functor's parameter declares: each is a use
     of that unit's value. *)
  let module_expr sub (me : Typedtree.module_expr) =
    (match me.mod_desc with
    | Tmod_apply (_, arg, coe) when unit_path arg -> (
      match arg.mod_type with
      | Mty_signature sg -> List.iter record_use (supplied_values sg coe)
      | _ -> ())
    | _ -> ());
    default.module_expr sub me
  in
  (* mark the leading fun-chain of a definition: those Texp_function nodes
     are the definition itself, not runtime closure allocations. An
     optional-argument default ([?(x = e)]) elaborates as a [let] that
     unpacks the option between two parameter functions, and a
     memoisation prefix ([let tbl = ... in fun x -> ...]) builds its
     state once at module init — descend through [Texp_let] so the
     parameter functions behind either are still the def's own head. *)
  let rec mark_def_heads (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_function { cases; _ } ->
      def_heads := e :: !def_heads;
      (match cases with [ c ] -> mark_def_heads c.c_rhs | _ -> ())
    | Texp_let (_, _, body) -> mark_def_heads body
    | _ -> ()
  in
  let structure_item sub (item : Typedtree.structure_item) =
    match item.str_desc with
    | Tstr_attribute a when a.attr_name.txt = attr_name ->
      emit_bad a.attr_loc
        "floating [@@@purity.lint.allow] would waive the rest of the module; \
         attach the waiver to the binding or expression it covers"
    | Tstr_value (_, vbs) when !cur = None ->
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          let vars = pat_vars vb.vb_pat in
          let name =
            match
              List.sort
                (fun (a, _) (b, _) ->
                  String.compare (Ident.name a) (Ident.name b))
                vars
            with
            | (id, _) :: _ -> cur_prefix () ^ "." ^ Ident.name id
            | [] -> cur_prefix () ^ "._"
          in
          let line, _ = loc_pos vb.vb_loc in
          let is_fun =
            match vb.vb_expr.exp_desc with Texp_function _ -> true | _ -> false
          in
          mark_def_heads vb.vb_expr;
          cur :=
            Some
              {
                Callgraph.name;
                d_file = source_file;
                d_line = line;
                is_fun;
                hot_root = has_attr attr_hot vb.vb_attributes;
                recovery_root = has_attr attr_recovery vb.vb_attributes;
                cold = has_attr attr_cold vb.vb_attributes;
                calls = [];
                sites = [];
              };
          sub.Tast_iterator.value_binding sub vb;
          (match !cur with Some d -> defs := d :: !defs | None -> ());
          cur := None)
        vbs
    | Tstr_module mb when is_functor mb.mb_expr ->
      (* the body's bindings are the enclosing module's (collect_top) *)
      default.structure_item sub item
    | Tstr_module mb ->
      let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
      module_stack := name :: !module_stack;
      default.structure_item sub item;
      module_stack := List.tl !module_stack
    | Tstr_include incl when !cur = None -> (
      (* [include F (X)] of another unit's functor: each included value is
         that unit's implementation, so it gets a def forwarding there —
         a call to [Block_index.find] reaches the body of [Pyramid.find] *)
      match applied_owner incl.incl_mod with
      | Some owner when owner <> cur_prefix () ->
        let line, _ = loc_pos incl.incl_loc in
        List.iter
          (function
            | Types.Sig_value (id, _, _) ->
              defs :=
                {
                  Callgraph.name = cur_prefix () ^ "." ^ Ident.name id;
                  d_file = source_file;
                  d_line = line;
                  is_fun = true;
                  hot_root = false;
                  recovery_root = false;
                  cold = false;
                  calls = [ { Callgraph.callee = owner ^ "." ^ Ident.name id; guarded = false } ];
                  sites = [];
                }
                :: !defs
            | _ -> ())
          incl.incl_type;
        default.structure_item sub item
      | _ -> default.structure_item sub item)
    | _ -> default.structure_item sub item
  in
  let iter = { default with expr; value_binding; module_expr; structure_item } in
  iter.structure iter str;
  List.iter
    (fun w ->
      if w.w_hits = 0 then
        findings :=
          Finding.of_loc ~rule:Waiver ~file:source_file w.w_loc
            (Printf.sprintf
               "stale waiver: rule %S no longer fires here%s — delete the \
                [@purity.lint.allow] attribute"
               (Finding.rule_name w.w_rule)
               (if w.w_reason = "" then "" else Printf.sprintf " (reason was: %s)" w.w_reason))
          :: !findings)
    !all_waivers;
  {
    findings = List.sort Finding.order !findings;
    waived = !waived;
    waivers = List.length !all_waivers;
    summary =
      {
        Callgraph.fs_file = source_file;
        fs_defs = List.rev !defs;
        fs_pools = List.rev !pools;
        fs_uses = List.sort_uniq compare !uses;
        fs_exports = [];
      };
  }

(* ---- interfaces ----

   An interface contributes its declared values, nested modules' values
   under the module's name, and the values an [include S] or a [module M :
   S] brings in, each placed at its [val] in the signature that declares
   it. The only waiver a [val] takes is [unused_export]; the pass decides
   whether it is used or stale. *)

let check_signature ~source_file (sg : Typedtree.signature) : result =
  let bad = ref [] in
  let waivers = ref 0 in
  let waiver_of (vd : Types.value_description) =
    List.fold_left
      (fun acc (a : Parsetree.attribute) ->
        if a.attr_name.txt <> attr_name then acc
        else
          let refuse msg =
            bad :=
              Finding.of_loc ~rule:Waiver ~file:a.attr_loc.loc_start.pos_fname
                a.attr_loc msg
              :: !bad;
            acc
          in
          match Option.map split_waiver (payload_string a.attr_payload) with
          | Some ("unused_export", reason) ->
            incr waivers;
            Some (reason, a.attr_loc)
          | Some (rule, _) ->
            refuse
              (Printf.sprintf
                 "only an unused_export waiver applies to a declaration, not %S"
                 rule)
          | None -> refuse "waiver payload must be a string literal")
      None vd.val_attributes
  in
  let export prefix id (vd : Types.value_description) =
    let p = vd.val_loc.loc_start in
    {
      Callgraph.e_name = prefix ^ "." ^ Ident.name id;
      e_decl = (p.pos_fname, p.pos_lnum, p.pos_cnum - p.pos_bol);
      e_waiver = waiver_of vd;
    }
  in
  let rec exports prefix (sg : Types.signature) =
    List.concat_map
      (function
        | Types.Sig_value (id, vd, _) -> [ export prefix id vd ]
        | Sig_module (id, _, { md_type = Mty_signature sg; _ }, _, _) ->
          exports (Ident.name id) sg
        | _ -> [])
      sg
  in
  let fs_exports = exports (module_name_of_source source_file) sg.sig_type in
  {
    findings = List.sort_uniq Finding.order !bad;
    waived = 0;
    waivers = !waivers;
    summary =
      { Callgraph.fs_file = source_file; fs_defs = []; fs_pools = []; fs_uses = []; fs_exports };
  }

(* ---- cmt loading ---- *)

let source_of_cmt (cmt : Cmt_format.cmt_infos) =
  match cmt.cmt_sourcefile with
  | Some f -> f
  | None -> cmt.cmt_modname ^ ".ml"

(* [Ok None] = neither an implementation nor an interface (pack, partial) *)
let check_cmt (cfg : Rules.config) path : ((string * result) option, string) Stdlib.result =
  match Cmt_format.read_cmt path with
  | exception exn ->
    Error (Printf.sprintf "%s: cannot read cmt (%s)" path (Printexc.to_string exn))
  | cmt -> (
    let source_file = source_of_cmt cmt in
    if Rules.is_excluded cfg source_file then Ok None
    else
      match cmt.cmt_annots with
      | Implementation str -> Ok (Some (source_file, check_structure cfg ~source_file str))
      | Interface sg -> Ok (Some (source_file, check_signature ~source_file sg))
      | _ -> Ok None)
