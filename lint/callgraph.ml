(* The whole-program call graph the interprocedural passes run over.

   The engine extracts one [file_summary] per .cmt or .cmti (pure data,
   no typed AST); [build] merges summaries into a name-keyed graph. The
   unused-export pass reads the summaries' declarations and uses
   directly. Names are canonical: the last two dotted components
   of the resolved path with dune's [Lib__Module] mangling stripped, so
   [Purity_core__State.put], [State.put] and a local reference inside
   state.ml all collapse to "State.put". Two files defining the same
   canonical name merge conservatively (their calls and sites union).

   Reachability ([reach]) is a BFS over lexicographically sorted
   adjacency, so witness chains — and therefore report order — are
   independent of cmt scan order; the qcheck property in test_lint.ml
   pins this down. Only function defs ([is_fun]) are traversed: a value
   binding's body runs once at module init, which is neither a hot path
   nor a recovery path. *)

type site_kind =
  | Closure  (* runtime closure creation *)
  | Boxed of string  (* constructor / tuple / record / array / lazy *)
  | Alloc_call of string  (* call to a known allocating external *)
  | Raise_site of string  (* raise/failwith/invalid_arg/assert: exn name *)
  | Partial_match  (* refutable match or function reachable at runtime *)

type site = {
  kind : site_kind;
  s_file : string;
  s_line : int;
  s_col : int;
  s_guarded : bool;  (* lexically inside try/with or match-with-exception *)
  s_waived : bool;  (* an in-source [@purity.lint.allow] covered the site *)
}

type call = { callee : string; guarded : bool }

type def = {
  name : string;  (* canonical "Module.binding" *)
  d_file : string;
  d_line : int;
  is_fun : bool;
  hot_root : bool;  (* [@purity.lint.hotpath] *)
  recovery_root : bool;  (* [@purity.lint.recovery_root] *)
  cold : bool;  (* [@purity.lint.coldpath]: alloc pass stops here *)
  calls : call list;
  sites : site list;
}

(* A declaration by place: the file, line and column of its [val]. *)
type decl = string * int * int

(* One value an interface declares, for the unused_export pass. *)
type export = {
  e_name : string;  (* canonical "Module.value" *)
  e_decl : decl;  (* where its [val] is written *)
  e_waiver : (string * Location.t) option;
      (* reason and place of an [unused_export] waiver on the [val] *)
  e_callers : string list;
      (* the units its [@@purity.lint.callers] mark admits; [] = any *)
}

type file_summary = {
  fs_file : string;
  fs_defs : def list;
  fs_uses : decl list;
      (* the declarations of other units' values this unit references,
         including those a unit passed whole to a functor supplies *)
  fs_exports : export list;  (* the values an interface declares *)
}

(* the merged defs, keyed by canonical name *)
type t = (string, def) Hashtbl.t

let site_order a b =
  let c = String.compare a.s_file b.s_file in
  if c <> 0 then c
  else
    let c = Int.compare a.s_line b.s_line in
    if c <> 0 then c
    else
      let c = Int.compare a.s_col b.s_col in
      if c <> 0 then c else Stdlib.compare a.kind b.kind

let call_order (a : call) (b : call) =
  let c = String.compare a.callee b.callee in
  if c <> 0 then c else Bool.compare a.guarded b.guarded

let merge_def a b =
  {
    a with
    is_fun = a.is_fun || b.is_fun;
    hot_root = a.hot_root || b.hot_root;
    recovery_root = a.recovery_root || b.recovery_root;
    cold = a.cold || b.cold;
    calls = List.sort_uniq call_order (a.calls @ b.calls);
    sites = List.sort_uniq site_order (a.sites @ b.sites);
  }

let build (summaries : file_summary list) : t =
  let summaries =
    List.sort (fun a b -> String.compare a.fs_file b.fs_file) summaries
  in
  let defs = Hashtbl.create 512 in
  List.iter
    (fun fs ->
      List.iter
        (fun d ->
          let d =
            {
              d with
              calls = List.sort_uniq call_order d.calls;
              sites = List.sort_uniq site_order d.sites;
            }
          in
          match Hashtbl.find_opt defs d.name with
          | None -> Hashtbl.replace defs d.name d
          | Some prev -> Hashtbl.replace defs d.name (merge_def prev d))
        fs.fs_defs)
    summaries;
  defs

let find t name = Hashtbl.find_opt t name

let defs_sorted t =
  Hashtbl.fold (fun _ d acc -> d :: acc) t []
  |> List.sort (fun a b -> String.compare a.name b.name)

(* Every (caller, callee) pair, sorted and deduped — including edges to
   externals. This is the set the stability qcheck property compares
   across permuted build orders. *)
let edges t =
  Hashtbl.fold
    (fun _ d acc ->
      List.fold_left (fun acc c -> (d.name, c.callee) :: acc) acc d.calls)
    t []
  |> List.sort_uniq compare

(* BFS from [roots] (canonical names; unknown or non-function roots are
   ignored) following edges admitted by [follow]. Returns the witness
   chain — root first, reached def last — for every reached def. Roots
   are seeded in sorted order and adjacency lists are sorted at [build],
   so chains are deterministic. *)
let reach t ~roots ~follow : (string, string list) Hashtbl.t =
  let chains = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun r ->
      match find t r with
      | Some d when d.is_fun && not (Hashtbl.mem chains r) ->
        Hashtbl.replace chains r [ r ];
        Queue.add r q
      | _ -> ())
    (List.sort_uniq String.compare roots);
  while not (Queue.is_empty q) do
    let n = Queue.pop q in
    let chain = Hashtbl.find chains n in
    match find t n with
    | None -> ()
    | Some d ->
      List.iter
        (fun c ->
          if not (Hashtbl.mem chains c.callee) then
            match find t c.callee with
            | Some cd when cd.is_fun && follow ~caller:d ~call:c ~callee:cd ->
              Hashtbl.replace chains c.callee (chain @ [ c.callee ]);
              Queue.add c.callee q
            | _ -> ())
        d.calls
  done;
  chains

(* The reached defs of [reach], sorted by name, each with its chain. *)
let reached_sorted t ~roots ~follow =
  let chains = reach t ~roots ~follow in
  Hashtbl.fold (fun name chain acc -> (name, chain) :: acc) chains []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.filter_map (fun (name, chain) ->
         match find t name with Some d -> Some (d, chain) | None -> None)
