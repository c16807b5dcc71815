(* Rule configuration: which files each rule class applies to, and the
   banned-identifier tables. Paths are matched against the source path the
   compiler recorded (relative to the build root, e.g. "lib/core/state.ml"),
   so the same config works from the dune rule and from tests. *)

type config = {
  hot_path_dirs : string list;
      (* dir substrings where the hot-path hygiene rules apply *)
  recovery_files : string list;
      (* path suffixes where partial functions are flagged *)
  audited_unsafe : string list;
      (* basenames allowed to use unchecked accessors *)
  audited_domains : string list;
      (* basenames allowed to touch Domain/Atomic/Mutex/Condition — the
         deterministic pool, the one module that spawns domains. The
         escape pass also stops at it: its cross-domain state is the
         audited implementation, not an escape. *)
  exclude : string list;
      (* path substrings skipped entirely (planted test fixtures) *)
  mutable_types : string list;
      (* canonical type-constructor names (Module.t form) treated as
         mutable for the escape pass, on top of the structural cases
         (ref/array/bytes/Hashtbl/Buffer/...): project records with
         mutable fields that the typed tree alone cannot reveal *)
  handled_exns : string list;
      (* exception constructors the recovery roots' callers declare they
         handle; reachable raises of these are not findings *)
}

let default =
  {
    hot_path_dirs = [ "lib/pyramid/"; "lib/segment/"; "lib/dedup/"; "lib/core/" ];
    recovery_files =
      [
        "lib/core/recovery.ml";
        "lib/core/checkpoint.ml";
        "lib/core/boot_region.ml";
        "lib/replication/replication.ml";
        "lib/activecluster/activecluster.ml";
        "lib/activecluster/mediator.ml";
        "lib/activecluster/link.ml";
      ];
    audited_unsafe =
      [ "word.ml"; "crc32c.ml"; "xxhash.ml"; "gf256.ml"; "lz.ml"; "lz_ref.ml"; "bloom.ml" ];
    audited_domains = [ "pool.ml" ];
    exclude = [ "lint_fixtures" ];
    mutable_types =
      [
        (* records with mutable fields (or fields holding buffers) that
           appear as closure captures at the audited fan-out sites *)
        "State.t";
        "Arena.t";
        "Writer.t";
        "Reed_solomon.t";
        "Kernel_stats.kernel";
        "Pool.t";
        "Registry.t";
        (* Keytbl specialized hash tables *)
        "Stbl.t";
        "Itbl.t";
        "Ptbl.t";
        "Keytbl.t";
      ];
    handled_exns = [ "Exit" ];
  }

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let suffix_matches path suf =
  String.length path >= String.length suf
  && String.sub path (String.length path - String.length suf) (String.length suf)
     = suf

let in_hot_path cfg path = List.exists (contains_sub path) cfg.hot_path_dirs
let in_recovery cfg path = List.exists (suffix_matches path) cfg.recovery_files
let is_audited cfg path = List.mem (Filename.basename path) cfg.audited_unsafe
let is_audited_domains cfg path = List.mem (Filename.basename path) cfg.audited_domains
let is_excluded cfg path = List.exists (contains_sub path) cfg.exclude

(* ---- banned identifiers (matched on Path.name with "Stdlib." stripped) ---- *)

let strip_stdlib name =
  if String.length name > 7 && String.sub name 0 7 = "Stdlib." then
    String.sub name 7 (String.length name - 7)
  else name

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Wall-clock / process-time reads that break per-seed replay. *)
let determinism_banned =
  [
    "Sys.time";
    "Unix.gettimeofday";
    "Unix.time";
    "Unix.times";
    "Unix.localtime";
    "Unix.gmtime";
    "Unix.mktime";
    "Unix.sleep";
    "Unix.sleepf";
  ]

(* Global-state [Random] is nondeterministic under any reordering of
   callers; [Random.State] with an explicit seeded state is fine (and the
   engine's own [Purity_util.Rng] is the preferred source anyway). *)
let determinism_violation name =
  List.mem name determinism_banned
  || (starts_with ~prefix:"Random." name
     && not (starts_with ~prefix:"Random.State." name))

(* Cross-domain shared-mutable-state machinery. Spawning domains, CAS
   loops, locks: each is either the deterministic pool's own plumbing (in
   an audited module) or an unreviewed parallelism escape hatch that can
   break per-seed replay in ways no torture seed will reproduce twice.
   Flagged under the [escape] rule (direct use is the trivially provable
   escape); the interprocedural escape pass covers what this name check
   cannot see — a mutable value captured by a closure handed to the
   pool. *)
let domain_modules = [ "Domain."; "Atomic."; "Mutex."; "Condition."; "Semaphore." ]

let domain_violation name = List.exists (fun p -> starts_with ~prefix:p name) domain_modules

(* Unchecked accessors and casts: [Bytes.unsafe_get], [String.unsafe_blit],
   [Array.unsafe_set], [Bytes.unsafe_of_string], [Obj.magic], ... — any
   "unsafe_"-prefixed value of the stdlib buffer/array modules. *)
let unsafe_modules =
  [
    "Bytes"; "String"; "Array"; "Bigarray"; "Float.Array";
    "BytesLabels"; "StringLabels"; "ArrayLabels"; "Float.ArrayLabels";
  ]

let unsafe_violation name =
  name = "Obj.magic"
  ||
  match String.rindex_opt name '.' with
  | None -> false
  | Some i ->
    List.mem (String.sub name 0 i) unsafe_modules
    && starts_with ~prefix:"unsafe_"
         (String.sub name (i + 1) (String.length name - i - 1))

(* Partial functions whose exception in recovery/replication code turns a
   recoverable fault into a failed failover. *)
let partial_banned =
  [ "List.hd"; "List.tl"; "List.nth"; "List.assoc"; "List.find"; "Option.get" ]

let partial_violation name = List.mem name partial_banned

(* Polymorphic structural comparison: fine on immediates, a generic
   C-call dispatch everywhere else. *)
let poly_compare = [ "="; "<>"; "compare" ]

(* The polymorphic-hash Hashtbl interface; flagged at non-primitive key
   types in hot-path modules (use Hashtbl.Make / Purity_util.Stbl). *)
let hashtbl_funcs =
  [
    "Hashtbl.create";
    "Hashtbl.add";
    "Hashtbl.replace";
    "Hashtbl.find";
    "Hashtbl.find_opt";
    "Hashtbl.find_all";
    "Hashtbl.mem";
    "Hashtbl.remove";
  ]

(* ---- interprocedural-pass tables (matched on canonical names: the last
   two dotted components with dune's Lib__Module mangling stripped) ---- *)

(* The deterministic pool's submission points: closures passed here run on
   worker domains, so their captures are the domain-escape frontier. *)
let pool_submit = [ "Pool.map"; "Pool.run" ]

(* Stdlib containers that are mutable regardless of their parameters.
   ref / array / bytes are recognized structurally by predef path. *)
let mutable_builtin =
  [
    "Hashtbl.t";
    "Buffer.t";
    "Queue.t";
    "Stack.t";
    "Atomic.t";
    "Weak.t";
    "Array1.t";
    "Dynarray.t";
  ]

(* External (not-in-tree) functions that allocate on every call. In-tree
   callees don't need to be listed: the alloc pass walks into them and
   finds their own allocation sites. Two deliberate absences: Buffer.add_*
   (the arena discipline preallocates, so growth is amortized-once, and
   flagging every append would drown the signal) and [ref] (a 2-word local
   accumulator per kernel call is the scalar-loop idiom everywhere in the
   kernels; a ref that *escapes* to another domain is the escape pass's
   finding, not this one's). *)
let alloc_externals =
  [
    "Bytes.create";
    "Bytes.make";
    "Bytes.init";
    "Bytes.sub";
    "Bytes.copy";
    "Bytes.extend";
    "Bytes.cat";
    "Bytes.concat";
    "Bytes.of_string";
    "Bytes.to_string";
    "Bytes.sub_string";
    "String.sub";
    "String.make";
    "String.init";
    "String.concat";
    "String.cat";
    "String.map";
    "String.mapi";
    "String.split_on_char";
    "String.lowercase_ascii";
    "String.uppercase_ascii";
    "String.trim";
    "Array.make";
    "Array.init";
    "Array.copy";
    "Array.append";
    "Array.sub";
    "Array.of_list";
    "Array.to_list";
    "Array.map";
    "Array.mapi";
    "Array.concat";
    "List.map";
    "List.mapi";
    "List.rev";
    "List.rev_map";
    "List.append";
    "List.concat";
    "List.concat_map";
    "List.filter";
    "List.filter_map";
    "List.init";
    "List.sort";
    "List.stable_sort";
    "List.sort_uniq";
    "Buffer.create";
    "Buffer.contents";
    "Buffer.to_bytes";
    "Buffer.sub";
    "Hashtbl.create";
    "Hashtbl.copy";
    "Queue.create";
    "Printf.sprintf";
    "Format.asprintf";
    "string_of_int";
    "string_of_float";
    "Int64.to_string";
    "Option.map";
    "Option.some";
  ]

(* Applications that terminate by raising; the alloc pass does not flag
   allocation inside their argument subtrees (a formatted message on a
   guard path is not a steady-state allocation), and the raises pass
   records them as raise sites. *)
let raise_names = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

(* The exception an application of one of [raise_names] raises, when it is
   not syntactically visible in the argument. *)
let raise_exn_of = function
  | "failwith" -> "Failure"
  | "invalid_arg" -> "Invalid_argument"
  | _ -> "exn"
