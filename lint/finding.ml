(* A finding is one rule violation at one source location. Rules carry a
   fixed severity; any unwaived finding (of either severity) fails the
   build — severity only grades how the report reads. Interprocedural
   findings additionally carry a call-chain witness (root → f → g) ending
   at the flagged site. *)

type rule =
  | Determinism  (* wall clock / global RNG in engine code *)
  | Unsafe  (* unchecked accessors & casts outside audited kernels *)
  | Escape
      (* domain-escape: mutable state reachable from a Pool.map/run
         closure, or raw Domain/Atomic/Mutex use outside audited modules
         (subsumes the old path-based `domain` rule) *)
  | Hotpath  (* polymorphic hash/compare at non-primitive types *)
  | Hotalloc  (* allocation site reachable from a [@purity.lint.hotpath] root *)
  | Partial  (* exception-raising partial functions in failover code *)
  | Raises  (* raise / partial match reachable from a recovery root *)
  | Unused_export  (* a lib/ interface value no unit outside test/ uses *)
  | Waiver  (* stale, malformed or floating [@purity.lint.allow] *)

let rule_name = function
  | Determinism -> "determinism"
  | Unsafe -> "unsafe"
  | Escape -> "escape"
  | Hotpath -> "hotpath"
  | Hotalloc -> "hotalloc"
  | Partial -> "partial"
  | Raises -> "raises"
  | Unused_export -> "unused_export"
  | Waiver -> "waiver"

(* [Waiver] is deliberately absent: waiver errors cannot themselves be
   waived. *)
let rule_of_name = function
  | "determinism" -> Some Determinism
  | "unsafe" -> Some Unsafe
  | "escape" -> Some Escape
  | "hotpath" -> Some Hotpath
  | "hotalloc" -> Some Hotalloc
  | "partial" -> Some Partial
  | "raises" -> Some Raises
  | "unused_export" -> Some Unused_export
  | _ -> None

let rule_names =
  "determinism/unsafe/escape/hotpath/hotalloc/partial/raises/unused_export"

type severity = Error | Warning

let severity_name = function Error -> "error" | Warning -> "warning"

let severity_of_rule = function
  | Determinism | Unsafe | Escape | Waiver -> Error
  | Hotpath | Hotalloc | Partial | Raises | Unused_export -> Warning

type t = {
  rule : rule;
  severity : severity;
  file : string;  (* path as recorded at compile time, e.g. lib/core/state.ml *)
  line : int;  (* 1-based *)
  col : int;  (* 0-based, like the compiler's own reports *)
  message : string;
  chain : string list;
      (* call-chain witness for interprocedural findings: root first,
         ending at the def containing the flagged site; [] otherwise *)
}

let v ?severity ?(chain = []) ~rule ~file ~line ~col message =
  let severity =
    match severity with Some s -> s | None -> severity_of_rule rule
  in
  { rule; severity; file; line; col; message; chain }

let of_loc ?severity ?chain ~rule ~file (loc : Location.t) message =
  let p = loc.loc_start in
  v ?severity ?chain ~rule ~file ~line:p.pos_lnum ~col:(p.pos_cnum - p.pos_bol) message

let chain_to_string = function
  | [] -> ""
  | c -> Printf.sprintf " [via %s]" (String.concat " -> " c)

(* file, then position, then rule name: stable report order *)
let order a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare (rule_name a.rule) (rule_name b.rule) in
        if c <> 0 then c else String.compare a.message b.message

let to_string f =
  Printf.sprintf "%s:%d:%d: [%s] %s: %s%s" f.file f.line f.col
    (severity_name f.severity) (rule_name f.rule) f.message
    (chain_to_string f.chain)
