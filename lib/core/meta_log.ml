module Varint = Purity_util.Varint
module Fact = Purity_pyramid.Fact

type table = Blocks | Mediums | Segments | Volumes

let tables = [ Blocks; Mediums; Segments; Volumes ]
let tag = function Blocks -> 'B' | Mediums -> 'M' | Segments -> 'S' | Volumes -> 'V'

let name = function
  | Blocks -> "blocks"
  | Mediums -> "mediums"
  | Segments -> "segments"
  | Volumes -> "volumes"

let table_of_tag c = List.find_opt (fun t -> Char.equal (tag t) c) tables
let table_of_name n = List.find_opt (fun t -> String.equal (name t) n) tables

let nvram_backed = function Blocks -> false | Mediums | Segments | Volumes -> true

type elide = { seq : int64; lo : int; hi : int }
type meta = Fact of table * Fact.t | Elide of table * elide
type intent = { medium : int; block : int; data : string }
type nvram = Stash of meta | Intent of intent

(* ---------- encoders ---------- *)

let fact_record lead table fact =
  let buf = Buffer.create 64 in
  Buffer.add_string buf lead;
  Buffer.add_char buf (tag table);
  Fact.encode buf fact;
  Buffer.contents buf

let log_fact table fact = fact_record "" table fact
let stash_fact table fact = fact_record "F" table fact

let elide_record lead table ~seq ~lo ~hi =
  let buf = Buffer.create 24 in
  Buffer.add_char buf lead;
  Buffer.add_char buf (tag table);
  Varint.write_i64 buf seq;
  Varint.write buf lo;
  Varint.write buf hi;
  Buffer.contents buf

let log_elide table ~seq ~lo ~hi = elide_record 'e' table ~seq ~lo ~hi
let stash_elide table ~seq ~lo ~hi = elide_record 'E' table ~seq ~lo ~hi

let intent_size ~medium ~block len =
  1 + Varint.size medium + Varint.size block + Varint.size len + len

(* One exact-size buffer: header varints, then the payload blitted once. *)
let[@purity.lint.allow
     "unsafe: the freshly built intent is published as a string after its \
      last write and never mutated again"] encode_intent ~medium ~block data =
  let len = String.length data in
  let buf = Bytes.create (intent_size ~medium ~block len) in
  Bytes.set buf 0 'W';
  let p = Varint.put buf ~pos:1 medium in
  let p = Varint.put buf ~pos:p block in
  let p = Varint.put buf ~pos:p len in
  Bytes.blit_string data 0 buf p len;
  Bytes.unsafe_to_string buf

let encode_log = function
  | Fact (table, fact) -> log_fact table fact
  | Elide (table, { seq; lo; hi }) -> log_elide table ~seq ~lo ~hi

let encode_nvram = function
  | Stash (Fact (table, fact)) -> stash_fact table fact
  | Stash (Elide (table, { seq; lo; hi })) -> stash_elide table ~seq ~lo ~hi
  | Intent { medium; block; data } -> encode_intent ~medium ~block data

(* ---------- decoders ---------- *)

(* Record bodies: each reads from [pos] and returns the value with the
   position just past it, raising [Invalid_argument] (as the varint and
   fact readers do, accepting only the shortest encodings) on anything
   malformed. *)

let fact_body table buf pos =
  let fact, p = Fact.decode buf ~pos in
  (Fact (table, fact), p)

let elide_body table buf pos =
  let seq, p = Varint.read_i64 buf ~pos in
  let lo, p = Varint.read buf ~pos:p in
  let hi, p = Varint.read buf ~pos:p in
  (Elide (table, { seq; lo; hi }), p)

let intent_body buf pos =
  let medium, p = Varint.read buf ~pos in
  let block, p = Varint.read buf ~pos:p in
  let len, p = Varint.read buf ~pos:p in
  if len > Bytes.length buf - p then invalid_arg "Meta_log: truncated intent";
  (Intent { medium; block; data = Bytes.sub_string buf p len }, p + len)

let[@purity.lint.allow
     "unsafe: decode-side view of an immutable log record or NVRAM payload"] view s =
  Bytes.unsafe_of_string s

let table_at s i = if i < String.length s then table_of_tag s.[i] else None

(* A record is its body read to exactly the end of [s]: with the readers'
   shortest-encoding rule, whatever decodes re-encodes to [s]. The body
   reads sit in the match scrutinee, so their [Invalid_argument] lands
   in the handler. *)
let exactly s = function Some (r, next) when next = String.length s -> Some r | _ -> None

let[@purity.lint.recovery_root] decode_log s =
  let buf = view s in
  match
    if String.length s = 0 then None
    else
      match (s.[0], table_at s 1) with
      | 'e', Some table -> Some (elide_body table buf 2)
      | 'e', None -> None
      | c, _ -> (
        match table_of_tag c with Some table -> Some (fact_body table buf 1) | None -> None)
  with
  | r -> exactly s r
  | exception Invalid_argument _ -> None

let[@purity.lint.recovery_root] decode_stash s =
  let buf = view s in
  match
    if String.length s = 0 then None
    else
      match (s.[0], table_at s 1) with
      | 'F', Some table -> Some (fact_body table buf 2)
      | 'E', Some table -> Some (elide_body table buf 2)
      | _ -> None
  with
  | r -> exactly s r
  | exception Invalid_argument _ -> None

let[@purity.lint.recovery_root] decode_nvram s =
  if String.length s > 0 && s.[0] = 'W' then
    match intent_body (view s) 1 with
    | r -> exactly s (Some r)
    | exception Invalid_argument _ -> None
  else Option.map (fun m -> Stash m) (decode_stash s)
