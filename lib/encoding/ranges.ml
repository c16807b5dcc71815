(* Disjoint inclusive ranges in a map keyed by range start. Invariant: for
   consecutive bindings (lo1, hi1) (lo2, hi2): hi1 + 1 < lo2 (gaps of at
   least one id, else they would have merged). *)

module M = Map.Make (Int)

type t = int M.t (* lo -> hi *)

let empty = M.empty
let is_empty = M.is_empty

let add_range t ~lo ~hi =
  if lo > hi then invalid_arg "Ranges.add_range: lo > hi";
  (* Find all ranges overlapping or adjacent to [lo-1, hi+1] and coalesce. *)
  let lo' = ref lo and hi' = ref hi in
  (* The candidate merge partners are: the last range starting <= hi+1 and
     everything from there back while they touch. Walk via split. *)
  let left, mid, right = M.split lo t in
  (* check the predecessor in [left] *)
  let left =
    match M.max_binding_opt left with
    | Some (plo, phi) when phi >= lo - 1 ->
      lo' := min !lo' plo;
      hi' := max !hi' phi;
      M.remove plo left
    | _ -> left
  in
  (match mid with
  | Some phi ->
    hi' := max !hi' phi
  | None -> ());
  (* absorb successors that start within hi'+1 *)
  let right = ref right in
  let continue = ref true in
  while !continue do
    match M.min_binding_opt !right with
    | Some (plo, phi) when plo <= !hi' + 1 ->
      hi' := max !hi' phi;
      right := M.remove plo !right
    | _ -> continue := false
  done;
  let merged = M.union (fun _ a _ -> Some a) left !right in
  M.add !lo' !hi' merged

let add t v = add_range t ~lo:v ~hi:v

let mem t v =
  match M.find_last_opt (fun lo -> lo <= v) t with
  | Some (_, hi) -> v <= hi
  | None -> false

let cardinal t = M.fold (fun lo hi acc -> acc + (hi - lo + 1)) t 0
let range_count t = M.cardinal t
let to_list t = M.bindings t
let of_list l = List.fold_left (fun acc (lo, hi) -> add_range acc ~lo ~hi) empty l
let union a b = M.fold (fun lo hi acc -> add_range acc ~lo ~hi) a b
let fold f t init = M.fold (fun lo hi acc -> f ~lo ~hi acc) t init

let encode t =
  let buf = Buffer.create 32 in
  Purity_util.Varint.write buf (M.cardinal t);
  let prev = ref 0 in
  M.iter
    (fun lo hi ->
      Purity_util.Varint.write buf (lo - !prev);
      Purity_util.Varint.write buf (hi - lo);
      prev := hi)
    t;
  Buffer.contents buf

(* The parse behind [decode]; raises [Invalid_argument] on the first
   malformed byte. Each range is coded against the previous one's end,
   so after the first a start delta below 2 would overlap or touch it
   (they would have merged), and a sum that wraps past max_int is no
   range at all. *)
let body buf =
  let rec ranges n p prev t =
    if n = 0 then (t, p)
    else
      let dlo, p = Purity_util.Varint.read buf ~pos:p in
      let dlen, p = Purity_util.Varint.read buf ~pos:p in
      let lo = prev + dlo in
      let hi = lo + dlen in
      if (dlo < 2 && not (M.is_empty t)) || lo < prev || hi < lo then
        invalid_arg "Ranges.decode: not canonical";
      ranges (n - 1) p hi (M.add lo hi t)
  in
  let count, p = Purity_util.Varint.read buf ~pos:0 in
  ranges count p 0 M.empty

(* Whatever decodes re-encodes to [s]. *)
let[@purity.lint.recovery_root] decode s =
  match body (Bytes.unsafe_of_string s) with
  | t, p when p = String.length s -> Some t
  | _ | exception Invalid_argument _ -> None
