type status = RO | RW

type target = Base | Underlying of { medium : int; offset : int }

type extent = {
  start_block : int;
  end_block : int;
  target : target;
  status : status;
  skip_local : bool;
}

type t = {
  mutable next_id : int;
  table : (int, extent list) Hashtbl.t; (* medium -> extents, sorted by start *)
}

let create ?(first_id = 1) () = { next_id = first_id; table = Hashtbl.create 64 }
let copy t = { next_id = t.next_id; table = Hashtbl.copy t.table }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* No option is built: batched resolution reads this once per level. *)
let extents t m = match Hashtbl.find t.table m with es -> es | exception Not_found -> []
let exists t m = Hashtbl.mem t.table m

let set_extents t m es =
  let sorted = List.sort (fun a b -> Int.compare a.start_block b.start_block) es in
  Hashtbl.replace t.table m sorted

let create_base t ~blocks =
  if blocks <= 0 then invalid_arg "Medium.create_base: blocks must be positive";
  let id = fresh_id t in
  set_extents t id
    [ { start_block = 0; end_block = blocks - 1; target = Base; status = RW; skip_local = false } ];
  id

let size_blocks t m =
  List.fold_left (fun acc e -> max acc (e.end_block + 1)) 0 (extents t m)

let status t m =
  match extents t m with
  | [] -> None
  | es -> Some (if List.exists (fun e -> e.status = RW) es then RW else RO)

let freeze t m =
  set_extents t m (List.map (fun e -> { e with status = RO }) (extents t m))

let whole_reference t m ~skip_local ~status =
  let size = size_blocks t m in
  {
    start_block = 0;
    end_block = size - 1;
    target = Underlying { medium = m; offset = 0 };
    status;
    skip_local;
  }

let take_snapshot t m =
  (match status t m with
  | Some RW -> ()
  | Some RO -> invalid_arg "Medium.take_snapshot: medium is read-only"
  | None -> invalid_arg "Medium.take_snapshot: no such medium");
  freeze t m;
  (* Snapshot handles never receive writes, so they certainly own no
     cblocks: lookups skip straight through them. *)
  let snap = fresh_id t in
  set_extents t snap [ whole_reference t m ~skip_local:true ~status:RO ];
  let successor = fresh_id t in
  set_extents t successor [ whole_reference t m ~skip_local:false ~status:RW ];
  (snap, successor)

let clone t m ?range () =
  (match status t m with
  | Some RO -> ()
  | Some RW -> invalid_arg "Medium.clone: snapshot the source first"
  | None -> invalid_arg "Medium.clone: no such medium");
  let lo, hi = match range with Some r -> r | None -> (0, size_blocks t m - 1) in
  if lo < 0 || hi < lo || hi >= size_blocks t m then invalid_arg "Medium.clone: bad range";
  let id = fresh_id t in
  set_extents t id
    [
      {
        start_block = 0;
        end_block = hi - lo;
        target = Underlying { medium = m; offset = lo };
        status = RW;
        skip_local = false;
      };
    ];
  id

let extend t m ~blocks =
  (match status t m with
  | Some RW -> ()
  | Some RO -> invalid_arg "Medium.extend: read-only medium"
  | None -> invalid_arg "Medium.extend: no such medium");
  if blocks <= 0 then invalid_arg "Medium.extend: blocks must be positive";
  let size = size_blocks t m in
  set_extents t m
    (extents t m
    @ [
        {
          start_block = size;
          end_block = size + blocks - 1;
          target = Base;
          status = RW;
          skip_local = false;
        };
      ])

let referenced_by t m =
  Hashtbl.fold
    (fun id es acc ->
      let refs =
        List.exists
          (fun e -> match e.target with Underlying { medium; _ } -> medium = m | Base -> false)
          es
      in
      if refs then id :: acc else acc)
    t.table []
  |> List.sort Int.compare

let drop t m =
  if not (exists t m) then invalid_arg "Medium.drop: no such medium";
  (match referenced_by t m with
  | [] -> ()
  | _ -> invalid_arg "Medium.drop: still referenced");
  Hashtbl.remove t.table m

let live_mediums t = Hashtbl.fold (fun id _ acc -> id :: acc) t.table [] |> List.sort Int.compare
let count t = Hashtbl.length t.table

let extent_of t m ~block =
  List.find_opt (fun e -> block >= e.start_block && block <= e.end_block) (extents t m)

let resolve t m ~block =
  (* Walk the underlying chain; a malformed cyclic table would loop, so
     cap at the number of live mediums. *)
  let limit = count t + 1 in
  let rec go m block depth acc =
    if depth > limit then List.rev acc
    else
      match extent_of t m ~block with
      | None -> List.rev acc
      | Some e ->
        let acc = if e.skip_local then acc else (m, block) :: acc in
        (match e.target with
        | Base -> List.rev acc
        | Underlying { medium; offset } ->
          go medium (block - e.start_block + offset) (depth + 1) acc)
  in
  go m block 0 []

let resolve_depth t m ~block = List.length (resolve t m ~block)

let write_target t m ~block =
  match extent_of t m ~block with
  | None -> if exists t m then Error `Out_of_range else Error `No_such_medium
  | Some e -> if e.status = RW then Ok m else Error `Read_only

let shortcut ?only t ~owned =
  (* each RO medium's owned runs, asked for at most once per call *)
  let memo = Hashtbl.create 16 in
  let owned_runs m =
    match Hashtbl.find_opt memo m with
    | Some runs -> runs
    | None ->
      let runs = Array.of_list (owned m) in
      Hashtbl.add memo m runs;
      runs
  in
  (* Add a piece to the reversed list [acc], coalescing it with the
     previous one when both point at the same medium with contiguous
     offsets, so every piece stays maximal. *)
  let push ((rel, len, m, o) as piece) acc =
    match acc with
    | (r1, l1, m1, o1) :: rest when m1 = m && r1 + l1 = rel && o1 + l1 = o ->
      (r1, l1 + len, m1, o1) :: rest
    | _ -> piece :: acc
  in
  (* [chase medium offset len rel acc] adds to [acc] the pieces
     (rel', sublen, medium', offset') of the range [offset, offset+len)
     of [medium], whose first block is block [rel] of the extent being
     rewritten; each piece points at the deepest level it may safely
     reference. One walk cuts the range at the medium's owned runs and
     extent boundaries: owned blocks, a Base extent or a medium that is
     not RO stop the chase, a gap in an RO medium hops to the underlying
     one. That is how Figure 6's medium 22 gets both a "21" row and a
     direct "12" shortcut row. *)
  let rec chase medium offset len rel acc =
    match status t medium with
    | Some RW | None -> push (rel, len, medium, offset) acc
    | Some RO ->
      let runs = owned_runs medium and last = offset + len - 1 in
      let n = Array.length runs in
      (* [i] is the first run ending at or after block [p] *)
      let rec walk p i acc =
        let here = rel + p - offset in
        let stay e i = walk (e + 1) i (push (here, e - p + 1, medium, p) acc) in
        if p > last then acc
        else if i < n && fst runs.(i) <= p then stay (min last (snd runs.(i))) (i + 1)
        else begin
          let gap_end = if i < n then min last (fst runs.(i) - 1) else last in
          match extent_of t medium ~block:p with
          | Some { target = Underlying { medium = next; offset = noff }; start_block; end_block; _ }
            ->
            let e = min gap_end end_block in
            walk (e + 1) i (chase next (p - start_block + noff) (e - p + 1) here acc)
          | Some { end_block; _ } -> stay (min gap_end end_block) i
          | None -> stay gap_end i
        end
      in
      let rec first lo hi =
        let mid = (lo + hi) / 2 in
        if lo >= hi then lo else if snd runs.(mid) < offset then first (mid + 1) hi else first lo mid
      in
      walk offset (first 0 n) acc
  in
  let reanchor e =
    match e.target with
    | Base -> [ e ]
    | Underlying { medium; offset } ->
      chase medium offset (e.end_block - e.start_block + 1) 0 []
      |> List.rev_map (fun (rel, sublen, m', o') ->
             {
               e with
               start_block = e.start_block + rel;
               end_block = e.start_block + rel + sublen - 1;
               target = Underlying { medium = m'; offset = o' };
             })
  in
  let selected m = match only with None -> true | Some ms -> List.mem m ms in
  let updates =
    Hashtbl.fold
      (fun m es acc -> if selected m then (m, List.concat_map reanchor es) :: acc else acc)
      t.table []
  in
  List.iter (fun (m, es) -> set_extents t m es) updates

let rows t =
  live_mediums t
  |> List.concat_map (fun m -> List.map (fun e -> (m, e)) (extents t m))

let pp_target ppf = function
  | Base -> Fmt.string ppf "none"
  | Underlying { medium; offset } -> Fmt.pf ppf "%d %d" medium offset

let pp_table ppf t =
  Fmt.pf ppf "@[<v>Source Start:End    Target Offset Status@,";
  List.iter
    (fun (m, e) ->
      let target = Fmt.str "%a" pp_target e.target in
      Fmt.pf ppf "%-6d %d:%-12d %-13s %s@," m e.start_block e.end_block target
        (match e.status with RO -> "RO" | RW -> "RW"))
    (rows t);
  Fmt.pf ppf "@]"

let encode_extents es =
  let buf = Buffer.create 64 in
  Purity_util.Varint.write buf (List.length es);
  List.iter
    (fun e ->
      Purity_util.Varint.write buf e.start_block;
      Purity_util.Varint.write buf (e.end_block - e.start_block);
      (match e.target with
      | Base -> Buffer.add_char buf '\000'
      | Underlying { medium; offset } ->
        Buffer.add_char buf '\001';
        Purity_util.Varint.write buf medium;
        Purity_util.Varint.write buf offset);
      Buffer.add_char buf (match e.status with RO -> '\000' | RW -> '\001');
      Buffer.add_char buf (if e.skip_local then '\001' else '\000'))
    es;
  Buffer.contents buf

(* The parse behind [decode_extents]; raises [Invalid_argument] on the
   first malformed byte. Each tag, status and skip byte is exactly 0 or
   1, and an extent's end must not wrap past max_int. *)
let extents_body buf =
  let flag p =
    match Bytes.get buf p with
    | '\000' -> false
    | '\001' -> true
    | _ -> invalid_arg "Medium.decode_extents: flag byte"
  in
  let extent p =
    let start_block, p = Purity_util.Varint.read buf ~pos:p in
    let len, p = Purity_util.Varint.read buf ~pos:p in
    if start_block + len < start_block then invalid_arg "Medium.decode_extents: overflow";
    let target, p =
      if flag p then
        let medium, p = Purity_util.Varint.read buf ~pos:(p + 1) in
        let offset, p = Purity_util.Varint.read buf ~pos:p in
        (Underlying { medium; offset }, p)
      else (Base, p + 1)
    in
    let status = if flag p then RW else RO in
    let skip_local = flag (p + 1) in
    ({ start_block; end_block = start_block + len; target; status; skip_local }, p + 2)
  in
  let rec extents n p acc =
    if n = 0 then (List.rev acc, p)
    else
      let e, p = extent p in
      extents (n - 1) p (e :: acc)
  in
  let n, p = Purity_util.Varint.read buf ~pos:0 in
  extents n p []

(* Whatever decodes re-encodes to [s]. *)
let[@purity.lint.recovery_root] [@purity.lint.allow
     "unsafe: decode-side view of an immutable persisted mapping row"] decode_extents s =
  match extents_body (Bytes.unsafe_of_string s) with
  | es, p when p = String.length s -> Some es
  | _ | exception Invalid_argument _ -> None

let restore ~rows ~next_id =
  let t = create ~first_id:next_id () in
  List.iter (fun (m, es) -> set_extents t m es; t.next_id <- max t.next_id (m + 1)) rows;
  t

let peek_next_id t = t.next_id
