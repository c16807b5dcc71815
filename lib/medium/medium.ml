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

let extents t m = Option.value ~default:[] (Hashtbl.find_opt t.table m)
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

let extent_of t m ~block =
  List.find_opt (fun e -> block >= e.start_block && block <= e.end_block) (extents t m)

let resolve t m ~block =
  (* Walk the underlying chain; a malformed cyclic table would loop, so
     cap at the number of live mediums. *)
  let limit = Hashtbl.length t.table + 1 in
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

let shortcut ?only t ~has_blocks =
  (* [chase medium offset len] partitions the block range
     [offset, offset+len) of [medium] into (rel, sublen, medium', offset')
     pieces, each pointing at the deepest level an extent may safely
     reference. The chase hops past a level when it is immutable (RO) and
     owns no blocks in the sub-range; ranges that mix data-bearing and
     empty sub-ranges are split binarily — that is how Figure 6's medium
     22 ends up with both a "21" row and a direct "12" shortcut row. *)
  let rec chase medium offset len =
    let stop = [ (0, len, medium, offset) ] in
    let split () =
      if len = 1 then stop
      else begin
        let half = len / 2 in
        let left = chase medium offset half in
        let right = chase medium (offset + half) (len - half) in
        left @ List.map (fun (r, l, m, o) -> (r + half, l, m, o)) right
      end
    in
    let immutable = match status t medium with Some RO -> true | Some RW | None -> false in
    if not immutable then stop
    else if has_blocks ~medium ~lo:offset ~hi:(offset + len - 1) then split ()
    else
      match extent_of t medium ~block:offset with
      | Some ({ target = Underlying { medium = next; offset = noff }; _ } as inner)
        when offset >= inner.start_block && offset + len - 1 <= inner.end_block ->
        chase next (offset - inner.start_block + noff) len
      | Some _ -> if len = 1 then stop else split ()
      | None -> stop
  in
  (* Coalesce adjacent pieces with the same target and contiguous offsets. *)
  let rec merge = function
    | (r1, l1, m1, o1) :: (r2, l2, m2, o2) :: rest
      when m1 = m2 && r1 + l1 = r2 && o1 + l1 = o2 ->
      merge ((r1, l1 + l2, m1, o1) :: rest)
    | piece :: rest -> piece :: merge rest
    | [] -> []
  in
  let reanchor e =
    match e.target with
    | Base -> [ e ]
    | Underlying { medium; offset } ->
      let len = e.end_block - e.start_block + 1 in
      let pieces = merge (chase medium offset len) in
      List.map
        (fun (rel, sublen, m', o') ->
          {
            e with
            start_block = e.start_block + rel;
            end_block = e.start_block + rel + sublen - 1;
            target = Underlying { medium = m'; offset = o' };
          })
        pieces
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

let decode_extents s =
  let buf = Bytes.unsafe_of_string s in
  let n, pos = Purity_util.Varint.read buf ~pos:0 in
  let p = ref pos in
  let byte () =
    if !p >= Bytes.length buf then invalid_arg "Medium.decode_extents: truncated";
    let c = Bytes.get buf !p in
    incr p;
    c
  in
  List.init n (fun _ ->
      let start_block, p1 = Purity_util.Varint.read buf ~pos:!p in
      let len, p2 = Purity_util.Varint.read buf ~pos:p1 in
      p := p2;
      let target =
        match byte () with
        | '\000' -> Base
        | '\001' ->
          let medium, p3 = Purity_util.Varint.read buf ~pos:!p in
          let offset, p4 = Purity_util.Varint.read buf ~pos:p3 in
          p := p4;
          Underlying { medium; offset }
        | _ -> invalid_arg "Medium.decode_extents: bad target tag"
      in
      let status =
        match byte () with
        | '\000' -> RO
        | '\001' -> RW
        | _ -> invalid_arg "Medium.decode_extents: bad status"
      in
      let skip_local = byte () = '\001' in
      { start_block; end_block = start_block + len; target; status; skip_local })

let set_medium t m es =
  set_extents t m es;
  if m >= t.next_id then t.next_id <- m + 1

let restore ~rows ~next_id =
  let t = create ~first_id:next_id () in
  List.iter (fun (m, es) -> set_medium t m es) rows;
  if next_id >= t.next_id then t.next_id <- next_id;
  t

let peek_next_id t = t.next_id
