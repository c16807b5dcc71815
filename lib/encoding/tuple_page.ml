module Bitio = Purity_util.Bitio
module Varint = Purity_util.Varint

let max_value_bits = 57 (* fields must fit one Bitio read *)

type field_dict = {
  bases : int array; (* sorted ascending *)
  x_bits : int; (* ceil(lg B); 0 when B = 1 *)
  w : int; (* offset width *)
}

type t = {
  arity : int;
  count : int;
  dicts : field_dict array;
  field_offsets : int array; (* bit offset of each field within a tuple *)
  tuple_bits : int;
  body : Bitio.Reader.t;
  header_bytes : int;
}

let arity t = t.arity
let count t = t.count
let bits_per_tuple t = t.tuple_bits

let ceil_log2 n =
  if n <= 1 then 0
  else begin
    let rec go bits cap = if cap >= n then bits else go (bits + 1) (cap * 2) in
    go 1 2
  end

(* Greedy base cover of sorted distinct values for offset width [w]: each
   base covers [base, base + 2^w). *)
let cover_bases sorted w =
  let span = if w >= 62 then max_int else 1 lsl w in
  let bases = ref [] in
  let limit = ref min_int in
  Array.iter
    (fun v ->
      if v >= !limit || !limit = min_int then begin
        bases := v :: !bases;
        limit := if v > max_int - span then max_int else v + span
      end)
    sorted;
  Array.of_list (List.rev !bases)

let candidate_widths = [ 0; 1; 2; 3; 4; 6; 8; 10; 12; 16; 20; 24; 28; 32; 40; 48; 57 ]

(* Pick the (bases, W) pair minimising total bits: per-tuple payload plus
   an approximate header charge per base. *)
let choose_dict values =
  let distinct =
    let s = Array.copy values in
    Array.sort compare s;
    let out = ref [] in
    Array.iter (fun v -> match !out with x :: _ when x = v -> () | _ -> out := v :: !out) s;
    Array.of_list (List.rev !out)
  in
  let n = Array.length values in
  let best = ref None in
  List.iter
    (fun w ->
      let bases = cover_bases distinct w in
      let x_bits = ceil_log2 (Array.length bases) in
      if x_bits + w <= max_value_bits then begin
        let header_bits = Array.length bases * 40 in
        let cost = (n * (x_bits + w)) + header_bits in
        match !best with
        | Some (c, _, _, _) when c <= cost -> ()
        | _ -> best := Some (cost, bases, x_bits, w)
      end)
    candidate_widths;
  match !best with
  | Some (_, bases, x_bits, w) -> { bases; x_bits; w }
  | None -> assert false

let base_index dict v =
  (* Largest base <= v whose window contains v. Bases are sorted. *)
  let lo = ref 0 and hi = ref (Array.length dict.bases - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if dict.bases.(mid) <= v then begin
      found := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !found

(* Header size: varint arity and count, then per field a varint base
   count, one offset-width byte and the varint deltas between bases. *)
let header_bytes ~arity ~count dicts =
  Array.fold_left
    (fun acc d ->
      let prev = ref 0 in
      Array.fold_left
        (fun acc b ->
          let delta = b - !prev in
          prev := b;
          acc + Varint.size delta)
        (acc + Varint.size (Array.length d.bases) + 1)
        d.bases)
    (Varint.size arity + Varint.size count)
    dicts

let layout dicts =
  let arity = Array.length dicts in
  let field_offsets = Array.make arity 0 in
  let bits = ref 0 in
  for f = 0 to arity - 1 do
    field_offsets.(f) <- !bits;
    bits := !bits + dicts.(f).x_bits + dicts.(f).w
  done;
  (field_offsets, !bits)

let encode ~arity tuples =
  let count = List.length tuples in
  let columns = Array.make arity [||] in
  for f = 0 to arity - 1 do
    columns.(f) <-
      Array.of_list
        (List.map
           (fun tup ->
             if Array.length tup <> arity then invalid_arg "Tuple_page.encode: arity mismatch";
             let v = tup.(f) in
             if Int64.compare v 0L < 0 || Int64.compare v (Int64.shift_left 1L max_value_bits) >= 0
             then invalid_arg "Tuple_page.encode: value out of range";
             Int64.to_int v)
           tuples)
  done;
  let dicts = Array.map choose_dict columns in
  let field_offsets, tuple_bits = layout dicts in
  let writer = Bitio.Writer.create ~capacity:(((count * tuple_bits) / 8) + 64) () in
  List.iteri
    (fun i _ ->
      for f = 0 to arity - 1 do
        let d = dicts.(f) in
        let v = columns.(f).(i) in
        let x = base_index d v in
        assert (x >= 0);
        let o = v - d.bases.(x) in
        Bitio.Writer.put writer (Int64.of_int x) ~width:d.x_bits;
        Bitio.Writer.put writer (Int64.of_int o) ~width:d.w
      done)
    tuples;
  {
    arity;
    count;
    dicts;
    field_offsets;
    tuple_bits;
    body = Bitio.Reader.create (Bitio.Writer.contents writer);
    header_bytes = header_bytes ~arity ~count dicts;
  }

let field_value t i f =
  let d = t.dicts.(f) in
  let at = (i * t.tuple_bits) + t.field_offsets.(f) in
  let x = Int64.to_int (Bitio.Reader.get t.body ~at ~width:d.x_bits) in
  let o = Int64.to_int (Bitio.Reader.get t.body ~at:(at + d.x_bits) ~width:d.w) in
  Int64.of_int (d.bases.(x) + o)

let get t i =
  if i < 0 || i >= t.count then invalid_arg "Tuple_page.get";
  Array.init t.arity (fun f -> field_value t i f)

let to_list t = List.init t.count (get t)

(* All compressed encodings of [value] in this field: (x, o) pairs packed
   as they appear in the bit stream. A value may be reachable from several
   bases when windows overlap. *)
let patterns_of dict value =
  let v = Int64.to_int value in
  let pats = ref [] in
  Array.iteri
    (fun x b ->
      let o = v - b in
      if o >= 0 && (dict.w >= 62 || o < 1 lsl dict.w) then begin
        let packed = Int64.logor (Int64.of_int x) (Int64.shift_left (Int64.of_int o) dict.x_bits) in
        pats := packed :: !pats
      end)
    dict.bases;
  !pats

let scan t ~field ~value =
  if field < 0 || field >= t.arity then invalid_arg "Tuple_page.scan";
  let d = t.dicts.(field) in
  let pats = patterns_of d value in
  if pats = [] then []
  else begin
    let width = d.x_bits + d.w in
    let acc = ref [] in
    for i = t.count - 1 downto 0 do
      let at = (i * t.tuple_bits) + t.field_offsets.(field) in
      let bits = Bitio.Reader.get t.body ~at ~width in
      if List.exists (Int64.equal bits) pats then acc := i :: !acc
    done;
    !acc
  end

let scan_naive t ~field ~value =
  if field < 0 || field >= t.arity then invalid_arg "Tuple_page.scan_naive";
  let acc = ref [] in
  for i = t.count - 1 downto 0 do
    let tup = get t i in
    if Int64.equal tup.(field) value then acc := i :: !acc
  done;
  !acc

let size_bytes t = t.header_bytes + (((t.count * t.tuple_bits) + 7) / 8)

let plain_size_bytes ~arity ~count = arity * count * 8
