(* The benchmark's record of what each slot should hold: one digest per
   I/O-sized slot of every volume, never the payload itself. A slot with
   a write in flight may legitimately read back either its committed
   bytes or those of any write still in flight (a read's block mapping is
   resolved when it is submitted, so it sees exactly the writes applied
   before it). *)

(* Every byte of the payload feeds the digest: each 64-bit word is folded
   in whole (its top bit separately, since OCaml ints are 63 bits). *)
let digest s =
  let n = String.length s in
  let h = ref (n lxor 0x2545F4914F6CDD1D) in
  let i = ref 0 in
  while !i + 8 <= n do
    let w = String.get_int64_le s !i in
    let x = Int64.to_int w lxor Int64.to_int (Int64.shift_right_logical w 63) in
    h := (!h lxor x) * 0x100000001B3;
    h := !h lxor (!h lsr 29);
    i := !i + 8
  done;
  while !i < n do
    h := (!h lxor Char.code (String.unsafe_get s !i)) * 0x100000001B3;
    incr i
  done;
  !h

type vol = {
  name : string;
  slot_blocks : int;
  committed : int array;
  inflight : int list array;
}

type t = { mutable vols : vol array; by_name : (string, vol) Hashtbl.t }

let create ~slot_blocks volumes =
  let zero = digest (String.make (slot_blocks * 512) '\000') in
  let vols =
    Array.of_list
      (List.map
         (fun (name, blocks) ->
           let slots = blocks / slot_blocks in
           {
             name;
             slot_blocks;
             committed = Array.make slots zero;
             inflight = Array.make slots [];
           })
         volumes)
  in
  let by_name = Hashtbl.create 16 in
  Array.iter (fun v -> Hashtbl.replace by_name v.name v) vols;
  { vols; by_name }

let find t name = Hashtbl.find t.by_name name
let slots v = Array.length v.committed

(* A new volume whose slots start as copies of [src]'s (a clone). *)
let add_copy t ~src ~name =
  let s = find t src in
  let v =
    { s with name; committed = Array.copy s.committed; inflight = Array.map (fun _ -> []) s.inflight }
  in
  Hashtbl.replace t.by_name name v;
  t.vols <- Array.append t.vols [| v |]

let rec remove_one d = function
  | [] -> []
  | x :: rest -> if x = d then rest else x :: remove_one d rest

let begin_write v ~slot d = v.inflight.(slot) <- d :: v.inflight.(slot)

let commit v ~slot d =
  v.committed.(slot) <- d;
  v.inflight.(slot) <- remove_one d v.inflight.(slot)

let abort v ~slot d = v.inflight.(slot) <- remove_one d v.inflight.(slot)

(* What a read submitted now may return. *)
let acceptable v ~slot = v.committed.(slot) :: v.inflight.(slot)
