(* Payloads the checker writes, and the naming of bytes it reads back.

   The bytes of write [wid], block [idx] are a pure function of the plan
   seed — not of any execution-time stream — so dropping events during
   trace shrinking never changes the payloads of the events that remain.
   The identity is embedded verbatim in the head of the block, making
   payloads collision-free and letting a failure report name the write a
   wrong byte actually came from. wid 0 renders as zeros (a deliberate
   zero-write, indistinguishable from unwritten space — as it should be).
   The reference model judges reads through this module only, so the
   block format is known here and nowhere else. *)

type token = Zero | Data of { wid : int; idx : int }

type t = { seed : int64; block_size : int; renders : (token, string) Hashtbl.t }

let create ~seed ~block_size = { seed; block_size; renders = Hashtbl.create 256 }

let render t tok =
  match Hashtbl.find_opt t.renders tok with
  | Some s -> s
  | None ->
    let s =
      match tok with
      | Zero | Data { wid = 0; _ } -> String.make t.block_size '\000'
      | Data { wid; idx } ->
        let b = Bytes.create t.block_size in
        let mix =
          Int64.logxor t.seed (Int64.of_int (((wid + 1) * 0x10003) + idx))
        in
        let rng = Purity_util.Rng.create ~seed:mix in
        Purity_util.Rng.fill_bytes rng b ~pos:0 ~len:t.block_size;
        Bytes.set_int32_le b 0 (Int32.of_int wid);
        Bytes.set_int32_le b 4 (Int32.of_int idx);
        Bytes.to_string b
    in
    Hashtbl.replace t.renders tok s;
    s

(* The bytes of a whole write of [nblocks] blocks. *)
let of_write t ~wid ~nblocks =
  String.concat "" (List.init nblocks (fun idx -> render t (Data { wid; idx })))

let describe_token = function
  | Zero -> "zeros"
  | Data { wid; idx } -> Printf.sprintf "write#%d+%d" wid idx

(* Best-effort naming of bytes the model did not expect, using the
   embedded identity. *)
let describe_bytes t s =
  if s = String.make t.block_size '\000' then "zeros"
  else if String.length s >= 8 then
    let wid = Int32.to_int (String.get_int32_le s 0) in
    let idx = Int32.to_int (String.get_int32_le s 4) in
    if wid > 0 && wid < 1_000_000 && idx >= 0 && idx < 65536
       && s = render t (Data { wid; idx })
    then Printf.sprintf "bytes of write#%d+%d" wid idx
    else "unrecognised bytes"
  else "unrecognised bytes"

(* Judge a read of [nblocks] blocks one block at a time: [check j got]
   rules on block [j]; the first violation is the answer. [label] names
   the range in the length error. *)
let check_blocks t ~label ~nblocks data check =
  let got = String.length data and want = nblocks * t.block_size in
  if got <> want then
    Error (Printf.sprintf "read %s: got %d bytes, wanted %d" label got want)
  else
    let rec go j =
      if j = nblocks then Ok ()
      else
        match check j (String.sub data (j * t.block_size) t.block_size) with
        | Ok () -> go (j + 1)
        | Error _ as e -> e
    in
    go 0
