(* The original byte-at-a-time CRC-32C over [Int32], the reference
   Purity_util.Crc32c's slicing-by-8 kernel is checked against bit for
   bit. Its byte table is built here from the Castagnoli polynomial
   (reflected 0x82F63B78). *)

let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0x82F63B78l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let digest buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then invalid_arg "Crc32c_ref.digest";
  let c = ref 0xFFFFFFFFl in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Bytes.get_uint8 buf i))) 0xFFl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl
