module Rng = Purity_util.Rng

type t = { rng : Rng.t; os_pool : string array Lazy.t }

let block = 512

let make_os_pool rng =
  (* 256 distinct "OS file" blocks; text-like so they also compress *)
  Array.init 256 (fun i ->
      let b = Buffer.create block in
      Buffer.add_string b (Printf.sprintf "OSFILE[%03d] " i);
      while Buffer.length b < block do
        Buffer.add_string b
          (Printf.sprintf "lib%02d.so segment %04d; " (Rng.int rng 40) (Rng.int rng 9999))
      done;
      Buffer.sub b 0 block)

let create ~seed =
  let rng = Rng.create ~seed in
  let pool_rng = Rng.split rng in
  { rng; os_pool = lazy (make_os_pool pool_rng) }

(* A payload is one fresh buffer, filled in place and handed out as the
   string it becomes: nothing else holds the bytes, so no copy is needed. *)
let[@purity.lint.allow "unsafe: a freshly filled buffer that nothing else references"] publish
    buf =
  Bytes.unsafe_to_string buf

let random t len = publish (Rng.bytes t.rng len)

(* interleave random spans (incompressible) with a repeated template;
   random fraction ~ 1/ratio gives roughly the requested ratio *)
let template = "the-quick-brown-fox-0123456789-"
let span = 32

let compressible t len ~target_ratio =
  if target_ratio <= 1.0 then random t len
  else begin
    let random_span = Rng.odds (1.0 /. target_ratio) in
    let buf = Bytes.create len in
    let pos = ref 0 in
    while !pos < len do
      let room = len - !pos in
      if Rng.hit t.rng random_span then begin
        let n = min span room in
        Rng.fill_bytes t.rng buf ~pos:!pos ~len:n;
        (* a cut-off last span still consumes its whole 32 bytes' draws *)
        Rng.skip t.rng ((span - n) / 8);
        pos := !pos + span
      end
      else begin
        Bytes.blit_string template 0 buf !pos (min (String.length template) room);
        pos := !pos + String.length template
      end
    done;
    publish buf
  end

let rdbms_page t len =
  let b = Buffer.create len in
  Buffer.add_string b (Printf.sprintf "PAGEHDR|lsn=%016Ld|slots=064|" (Rng.next_int64 t.rng));
  let statuses = [| "ACTIVE "; "DELETED"; "PENDING" |] in
  while Buffer.length b < len * 13 / 16 do
    Buffer.add_string b
      (Printf.sprintf "row|id=%08d|st=%s|bal=%06d|name=customer_%04d|pad=%s|"
         (Rng.int t.rng 100_000_000)
         statuses.(Rng.int t.rng 3)
         (Rng.int t.rng 999_999) (Rng.int t.rng 10_000)
         (String.make 8 ' '))
  done;
  (* a little high-entropy payload, then zero free space *)
  Buffer.add_string b (Bytes.to_string (Rng.bytes t.rng (len / 32)));
  let s = Buffer.contents b in
  if String.length s >= len then String.sub s 0 len
  else s ^ String.make (len - String.length s) '\000'

let document t len =
  let b = Buffer.create len in
  let kinds = [| "click"; "view"; "purchase"; "refund" |] in
  while Buffer.length b < len do
    (* documents repeat their schema: long fixed field names and enum
       values dominate, with a few short variable fields *)
    Buffer.add_string b
      (Printf.sprintf
         "{\"_id\":\"%06x\",\"event_type\":\"%s\",\"timestamp_utc\":%d,\"session\":{\"user_identifier\":%d,\"subscription_tier\":\"gold\",\"experiment_buckets\":[\"control\",\"holdback\"],\"client\":{\"platform\":\"web\",\"locale\":\"en-US\",\"app_version\":\"4.12.0\"}},\"labels\":[\"alpha\",\"beta\",\"gamma\"],\"schema_version\":7}"
         (Rng.int t.rng 0xFFFFF)
         kinds.(Rng.int t.rng 4)
         (1700000000 + Rng.int t.rng 10000)
         (Rng.int t.rng 5000))
  done;
  Buffer.sub b 0 len

let os_image_block t i =
  let pool = Lazy.force t.os_pool in
  pool.(((i mod Array.length pool) + Array.length pool) mod Array.length pool)

let shared_block = Rng.odds 0.95

let vm_image t ~blocks =
  let buf = Bytes.create (blocks * block) in
  for i = 0 to blocks - 1 do
    if Rng.hit t.rng shared_block then
      (* shared OS content, in file-sized runs so dedup anchors land *)
      Bytes.blit_string (os_image_block t (i / 16 * 16 mod 256 + (i mod 16))) 0 buf (i * block)
        block
    else
      (* machine-unique block (logs, swap, config) *)
      Rng.fill_bytes t.rng buf ~pos:(i * block) ~len:block
  done;
  publish buf
