(* Quickstart: create an array, provision a volume, write, read, snapshot.

     dune exec examples/quickstart.exe

   Everything is asynchronous against a simulated clock: operations take
   a continuation, and [Clock.run] drains the event queue. *)

module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array

let await clock f = Option.get (Clock.await clock f)

let () =
  (* An array with the default laptop-scale geometry: 11 simulated flash
     drives, 7+2 Reed-Solomon, compression and dedup on. *)
  let clock = Clock.create () in
  let array = Fa.create ~clock () in

  (* Volumes are block devices addressed in 512-byte blocks. *)
  (match Fa.create_volume array "demo" ~blocks:8192 with
  | Ok () -> print_endline "created volume 'demo' (4 MiB)"
  | Error _ -> failwith "create failed");

  (* Write 64 KiB of (compressible) data at block 100. *)
  let data =
    let b = Buffer.create (128 * 512) in
    let i = ref 0 in
    while Buffer.length b < 128 * 512 do
      Buffer.add_string b (Printf.sprintf "record %06d padding padding |" !i);
      incr i
    done;
    Buffer.sub b 0 (128 * 512)
  in
  (match await clock (Fa.write array ~volume:"demo" ~block:100 data) with
  | Ok () -> print_endline "wrote 64 KiB at block 100 (durable in NVRAM)"
  | Error _ -> failwith "write failed");

  (* Read it back. *)
  (match await clock (Fa.read array ~volume:"demo" ~block:100 ~nblocks:128) with
  | Ok got ->
    Printf.printf "read back %d bytes, intact: %b\n" (String.length got) (got = data)
  | Error _ -> failwith "read failed");

  (* Snapshots are O(1): they freeze the volume's medium. *)
  (match Fa.snapshot array ~volume:"demo" ~snap:"demo@noon" with
  | Ok () -> print_endline "took snapshot 'demo@noon'"
  | Error _ -> failwith "snapshot failed");

  (* Overwrite after the snapshot: the snapshot stays frozen. *)
  ignore (await clock (Fa.write array ~volume:"demo" ~block:100 (String.make (128 * 512) 'X')));
  let snap_view = await clock (Fa.read array ~volume:"demo@noon" ~block:100 ~nblocks:128) in
  (match snap_view with
  | Ok s -> Printf.printf "snapshot still reads the old data: %b\n" (s = data)
  | Error _ -> failwith "snapshot read failed");

  (* The array keeps statistics on data reduction and latency. *)
  let s = Fa.stats array in
  Printf.printf "stats: %d writes, %s logical -> %s stored (compression at work)\n"
    s.Fa.app_writes
    (string_of_int s.Fa.logical_bytes_written)
    (string_of_int s.Fa.stored_bytes_written);
  Fmt.pr "write latency (simulated us): %a@." Purity_util.Histogram.pp_summary
    s.Fa.write_latency
