(* Virtual desktop infrastructure (paper §5.3): thousands of similar VM
   images dedup 20x; clones provision instantly off a gold image.

   This example builds a gold OS image, snapshots it, clones sixteen
   desktops from the snapshot (an O(1) operation each), lets the desktops
   diverge a little, and reports provisioning time, dedup and the
   provisioned:physical ratio.

     dune exec examples/vdi_cloning.exe *)

module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module Dg = Purity_workload.Datagen

let await clock f = Option.get (Clock.await clock f)

let desktops = 16
let image_blocks = 8192 (* 4 MiB gold image at simulation scale *)

let () =
  let clock = Clock.create () in
  let array = Fa.create ~clock () in
  let dg = Dg.create ~seed:7L in

  (* the gold image *)
  (match Fa.create_volume array "gold" ~blocks:image_blocks with
  | Ok () -> ()
  | Error _ -> failwith "create failed");
  let image = Dg.vm_image dg ~blocks:image_blocks in
  let t0 = Clock.now clock in
  let rec put b =
    if b < image_blocks then begin
      (match
         await clock
           (Fa.write array ~volume:"gold" ~block:b (String.sub image (b * 512) (64 * 512)))
       with
      | Ok () -> ()
      | Error _ -> failwith "image write failed");
      put (b + 64)
    end
  in
  put 0;
  Printf.printf "gold image installed (%d MiB) in %.1f simulated ms\n"
    (image_blocks * 512 / 1048576)
    ((Clock.now clock -. t0) /. 1000.0);

  (match Fa.snapshot array ~volume:"gold" ~snap:"gold@v1" with
  | Ok () -> ()
  | Error _ -> failwith "snapshot failed");

  (* clone sixteen desktops: pure metadata, no data copied *)
  let t1 = Clock.now clock in
  for i = 1 to desktops do
    match Fa.clone array ~snapshot:"gold@v1" ~volume:(Printf.sprintf "desktop%02d" i) with
    | Ok () -> ()
    | Error _ -> failwith "clone failed"
  done;
  Printf.printf "%d desktops cloned in %.3f simulated ms (metadata only)\n" desktops
    ((Clock.now clock -. t1) /. 1000.0);

  (* each desktop boots and writes a little unique state *)
  for i = 1 to desktops do
    let name = Printf.sprintf "desktop%02d" i in
    (match await clock (Fa.read array ~volume:name ~block:0 ~nblocks:128) with
    | Ok boot -> assert (boot = String.sub image 0 (128 * 512))
    | Error _ -> failwith "boot read failed");
    ignore
      (await clock (Fa.write array ~volume:name ~block:4096 (Dg.random dg (32 * 512))))
  done;
  print_endline "all desktops booted from shared blocks and diverged privately";

  let s = Fa.stats array in
  Printf.printf "\nprovisioned virtual space: %d MiB across %d volumes\n"
    (s.Fa.provisioned_virtual_bytes / 1048576)
    (List.length (Fa.list_volumes array));
  Printf.printf "physical space used:       %d MiB\n" (s.Fa.physical_bytes_used / 1048576);
  Printf.printf "provisioning ratio:        %.1fx (paper: customers provision ~12x)\n"
    (float_of_int s.Fa.provisioned_virtual_bytes /. float_of_int (max 1 s.Fa.physical_bytes_used));
  Printf.printf "dedup absorbed %d blocks of OS content within the image itself\n"
    s.Fa.dedup_blocks
