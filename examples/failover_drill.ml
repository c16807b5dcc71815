(* The evaluation drill the paper describes (§1): "we encourage potential
   customers to pull drives and unplug controllers as they evaluate
   Purity and competitive products."

   This example loads data, pulls two drives mid-flight, keeps serving,
   crashes the primary controller, fails over to the spare, and verifies
   that every acknowledged write survived — then prints the availability
   accounting.

     dune exec examples/failover_drill.exe *)

module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module Rng = Purity_util.Rng

let await clock f = Option.get (Clock.await clock f)

let () =
  let clock = Clock.create () in
  let array = Fa.create ~clock () in
  let rng = Rng.create ~seed:13L in

  (match Fa.create_volume array "prod" ~blocks:32768 with
  | Ok () -> ()
  | Error _ -> failwith "create failed");

  (* remember everything we ack so we can audit it after the disasters *)
  let audit : (int * string) list ref = ref [] in
  let write_and_record block nblocks =
    let data = Bytes.to_string (Rng.bytes rng (nblocks * 512)) in
    match await clock (Fa.write array ~volume:"prod" ~block data) with
    | Ok () -> audit := (block, data) :: !audit
    | Error _ -> failwith "write failed"
  in
  for i = 0 to 63 do
    write_and_record (i * 256) 128
  done;
  Printf.printf "loaded %d writes (%d MiB)\n" (List.length !audit) (64 * 128 * 512 / 1048576);

  (* pull two drives — the array must keep serving *)
  Fa.pull_drive array 2;
  Fa.pull_drive array 7;
  print_endline "pulled drives 2 and 7 (7+2 coding tolerates both)";
  for i = 64 to 79 do
    write_and_record (i * 256) 128
  done;
  print_endline "kept writing through the double failure";

  (* now kill the controller *)
  Fa.crash array;
  print_endline "primary controller crashed (volatile state gone)";
  let report = await clock (fun k -> Fa.failover array k) in
  Printf.printf
    "spare took over in %.1f simulated ms (scanned %d headers, replayed %d log records, %d NVRAM intents)\n"
    (report.Purity_core.Recovery.duration_us /. 1000.0)
    report.Purity_core.Recovery.headers_scanned report.Purity_core.Recovery.log_records
    report.Purity_core.Recovery.nvram_records;

  (* audit every acknowledged write *)
  let bad = ref 0 in
  List.iter
    (fun (block, data) ->
      match await clock (Fa.read array ~volume:"prod" ~block ~nblocks:128) with
      | Ok got -> if got <> data then incr bad
      | Error _ -> incr bad)
    !audit;
  Printf.printf "audit: %d/%d acknowledged writes intact after drive pulls + failover\n"
    (List.length !audit - !bad)
    (List.length !audit);

  (* rebuild redundancy onto the remaining drives, then replace hardware *)
  let rebuilt = await clock (fun k -> Fa.rebuild_drive array 2 (fun n -> k n)) in
  let rebuilt' = await clock (fun k -> Fa.rebuild_drive array 7 (fun n -> k n)) in
  Printf.printf "rebuilt %d segments away from the pulled drives\n" (rebuilt + rebuilt');
  Fa.replace_drive array 2;
  Fa.replace_drive array 7;
  print_endline "replacement drives inserted";

  Clock.advance clock 3.6e9 (* an hour of uptime for the availability math *);
  let s = Fa.stats array in
  Printf.printf "availability since creation: %.5f%%\n" (100.0 *. s.Fa.availability);
  if !bad = 0 then print_endline "drill PASSED: no acknowledged write was lost"
  else (print_endline "drill FAILED"; exit 1)
