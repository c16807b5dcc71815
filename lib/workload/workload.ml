module Rng = Purity_util.Rng
module Clock = Purity_sim.Clock
module Histogram = Purity_util.Histogram
module Fa = Purity_core.Flash_array

type op =
  | Read of { volume : string; block : int; nblocks : int }
  | Write of { volume : string; block : int; data : string }

type t = { gen : unit -> op }

let next_op t = t.gen ()

let pick_volume rng volumes =
  let n = Array.length volumes in
  volumes.(Rng.int rng n)

(* Choose an io-sized offset so ops never cross the volume end. *)
let offset_for rng size io_blocks ~zipf_skew =
  let slots = max 1 ((size - io_blocks) / io_blocks + 1) in
  let slot =
    if zipf_skew > 0.0 then Rng.zipf rng ~n:slots ~theta:zipf_skew else Rng.int rng slots
  in
  slot * io_blocks

(* A write's payload is one fresh buffer, filled in place and handed out
   as the string it becomes: nothing else holds the bytes. *)
let[@purity.lint.allow "unsafe: a freshly filled buffer that nothing else references"] publish
    buf =
  Bytes.unsafe_to_string buf

let uniform ~seed ~volumes ~read_fraction ~io_blocks () =
  let rng = Rng.create ~seed in
  let data_rng = Rng.split rng in
  let vols = Array.of_list volumes in
  let read = Rng.odds read_fraction in
  let gen () =
    let name, size = pick_volume rng vols in
    let block = offset_for rng size io_blocks ~zipf_skew:0.0 in
    if Rng.hit rng read then Read { volume = name; block; nblocks = io_blocks }
    else Write { volume = name; block; data = publish (Rng.bytes data_rng (io_blocks * 512)) }
  in
  { gen }

let oltp_read = Rng.odds 0.7

let oltp ~seed ~volumes () =
  let rng = Rng.create ~seed in
  let dg = Datagen.create ~seed:(Rng.next_int64 rng) in
  let vols = Array.of_list volumes in
  let gen () =
    let name, size = pick_volume rng vols in
    (* 8, 16 or 32 KiB pages, skewed towards 16 *)
    let io_blocks = match Rng.int rng 4 with 0 -> 16 | 3 -> 64 | _ -> 32 in
    let block = offset_for rng size io_blocks ~zipf_skew:0.9 in
    if Rng.hit rng oltp_read then Read { volume = name; block; nblocks = io_blocks }
    else Write { volume = name; block; data = Datagen.rdbms_page dg (io_blocks * 512) }
  in
  { gen }

let docstore_read = Rng.odds 0.5

let docstore ~seed ~volumes () =
  let rng = Rng.create ~seed in
  let dg = Datagen.create ~seed:(Rng.next_int64 rng) in
  let vols = Array.of_list volumes in
  let cursors = Hashtbl.create 8 in
  let gen () =
    let name, size = pick_volume rng vols in
    let io_blocks = 64 + (64 * Rng.int rng 2) in
    if Rng.hit rng docstore_read then begin
      let block = offset_for rng size io_blocks ~zipf_skew:0.5 in
      Read { volume = name; block; nblocks = io_blocks }
    end
    else begin
      (* append-mostly write pattern, wrapping at the end *)
      let cursor = Option.value ~default:0 (Hashtbl.find_opt cursors name) in
      let block = if cursor + io_blocks > size then 0 else cursor in
      Hashtbl.replace cursors name (block + io_blocks);
      Write { volume = name; block; data = Datagen.document dg (io_blocks * 512) }
    end
  in
  { gen }

let vdi_read = Rng.odds 0.8

let vdi ~seed ~volumes ~datagen () =
  let rng = Rng.create ~seed in
  let vols = Array.of_list volumes in
  let io_blocks = 32 in
  let gen () =
    let name, size = pick_volume rng vols in
    let block = offset_for rng size io_blocks ~zipf_skew:0.7 in
    if Rng.hit rng vdi_read then Read { volume = name; block; nblocks = io_blocks }
    else begin
      (* desktops rewrite OS-image content: highly duplicated across VMs *)
      let buf = Bytes.create (io_blocks * 512) in
      let base = Rng.int rng 224 in
      for i = 0 to io_blocks - 1 do
        Bytes.blit_string (Datagen.os_image_block datagen (base + i)) 0 buf (i * 512) 512
      done;
      Write { volume = name; block; data = publish buf }
    end
  in
  { gen }

let provision array ~volumes =
  List.iter
    (fun (name, blocks) ->
      match Fa.create_volume array name ~blocks with
      | Ok () -> ()
      | Error _ -> invalid_arg ("Workload.provision: cannot create " ^ name))
    volumes

type report = {
  ops : int;
  read_ops : int;
  write_ops : int;
  errors : int;
  elapsed_us : float;
  iops : float;
  bytes_moved : int;
  throughput_mb_s : float;
  read_lat : Histogram.t;
  write_lat : Histogram.t;
}

let run array t ~ops ~concurrency k =
  let clock = Fa.clock array in
  let start = Clock.now clock in
  let issued = ref 0 in
  let completed = ref 0 in
  let reads = ref 0 and writes = ref 0 and errors = ref 0 and bytes = ref 0 in
  let read_lat = Histogram.create () and write_lat = Histogram.create () in
  let finish () =
    let elapsed = Clock.now clock -. start in
    k
      {
        ops = !completed;
        read_ops = !reads;
        write_ops = !writes;
        errors = !errors;
        elapsed_us = elapsed;
        iops = (if elapsed > 0.0 then float_of_int !completed /. (elapsed /. 1e6) else 0.0);
        bytes_moved = !bytes;
        throughput_mb_s =
          (if elapsed > 0.0 then float_of_int !bytes /. 1048576.0 /. (elapsed /. 1e6) else 0.0);
        read_lat;
        write_lat;
      }
  in
  let rec pump () =
    if !issued < ops then begin
      incr issued;
      let op_start = Clock.now clock in
      let complete hist n_bytes result =
        (match result with
        | Ok () -> Histogram.record hist (Clock.now clock -. op_start)
        | Error () -> incr errors);
        bytes := !bytes + n_bytes;
        incr completed;
        if !completed = ops then finish () else pump ()
      in
      match next_op t with
      | Read { volume; block; nblocks } ->
        incr reads;
        Fa.read array ~volume ~block ~nblocks (fun r ->
            complete read_lat (nblocks * 512)
              (match r with Ok _ -> Ok () | Error _ -> Error ()))
      | Write { volume; block; data } ->
        incr writes;
        (* back-pressure (`Backpressure = NVRAM full behind the segment
           writer) is not a failure: retry after a short pause, like an
           initiator would *)
        let rec attempt tries =
          Fa.write array ~volume ~block data (fun r ->
              match r with
              | Ok () -> complete write_lat (String.length data) (Ok ())
              | Error `Backpressure when tries < 200 ->
                Clock.schedule clock ~delay:200.0 (fun () -> attempt (tries + 1))
              | Error _ -> complete write_lat (String.length data) (Error ()))
        in
        attempt 0
    end
  in
  if ops = 0 then finish ()
  else
    for _ = 1 to min concurrency ops do
      pump ()
    done

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>ops=%d (r=%d w=%d err=%d) elapsed=%.1f ms iops=%.0f thr=%.1f MB/s@,\
     read  lat: %a@,write lat: %a@]"
    r.ops r.read_ops r.write_ops r.errors (r.elapsed_us /. 1000.0) r.iops r.throughput_mb_s
    Histogram.pp_summary r.read_lat Histogram.pp_summary r.write_lat
