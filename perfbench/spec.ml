(* The three workloads. Each one fixes the array geometry, the volumes,
   how they are set up, the op stream of the timed phase and its GC
   cadence. Op counts are fixed per workload and scaled by --seconds
   (ops_per_second was sized on a 2-core x86-64 host), so a seed and a run
   length always produce the same ops and the same simulated results. *)

module Fa = Purity_core.Flash_array
module Drive = Purity_ssd.Drive
module Wl = Purity_workload.Workload
module Dg = Purity_workload.Datagen
module Rng = Purity_util.Rng

type t = {
  name : string;
  ops_per_second : int;
  gc_every : int;  (** 0: no GC; else clients drain and one GC pass runs every N ops *)
  gc_max_victims : int;
  setup : seed:int64 -> ops:int -> Loop.ctx;
      (** create, provision and prefill; returns a quiesced array *)
  gen : seed:int64 -> unit -> Wl.op;  (** the timed phase's op stream *)
}

(* The repo's default array (11 drives, 7+2 Reed-Solomon, 32 KiB write
   units, 516 KiB AUs) with drives large enough to hold [physical_mib]. *)
let geometry ?(read_cache_entries = Fa.default_config.Fa.read_cache_entries) ?(physical_mib = 0.0) () =
  let d = Fa.default_config.Fa.drive_config in
  let au_mib = float_of_int d.Drive.au_size /. 1048576.0 in
  let num_aus =
    max d.Drive.num_aus
      (int_of_float (Float.ceil (physical_mib /. au_mib /. float_of_int Fa.default_config.Fa.drives)))
  in
  {
    Fa.default_config with
    Fa.read_cache_entries;
    drive_config = { d with Drive.num_aus };
  }

let slot_blocks_32k = 64

(* Separate streams for set-up data and for the timed phase, so the timed
   phase can be regenerated on its own (the traced run replays it). *)
let sub_seed ~seed i =
  let rng = Rng.create ~seed in
  let r = ref 0L in
  for _ = 0 to i do
    r := Rng.next_int64 rng
  done;
  !r

(* Write every slot of every volume once, in order. *)
let prefill ctx ~volumes ~slot_blocks ~payload =
  let items =
    List.concat_map (fun (name, blocks) -> List.init (blocks / slot_blocks) (fun s -> (name, s))) volumes
  in
  let queue = ref items in
  let gen () =
    match !queue with
    | (volume, s) :: rest ->
      queue := rest;
      Wl.Write { volume; block = s * slot_blocks; data = payload () }
    | [] -> invalid_arg "prefill: exhausted"
  in
  Loop.run_ops ctx ~n:(List.length items) ~gen

let quiesce ctx =
  Loop.await ctx (Fa.flush ctx.Loop.fa);
  ignore (Loop.await ctx (Fa.checkpoint ctx.Loop.fa))

let provision ctx volumes = Wl.provision ctx.Loop.fa ~volumes

(* ---- rand-rw: E1's Table-1 mix, made to miss the controller cache ---- *)

(* 2 x 20 MiB = 1280 slots of 32 KiB: 5x the 256-frame read cache *)
let rr_cache_entries = 256
let rr_volumes = [ ("lun0", 40960); ("lun1", 40960) ]

let rand_rw =
  {
    name = "rand-rw";
    ops_per_second = 700;
    gc_every = 0;
    gc_max_victims = 0;
    setup =
      (fun ~seed ~ops ->
        (* each timed write stores a fresh incompressible 32 KiB and
           nothing is collected: size the drives for all of it *)
        let physical_mib = (45.0 +. (float_of_int ops *. 0.3 *. 0.032)) *. 9.0 /. 7.0 *. 1.5 in
        let config = geometry ~read_cache_entries:rr_cache_entries ~physical_mib () in
        let shadow = Shadow.create ~slot_blocks:slot_blocks_32k rr_volumes in
        let ctx = Loop.create ~config ~shadow ~seed:(sub_seed ~seed 3) in
        provision ctx rr_volumes;
        let dg = Dg.create ~seed:(sub_seed ~seed 0) in
        prefill ctx ~volumes:rr_volumes ~slot_blocks:slot_blocks_32k ~payload:(fun () ->
            Dg.compressible dg (slot_blocks_32k * 512) ~target_ratio:3.0);
        quiesce ctx;
        ctx);
    gen =
      (fun ~seed ->
        let wl =
          Wl.uniform ~seed:(sub_seed ~seed 1) ~volumes:rr_volumes ~read_fraction:0.7
            ~io_blocks:slot_blocks_32k ()
        in
        fun () -> Wl.next_op wl);
  }

(* ---- ingest: sustained overwrites with GC between bursts ---- *)

let ing_volumes = List.init 4 (fun i -> (Printf.sprintf "ingest%d" i, 16384))

(* alternate incompressible and 3:1 payloads *)
let ingest_payload dg =
  let n = ref 0 in
  fun () ->
    incr n;
    if !n land 1 = 0 then Dg.random dg (slot_blocks_32k * 512)
    else Dg.compressible dg (slot_blocks_32k * 512) ~target_ratio:3.0

let ingest =
  {
    name = "ingest";
    ops_per_second = 1200;
    gc_every = 512;
    gc_max_victims = 16;
    setup =
      (fun ~seed ~ops:_ ->
        let config = geometry () in
        let shadow = Shadow.create ~slot_blocks:slot_blocks_32k ing_volumes in
        let ctx = Loop.create ~config ~shadow ~seed:(sub_seed ~seed 3) in
        provision ctx ing_volumes;
        let payload = ingest_payload (Dg.create ~seed:(sub_seed ~seed 0)) in
        prefill ctx ~volumes:ing_volumes ~slot_blocks:slot_blocks_32k ~payload;
        quiesce ctx;
        ctx);
    gen =
      (fun ~seed ->
        let rng = Rng.create ~seed:(sub_seed ~seed 1) in
        let payload = ingest_payload (Dg.create ~seed:(sub_seed ~seed 2)) in
        let vols = Array.of_list ing_volumes in
        fun () ->
          let volume, blocks = vols.(Rng.int rng (Array.length vols)) in
          let block = Rng.int rng (blocks / slot_blocks_32k) * slot_blocks_32k in
          if Rng.float rng 1.0 < 0.1 then Wl.Read { volume; block; nblocks = slot_blocks_32k }
          else Wl.Write { volume; block; data = payload () });
  }

(* ---- vdi: a golden image cloned into desktops ---- *)

let vdi_slot_blocks = 32 (* Workload.vdi reads and writes 16 KiB *)
let golden_blocks = 32768
let desktops = List.init 16 (fun i -> (Printf.sprintf "desk%02d" i, golden_blocks))

let vdi =
  {
    name = "vdi";
    ops_per_second = 4500;
    gc_every = 0;
    gc_max_victims = 0;
    setup =
      (fun ~seed ~ops:_ ->
        let config = geometry () in
        let shadow = Shadow.create ~slot_blocks:vdi_slot_blocks [ ("golden", golden_blocks) ] in
        let ctx = Loop.create ~config ~shadow ~seed:(sub_seed ~seed 3) in
        provision ctx [ ("golden", golden_blocks) ];
        let image = Dg.vm_image (Dg.create ~seed:(sub_seed ~seed 0)) ~blocks:golden_blocks in
        let next = ref 0 in
        prefill ctx ~volumes:[ ("golden", golden_blocks) ] ~slot_blocks:vdi_slot_blocks
          ~payload:(fun () ->
            let s = String.sub image (!next * vdi_slot_blocks * 512) (vdi_slot_blocks * 512) in
            incr next;
            s);
        let ok = function Ok () -> () | Error _ -> failwith "vdi setup: snapshot/clone failed" in
        ok (Fa.snapshot ctx.Loop.fa ~volume:"golden" ~snap:"golden.snap");
        List.iter
          (fun (name, _) ->
            ok (Fa.clone ctx.Loop.fa ~snapshot:"golden.snap" ~volume:name);
            Shadow.add_copy shadow ~src:"golden" ~name)
          desktops;
        quiesce ctx;
        ctx);
    gen =
      (fun ~seed ->
        let wl =
          Wl.vdi ~seed:(sub_seed ~seed 1) ~volumes:desktops
            ~datagen:(Dg.create ~seed:(sub_seed ~seed 2)) ()
        in
        fun () -> Wl.next_op wl);
  }

let all = [ rand_rw; ingest; vdi ]
let find name = List.find_opt (fun s -> s.name = name) all
