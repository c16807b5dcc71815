type config = {
  pages_per_block : int;
  num_blocks : int;
  overprovision : float;
  program_us : float;
  read_us : float;
  erase_us : float;
  gc_low_watermark : int;
}

let default_config =
  {
    pages_per_block = 256;
    num_blocks = 512;
    overprovision = 0.07;
    program_us = 250.0;
    read_us = 90.0;
    erase_us = 2000.0;
    gc_low_watermark = 4;
  }

module Registry = Purity_telemetry.Registry

type t = {
  cfg : config;
  host_page_count : int;
  map : int array; (* lpn -> ppn, -1 if unmapped *)
  rmap : int array; (* ppn -> lpn, -1 if free/invalid *)
  valid : int array; (* valid pages per block *)
  mutable free_blocks : int list;
  mutable open_block : int;
  mutable open_next : int; (* next page slot in the open block *)
  host_writes : Registry.counter;
  total_programs : Registry.counter;
  erases : Registry.counter;
  gc_relocations : Registry.counter;
}

let create ?(config = default_config) () =
  let physical_pages = config.num_blocks * config.pages_per_block in
  let host_page_count =
    int_of_float (float_of_int physical_pages *. (1.0 -. config.overprovision))
  in
  let free = List.init (config.num_blocks - 1) (fun i -> i + 1) in
  {
    cfg = config;
    host_page_count;
    map = Array.make host_page_count (-1);
    rmap = Array.make physical_pages (-1);
    valid = Array.make config.num_blocks 0;
    free_blocks = free;
    open_block = 0;
    open_next = 0;
    host_writes = Registry.cell ();
    total_programs = Registry.cell ();
    erases = Registry.cell ();
    gc_relocations = Registry.cell ();
  }

let host_pages t = t.host_page_count

let invalidate t ppn =
  if ppn >= 0 then begin
    let block = ppn / t.cfg.pages_per_block in
    t.rmap.(ppn) <- -1;
    t.valid.(block) <- t.valid.(block) - 1
  end

(* Program a page into the open block; assumes a slot is available. *)
let program t lpn =
  let ppn = (t.open_block * t.cfg.pages_per_block) + t.open_next in
  t.open_next <- t.open_next + 1;
  invalidate t t.map.(lpn);
  t.map.(lpn) <- ppn;
  t.rmap.(ppn) <- lpn;
  t.valid.(t.open_block) <- t.valid.(t.open_block) + 1;
  Registry.incr t.total_programs

(* Pick the block with the fewest valid pages (greedy), relocate its valid
   pages, erase it. Returns the latency of the work. *)
let gc_once t =
  let victim = ref (-1) and best = ref max_int in
  for b = 0 to t.cfg.num_blocks - 1 do
    if b <> t.open_block && not (List.mem b t.free_blocks) && t.valid.(b) < !best then begin
      victim := b;
      best := t.valid.(b)
    end
  done;
  if !victim < 0 then 0.0
  else begin
    let b = !victim in
    let moved = ref 0 in
    for p = 0 to t.cfg.pages_per_block - 1 do
      let ppn = (b * t.cfg.pages_per_block) + p in
      let lpn = t.rmap.(ppn) in
      if lpn >= 0 then begin
        (* Relocation may itself fill the open block mid-loop. *)
        if t.open_next >= t.cfg.pages_per_block then begin
          match t.free_blocks with
          | nb :: rest ->
            t.free_blocks <- rest;
            t.open_block <- nb;
            t.open_next <- 0
          | [] -> failwith "Ftl: out of space during GC"
        end;
        program t lpn;
        incr moved
      end
    done;
    t.valid.(b) <- 0;
    t.free_blocks <- t.free_blocks @ [ b ];
    Registry.incr t.erases;
    Registry.add t.gc_relocations !moved;
    (float_of_int !moved *. (t.cfg.read_us +. t.cfg.program_us)) +. t.cfg.erase_us
  end

let write t ~lpn =
  if lpn < 0 || lpn >= t.host_page_count then invalid_arg "Ftl.write: bad lpn";
  let latency = ref t.cfg.program_us in
  if t.open_next >= t.cfg.pages_per_block then begin
    (* Need a fresh open block; run GC until we are above the watermark. *)
    while List.length t.free_blocks <= t.cfg.gc_low_watermark do
      latency := !latency +. gc_once t
    done;
    match t.free_blocks with
    | nb :: rest ->
      t.free_blocks <- rest;
      t.open_block <- nb;
      t.open_next <- 0
    | [] -> failwith "Ftl: out of space"
  end;
  program t lpn;
  Registry.incr t.host_writes;
  !latency

let write_amplification t =
  let host = Registry.value t.host_writes in
  if host = 0 then 1.0 else float_of_int (Registry.value t.total_programs) /. float_of_int host

let register_telemetry ?(prefix = "ftl") t reg =
  let key name = prefix ^ "/" ^ name in
  List.iter
    (fun (name, c) -> Registry.attach_counter reg (key name) c)
    [
      ("host_writes", t.host_writes);
      ("total_programs", t.total_programs);
      ("erases", t.erases);
      ("gc_relocations", t.gc_relocations);
    ];
  Registry.derive_float reg (key "write_amplification") (fun () -> write_amplification t)
