module Rng = Purity_util.Rng

type mode = Fast | Full

type fault =
  | Pull_drive of int
  | Reinsert_drive of int
  | Replace_drive of int
  | Corrupt_page of { drive : int; au_rank : int; page_rank : int }
      (* resolved at execution time: the [au_rank]-th currently-written AU
         of the drive, the [page_rank]-th written page inside it — keeps
         the event self-contained so trace shrinking stays deterministic *)
  | Lose_nvram
  | Crash of mode

type op =
  | Create_volume of { name : string; blocks : int }
  | Delete_volume of string
  | Resize_volume of { name : string; blocks : int }
  | Snapshot of { volume : string; snap : string }
  | Clone of { snapshot : string; volume : string }
  | Delete_snapshot of string
  | Write of { view : string; block : int; nblocks : int; wid : int }
  | Read of { view : string; block : int; nblocks : int }
  | Flush
  | Checkpoint
  | Gc
  | Scrub
  | Rebuild of int

type event = (op, fault) Suite.event

type t = { seed : int64; events : event list }

(* ---------- pretty-printing (failure reports) ---------- *)

let pp_mode ppf = function
  | Fast -> Format.fprintf ppf "fast"
  | Full -> Format.fprintf ppf "full"

let pp_fault ppf = function
  | Pull_drive d -> Format.fprintf ppf "pull drive %d" d
  | Reinsert_drive d -> Format.fprintf ppf "reinsert drive %d" d
  | Replace_drive d -> Format.fprintf ppf "replace drive %d" d
  | Corrupt_page { drive; au_rank; page_rank } ->
    Format.fprintf ppf "corrupt page (drive %d, au#%d, page#%d)" drive au_rank page_rank
  | Lose_nvram -> Format.fprintf ppf "lose NVRAM contents"
  | Crash mode -> Format.fprintf ppf "crash + failover (%a recovery)" pp_mode mode

let pp_op ppf = function
  | Create_volume { name; blocks } -> Format.fprintf ppf "create %s (%d blocks)" name blocks
  | Delete_volume name -> Format.fprintf ppf "delete volume %s" name
  | Resize_volume { name; blocks } -> Format.fprintf ppf "resize %s to %d blocks" name blocks
  | Snapshot { volume; snap } -> Format.fprintf ppf "snapshot %s of %s" snap volume
  | Clone { snapshot; volume } -> Format.fprintf ppf "clone %s from %s" volume snapshot
  | Delete_snapshot name -> Format.fprintf ppf "delete snapshot %s" name
  | Write { view; block; nblocks; wid } ->
    Format.fprintf ppf "write#%d %s[%d..%d]" wid view block (block + nblocks - 1)
  | Read { view; block; nblocks } ->
    Format.fprintf ppf "read %s[%d..%d]" view block (block + nblocks - 1)
  | Flush -> Format.fprintf ppf "flush"
  | Checkpoint -> Format.fprintf ppf "checkpoint"
  | Gc -> Format.fprintf ppf "gc"
  | Scrub -> Format.fprintf ppf "scrub"
  | Rebuild d -> Format.fprintf ppf "rebuild drive %d" d

let pp ppf { seed; events } =
  Format.fprintf ppf "@[<v>seed %Ld, %d events:@,%a@]" seed (List.length events)
    (Suite.pp_events pp_op pp_fault) events

(* ---------- generation ---------- *)

type gen_config = {
  steps : int;  (** generation rounds; most emit one event, recipes a few *)
  drives : int;
  fault_units : int;  (** the array's [m]: concurrent repairable faults *)
  vol_blocks : int;  (** nominal volume size in 512 B blocks *)
  io_blocks : int;  (** preferred write size in blocks *)
  max_views : int;  (** volumes + snapshots ceiling *)
  allow_nvram_loss : bool;
}

let default_gen =
  {
    steps = 60;
    drives = 7;
    fault_units = 2;
    vol_blocks = 512;
    io_blocks = 16;
    max_views = 6;
    allow_nvram_loss = true;
  }

(* Scheduled faults never exceed the erasure-code tolerance: concurrent
   pulled drives + replaced-but-not-rebuilt drives + outstanding injected
   corruptions stay <= fault_units, so every generated scenario is one the
   array is contractually able to survive. The runner re-checks the same
   budget at execution time (shrinking can reorder what survives). *)
let generate ?(cfg = default_gen) seed =
  let rng = Rng.create ~seed in
  let rev_events = ref [] in
  let emit e = rev_events := e :: !rev_events in
  let vol_ctr = ref 0 and snap_ctr = ref 0 and wid_ctr = ref 0 in
  let volumes = ref [] (* (name, blocks ref), writable *) in
  let snaps = ref [] (* (name, blocks) *) in
  let pulled = ref [] in
  let unrebuilt = ref [] in
  let corrupts = ref 0 in
  let budget_left () =
    cfg.fault_units - (List.length !pulled + List.length !unrebuilt + !corrupts)
  in
  let views () = List.length !volumes + List.length !snaps in
  let pick xs = List.nth xs (Rng.int rng (List.length xs)) in
  let fresh_wid () =
    incr wid_ctr;
    (* reusing an id reuses its bytes verbatim: the dedup path under test *)
    if !wid_ctr > 4 && Rng.int rng 10 = 0 then 1 + Rng.int rng !wid_ctr
    else !wid_ctr
  in
  let any_mode () = if Rng.bool rng then Fast else Full in
  let free_drive () =
    let busy = !pulled @ !unrebuilt in
    let d = Rng.int rng cfg.drives in
    if List.mem d busy then None else Some d
  in
  let new_volume () =
    let name = Printf.sprintf "v%d" !vol_ctr in
    incr vol_ctr;
    let blocks = cfg.vol_blocks / 2 * (1 + Rng.int rng 2) in
    volumes := (name, ref blocks) :: !volumes;
    emit (Suite.Op (Create_volume { name; blocks }))
  in
  let write_somewhere () =
    let name, blocks = pick !volumes in
    let nblocks =
      match Rng.int rng 8 with
      | 0 -> 1 + Rng.int rng cfg.io_blocks
      | 1 -> cfg.io_blocks * 2
      | _ -> cfg.io_blocks
    in
    let nblocks = min nblocks !blocks in
    let block = Rng.int rng (!blocks - nblocks + 1) in
    emit (Suite.Op (Write { view = name; block; nblocks; wid = fresh_wid () }))
  in
  let read_somewhere () =
    let all = List.map (fun (n, b) -> (n, !b)) !volumes @ !snaps in
    let name, blocks = pick all in
    let nblocks = min cfg.io_blocks blocks in
    let block = Rng.int rng (blocks - nblocks + 1) in
    emit (Suite.Op (Read { view = name; block; nblocks }))
  in
  new_volume ();
  for _ = 1 to 4 do
    write_somewhere ()
  done;
  for _ = 1 to cfg.steps do
    match Rng.int rng 100 with
    | n when n < 34 -> write_somewhere ()
    | n when n < 54 -> read_somewhere ()
    | n when n < 60 -> (
      (* crash recipe; sometimes with NVRAM content loss first, in which
         case a flush bounds the exposure to the recipe's own writes *)
      let lose = cfg.allow_nvram_loss && Rng.int rng 3 = 0 in
      if lose then begin
        emit (Suite.Op Flush);
        emit (Suite.Fault Lose_nvram)
      end;
      for _ = 1 to Rng.int rng 4 do
        write_somewhere ()
      done;
      match Rng.int rng 4 with
      | 0 ->
        (* mid-maintenance crash: armed just before a GC or checkpoint *)
        emit
          (Suite.Timed
             { delay_us = 200.0 +. Rng.float rng 3000.0; fault = Crash (any_mode ()) });
        emit (Suite.Op (if Rng.bool rng then Gc else Checkpoint))
      | _ -> emit (Suite.Fault (Crash (any_mode ()))))
    | n when n < 68 -> (
      (* drive pull / reinsert *)
      match !pulled with
      | d :: rest when List.length !pulled >= 2 || Rng.bool rng ->
        emit (Suite.Fault (Reinsert_drive d));
        pulled := rest
      | _ when budget_left () > 0 -> (
        match free_drive () with
        | Some d ->
          emit (Suite.Fault (Pull_drive d));
          pulled := d :: !pulled
        | None -> read_somewhere ())
      | _ -> read_somewhere ())
    | n when n < 73 && budget_left () > 0 -> (
      (* replace + rebuild recipe, optionally faulted mid-rebuild *)
      match free_drive () with
      | None -> read_somewhere ()
      | Some d ->
        emit (Suite.Fault (Replace_drive d));
        unrebuilt := d :: !unrebuilt;
        for _ = 1 to Rng.int rng 3 do
          write_somewhere ()
        done;
        (match Rng.int rng 4 with
        | 0 when budget_left () > 0 -> (
          (* a second drive drops out in the middle of the rebuild *)
          match free_drive () with
          | Some d2 ->
            emit
              (Suite.Timed
                 { delay_us = 500.0 +. Rng.float rng 5000.0; fault = Pull_drive d2 });
            pulled := d2 :: !pulled
          | None -> ())
        | 1 ->
          (* controller dies mid-rebuild; the runner finishes the rebuild
             after failover before anything is audited *)
          emit
            (Suite.Timed
               { delay_us = 500.0 +. Rng.float rng 5000.0; fault = Crash (any_mode ()) })
        | _ -> ());
        emit (Suite.Op (Rebuild d));
        unrebuilt := List.filter (( <> ) d) !unrebuilt)
    | n when n < 79 && budget_left () > 0 ->
      (* latent corruption, read back degraded, then scrubbed away *)
      let count = min (1 + Rng.int rng 2) (budget_left ()) in
      for _ = 1 to count do
        emit
          (Fault
             (Corrupt_page
                {
                  drive = Rng.int rng cfg.drives;
                  au_rank = Rng.int rng 64;
                  page_rank = Rng.int rng 64;
                }));
        incr corrupts
      done;
      for _ = 1 to 2 do
        read_somewhere ()
      done;
      emit (Suite.Op Scrub);
      corrupts := 0
    | n when n < 85 ->
      (* namespace churn *)
      if views () < cfg.max_views then begin
        match Rng.int rng 4 with
        | 0 -> new_volume ()
        | 1 ->
          let volume, blocks = pick !volumes in
          let snap = Printf.sprintf "s%d" !snap_ctr in
          incr snap_ctr;
          snaps := (snap, !blocks) :: !snaps;
          emit (Suite.Op (Snapshot { volume; snap }))
        | 2 when !snaps <> [] ->
          let snapshot, blocks = pick !snaps in
          let volume = Printf.sprintf "v%d" !vol_ctr in
          incr vol_ctr;
          volumes := (volume, ref blocks) :: !volumes;
          emit (Suite.Op (Clone { snapshot; volume }))
        | _ ->
          let name, blocks = pick !volumes in
          let blocks' = !blocks + (cfg.io_blocks * (1 + Rng.int rng 4)) in
          blocks := blocks';
          emit (Suite.Op (Resize_volume { name; blocks = blocks' }))
      end
      else begin
        (* prune: delete a snapshot or a surplus volume *)
        match (!snaps, !volumes) with
        | (s, _) :: rest, _ when Rng.bool rng ->
          snaps := rest;
          emit (Suite.Op (Delete_snapshot s))
        | _, (v, _) :: rest when List.length !volumes > 1 ->
          volumes := rest;
          emit (Suite.Op (Delete_volume v))
        | _ -> read_somewhere ()
      end
    | n when n < 91 -> emit (Suite.Op Gc)
    | n when n < 95 -> emit (Suite.Op Checkpoint)
    | n when n < 98 -> emit (Suite.Op Flush)
    | _ -> emit (Suite.Op Scrub)
  done;
  (* close out: reinsert surviving pulls so the final audit runs at full
     redundancy headroom (the runner independently finishes rebuilds) *)
  List.iter (fun d -> emit (Suite.Fault (Reinsert_drive d))) !pulled;
  { seed; events = List.rev !rev_events }
