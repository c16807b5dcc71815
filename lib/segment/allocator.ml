module Ptbl = Purity_util.Keytbl.Ipair

type t = {
  layout : Layout.t;
  drives : int;
  aus_per_drive : int;
  free : int Queue.t array; (* per-drive free AU indices *)
  used : unit Ptbl.t; (* (drive, au) holding live segments *)
  mutable frontier : Segment.member list;
      (* available allocation slots, oldest refill batch first *)
  mutable persisted : Segment.member list; (* snapshot as of last persist *)
  mutable speculative : Segment.member list; (* pre-approved next batch *)
  mutable generation : int;
  mutable rotation : int;
  mutable allocated_since_mark : Segment.member list;
      (* segments whose facts may postdate the last checkpoint; recovery
         must scan them, so they stay in the persisted set *)
}

(* AUs per drive each frontier refill makes allocatable. *)
let frontier_per_drive = 8

let create ~layout ~drives ~aus_per_drive () =
  let free = Array.init drives (fun _ -> Queue.create ()) in
  Array.iter
    (fun q ->
      for au = 0 to aus_per_drive - 1 do
        Queue.add au q
      done)
    free;
  {
    layout;
    drives;
    aus_per_drive;
    free;
    used = Ptbl.create 256;
    frontier = [];
    persisted = [];
    speculative = [];
    generation = 0;
    rotation = 0;
    allocated_since_mark = [];
  }

let take_batch t =
  (* Pull up to frontier_per_drive free AUs from every drive. *)
  let batch = ref [] in
  for d = 0 to t.drives - 1 do
    for _ = 1 to frontier_per_drive do
      match Queue.take_opt t.free.(d) with
      | Some au -> batch := { Segment.drive = d; au } :: !batch
      | None -> ()
    done
  done;
  !batch

(* Refill: promote the speculative set to the live frontier and draw a new
   speculative batch; both become the persisted snapshot. *)
let refill t =
  let promoted = match t.speculative with [] -> take_batch t | s -> s in
  let next_spec = take_batch t in
  let non_empty = function [] -> false | _ :: _ -> true in
  if non_empty promoted || non_empty next_spec then begin
    t.frontier <- t.frontier @ promoted;
    t.speculative <- next_spec;
    t.persisted <- t.allocated_since_mark @ t.frontier @ t.speculative;
    t.generation <- t.generation + 1
  end

let pop_member t ~drive =
  (* Remove the first frontier slot on [drive]; returns it. *)
  let rec go acc = function
    | [] -> None
    | (m : Segment.member) :: rest when m.Segment.drive = drive ->
      t.frontier <- List.rev_append acc rest;
      Some m
    | m :: rest -> go (m :: acc) rest
  in
  go [] t.frontier

let drives_with_frontier t ~online =
  let counts = Array.make t.drives 0 in
  List.iter
    (fun (m : Segment.member) -> counts.(m.Segment.drive) <- counts.(m.Segment.drive) + 1)
    t.frontier;
  let available = ref [] in
  for i = t.drives - 1 downto 0 do
    let d = (i + t.rotation) mod t.drives in
    if online d && counts.(d) > 0 then available := d :: !available
  done;
  !available

let allocate t ~online =
  let want = Layout.members t.layout in
  let attempt () =
    let candidates = drives_with_frontier t ~online in
    if List.length candidates < want then None
    else begin
      let chosen = List.filteri (fun i _ -> i < want) candidates in
      let members =
        List.map
          (fun d -> match pop_member t ~drive:d with Some m -> m | None -> assert false)
          chosen
      in
      t.rotation <- (t.rotation + 1) mod t.drives;
      let arr = Array.of_list members in
      Array.iter (fun (m : Segment.member) -> Ptbl.replace t.used (m.Segment.drive, m.Segment.au) ()) arr;
      t.allocated_since_mark <- members @ t.allocated_since_mark;
      Some arr
    end
  in
  match attempt () with
  | Some m -> Some m
  | None ->
    refill t;
    attempt ()

(* Reserve a single AU on any drive satisfying [allowed] (used to remap a
   segio member whose drive failed before the flush). *)
let allocate_one t ~allowed =
  let attempt () =
    match drives_with_frontier t ~online:allowed with
    | [] -> None
    | d :: _ ->
      let m = match pop_member t ~drive:d with Some m -> m | None -> assert false in
      Ptbl.replace t.used (m.Segment.drive, m.Segment.au) ();
      t.allocated_since_mark <- m :: t.allocated_since_mark;
      Some m
  in
  match attempt () with
  | Some m -> Some m
  | None ->
    refill t;
    attempt ()

let release t members =
  Array.iter
    (fun (m : Segment.member) ->
      Ptbl.remove t.used (m.Segment.drive, m.Segment.au);
      if m.Segment.drive >= 0 && m.Segment.drive < t.drives then
        Queue.add m.Segment.au t.free.(m.Segment.drive))
    members

let free_au_count t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.free
let used_au_count t = Ptbl.length t.used
let is_used t (m : Segment.member) = Ptbl.mem t.used (m.Segment.drive, m.Segment.au)
let persisted_frontier t = t.persisted
let persist_generation t = t.generation

(* Recovery (§4.3): one rebuild from the boot region's frontier set and
   the recovered segment table. The frontier is what was persisted minus
   what the table owns; the free queues hold every other AU, in AU order.
   [rescan] starts the scan set: it is the oldest allocation. *)
let recover t ~persisted ~used ~rescan =
  let inside (m : Segment.member) =
    m.Segment.drive >= 0 && m.Segment.drive < t.drives && m.Segment.au >= 0
    && m.Segment.au < t.aus_per_drive
  in
  let mark tbl (m : Segment.member) = Ptbl.replace tbl (m.Segment.drive, m.Segment.au) () in
  Ptbl.reset t.used;
  List.iter (mark t.used) (List.filter inside used);
  t.persisted <- Segment.distinct_members (List.filter inside persisted);
  t.frontier <- List.filter (fun m -> not (is_used t m)) t.persisted;
  t.speculative <- [];
  let taken = Ptbl.copy t.used in
  List.iter (mark taken) t.persisted;
  Array.iteri
    (fun drive q ->
      Queue.clear q;
      for au = 0 to t.aus_per_drive - 1 do
        if not (Ptbl.mem taken (drive, au)) then Queue.add au q
      done)
    t.free;
  t.allocated_since_mark <- Segment.distinct_members (List.filter inside rescan)

let allocated_count t = List.length t.allocated_since_mark

let checkpoint_mark t ~keep ~extra =
  (* A checkpoint has persisted every fact created before its cut point:
     segments allocated before the cut no longer need scanning. Entries
     are prepended on allocation, so the [keep] newest are the first
     [keep]; [extra] pins additional members (e.g. the still-open segio,
     which keeps receiving post-checkpoint log records). *)
  let kept = List.filteri (fun i _ -> i < keep) t.allocated_since_mark in
  (* [extra] (the open segio) is usually already among the kept
     allocations: deduplicate, or the persisted list would hand the same
     AU out twice after a recovery restores it as allocatable *)
  t.allocated_since_mark <- Segment.distinct_members (extra @ kept);
  t.persisted <- t.allocated_since_mark @ t.frontier @ t.speculative;
  t.generation <- t.generation + 1
