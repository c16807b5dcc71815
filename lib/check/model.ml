(* Reference model for the durability contract, in both torture suites.

   The model shadows the array's logical state — volumes, snapshots,
   clones, and the bytes behind every block — precisely enough to decide,
   for any read the array serves, whether the bytes are ones the history
   permits, and to predict the one outcome every I/O and namespace op
   must get ([predict], [predict_op]).

   Crash uncertainty is the interesting part. An acknowledged write must
   survive a controller crash (NVRAM replay), so a plain crash loses the
   model nothing. NVRAM content loss is different: writes acked since
   their data last reached flushed segments were depending on the lost
   records, so a *subsequent* crash may legitimately revert them. Each
   block is therefore a [cell] carrying its pre-write lineage:

   - [durable]: persisted under a completed flush/checkpoint barrier —
     immune to both crash and NVRAM loss;
   - [fragile]: its NVRAM record was lost while not yet durable — the
     next crash may revert it;
   - [maybe]: a crash (or a torn write) actually made it ambiguous — a
     read may return this value or anything down the [parent] chain, and
     the first read to observe the block collapses the ambiguity.

   Cells are shared by reference between a volume and its snapshots and
   clones, so a collapse observed through one view constrains the others
   — which is also what makes "snapshots stay frozen" checkable: once a
   snapshot block collapses, any later disagreement is a violation. The
   stretched pod's two arrays share cells the same way ({!Ac_model}). *)

type cell = {
  mutable v : Payload.token;
  mutable durable : bool;
  mutable fragile : bool;
  mutable maybe : bool;
  mutable parent : cell option;
}

type kind = [ `Volume | `Snapshot ]

type view = {
  kind : kind;
  mutable cells : cell array;
  mutable ns_fragile : bool;
      (* a namespace fact of this view (creation, resize, lineage) was in
         NVRAM records that got lost: the next crash may undo it *)
  mutable ns_durable : bool;
  mutable size_floor : int;  (* size at the last completed barrier *)
}

type tombstone = {
  t_view : view;
  mutable t_fragile : bool;  (* the delete record itself was lost *)
}

type t = {
  payloads : Payload.t;
  views : (string, view) Hashtbl.t;
  tombs : (string, tombstone) Hashtbl.t;
  zero_cell : cell;
  mutable acked_writes : int;  (* Ok-acked app writes since last failover *)
}

let create payloads =
  {
    payloads;
    views = Hashtbl.create 16;
    tombs = Hashtbl.create 16;
    zero_cell =
      { v = Payload.Zero; durable = true; fragile = false; maybe = false; parent = None };
    acked_writes = 0;
  }

(* ---------- namespace ---------- *)

let find t name = Hashtbl.find_opt t.views name
let exists t name = Hashtbl.mem t.views name

let listing t =
  Hashtbl.fold
    (fun name v acc -> (name, v.kind, Array.length v.cells) :: acc)
    t.views []
  |> List.sort compare

(* The one outcome an I/O to [view]'s range must get: [`Ok], or the
   error that names what is wrong with the request. *)
let predict t ~write ~view ~block ~nblocks =
  match find t view with
  | None -> `No_such_volume
  | Some { kind = `Snapshot; _ } when write -> `Read_only
  | Some v -> if block < 0 || block + nblocks > Array.length v.cells then `Out_of_range else `Ok

(* A namespace op needs [name] to be a [want]: the error the array
   names when it is missing or the other kind. *)
let need t want name =
  match find t name with
  | None -> `No_such_volume
  | Some v when v.kind = want -> `Ok
  | Some { kind = `Snapshot; _ } -> `Is_snapshot
  | Some { kind = `Volume; _ } -> `Is_volume

let fresh t name = if exists t name then `Exists else `Ok
let ( &&& ) a b = if a = `Ok then b else a

(* The one outcome a plan op must get, in the order the array checks
   its preconditions. *)
let predict_op t : Plan.op -> _ = function
  | Create_volume { name; blocks } ->
    fresh t name &&& if blocks <= 0 then `Out_of_range else `Ok
  | Delete_volume name -> need t `Volume name
  | Delete_snapshot name -> need t `Snapshot name
  | Resize_volume { name; blocks } -> (
    match find t name with
    | Some v when v.kind = `Volume && blocks < Array.length v.cells -> `Shrink
    | _ -> need t `Volume name)
  | Snapshot { volume; snap } -> need t `Volume volume &&& fresh t snap
  | Clone { snapshot; volume } -> need t `Snapshot snapshot &&& fresh t volume
  | Write { view; block; nblocks; _ } -> predict t ~write:true ~view ~block ~nblocks
  | Read { view; block; nblocks } -> predict t ~write:false ~view ~block ~nblocks
  | Flush | Checkpoint | Gc | Scrub | Rebuild _ -> `Ok

let add_view t name kind cells =
  Hashtbl.replace t.views name
    { kind; cells; ns_fragile = false; ns_durable = false; size_floor = Array.length cells }

let create_volume t name ~blocks = add_view t name `Volume (Array.make blocks t.zero_cell)

let delete t name =
  match Hashtbl.find_opt t.views name with
  | None -> ()
  | Some v ->
    Hashtbl.remove t.views name;
    Hashtbl.replace t.tombs name { t_view = v; t_fragile = false }

let resize_volume t name ~blocks =
  match find t name with
  | None -> ()
  | Some v ->
    let old = Array.length v.cells in
    if blocks > old then begin
      let cells = Array.make blocks t.zero_cell in
      Array.blit v.cells 0 cells 0 old;
      v.cells <- cells
    end

let snapshot t ~volume ~snap =
  Option.iter (fun v -> add_view t snap `Snapshot (Array.copy v.cells)) (find t volume)

let clone t ~snapshot ~volume =
  Option.iter (fun s -> add_view t volume `Volume (Array.copy s.cells)) (find t snapshot)

(* ---------- data ---------- *)

(* A write the array acked, or one whose outcome is unknown ([acked] is
   false); a no-op unless the request is well formed. *)
let write t ~view ~block ~wid ~nblocks ~acked =
  match find t view with
  | Some v when predict t ~write:true ~view ~block ~nblocks = `Ok ->
    if acked then t.acked_writes <- t.acked_writes + 1;
    for j = 0 to nblocks - 1 do
      let old = v.cells.(block + j) in
      v.cells.(block + j) <-
        {
          v = Payload.Data { wid; idx = j };
          durable = false;
          fragile = false;
          (* an unacked outcome (controller died mid-write, or the write
             tore on allocation failure) is ambiguous from the start *)
          maybe = not acked;
          parent = Some old;
        }
    done
  | _ -> ()

(* [into]'s cells over the range become [from]'s: the two views now hold
   the same cells, so the first read through either collapses both. *)
let share t ~from ~into ~block ~nblocks =
  match (find t from, find t into) with
  | Some f, Some i -> Array.blit f.cells block i.cells block nblocks
  | _ -> ()

let candidates cell =
  let rec go c acc =
    let acc = c.v :: acc in
    if c.maybe then
      match c.parent with
      | Some p -> go p acc
      | None -> Payload.Zero :: acc (* defensive: accept the empty history *)
    else acc
  in
  List.rev (go cell [])

let check_read t ~view ~block ~nblocks data =
  match find t view with
  | None -> Error (Printf.sprintf "read of unknown view %s returned data" view)
  | Some v ->
    let label = Printf.sprintf "%s[%d..%d]" view block (block + nblocks - 1) in
    Payload.check_blocks t.payloads ~label ~nblocks data (fun j got ->
        let cell = v.cells.(block + j) in
        let cands = candidates cell in
        match List.find_opt (fun c -> Payload.render t.payloads c = got) cands with
        | Some c ->
          (* observation collapses the ambiguity — for every view
             sharing this cell, including frozen snapshots *)
          cell.v <- c;
          cell.maybe <- false;
          Ok ()
        | None ->
          Error
            (Printf.sprintf "%s[%d]: expected %s, got %s" view (block + j)
               (String.concat " or " (List.map Payload.describe_token cands))
               (Payload.describe_bytes t.payloads got)))

(* ---------- fault transitions ---------- *)

let iter_cells t f =
  let seen_view v = Array.iter f v.cells in
  Hashtbl.iter (fun _ v -> seen_view v) t.views;
  Hashtbl.iter (fun _ tb -> seen_view tb.t_view) t.tombs

let nvram_lost t =
  iter_cells t (fun c -> if not c.durable then c.fragile <- true);
  Hashtbl.iter
    (fun _ v -> if not v.ns_durable then v.ns_fragile <- true)
    t.views;
  Hashtbl.iter (fun _ tb -> tb.t_fragile <- true) t.tombs

let crashed t =
  iter_cells t (fun c ->
      if c.fragile then begin
        c.fragile <- false;
        c.maybe <- true
      end)

(* A flush or checkpoint completed with the controller up: everything the
   model has seen is now in flushed segments, beyond the reach of both
   crash and NVRAM loss (a barrier covers the writes acked before its
   call, and the runner awaits each op before issuing the next). Past
   crashes' ambiguity persists: the array's current value is durable, but
   we don't know which candidate it is until a read tells us. *)
let stabilized t =
  iter_cells t (fun c ->
      c.durable <- true;
      c.fragile <- false;
      if not c.maybe then c.parent <- None);
  Hashtbl.iter
    (fun _ v ->
      v.ns_durable <- true;
      v.ns_fragile <- false;
      v.size_floor <- Array.length v.cells)
    t.views;
  Hashtbl.reset t.tombs

let failed_over t = t.acked_writes <- 0

(* Post-failover reconciliation: the array's volume listing is ground
   truth for everything the model holds only uncertainly. Certain state
   must match exactly — a missing volume, a resurrected one, or a size
   the history cannot produce is a violation. *)
let reconcile t arr_listing =
  failed_over t;
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (name, akind, ablocks) ->
      Hashtbl.replace seen name ();
      match Hashtbl.find_opt t.views name with
      | Some v ->
        if v.kind <> akind then
          fail (Printf.sprintf "%s changed kind across failover" name)
        else begin
          let len = Array.length v.cells in
          if ablocks = len then ()
          else if v.ns_fragile && ablocks >= v.size_floor && ablocks < len then
            (* a fragile resize was lost with the NVRAM records: accept
               the reverted size and forget the truncated tail *)
            v.cells <- Array.sub v.cells 0 ablocks
          else
            fail
              (Printf.sprintf "%s is %d blocks after failover, model has %d (floor %d)"
                 name ablocks len v.size_floor);
          (* it survived this crash; recovery re-logged its facts, so it
             is crash-safe again until the next NVRAM loss *)
          v.ns_fragile <- false
        end
      | None -> (
        match Hashtbl.find_opt t.tombs name with
        | Some tb when tb.t_fragile ->
          (* the delete itself was lost: the view legitimately returns,
             with every non-durable block back in doubt *)
          Array.iter
            (fun c -> if not c.durable then c.maybe <- true)
            tb.t_view.cells;
          tb.t_view.ns_fragile <- false;
          Hashtbl.remove t.tombs name;
          Hashtbl.replace t.views name tb.t_view
        | Some _ -> fail (Printf.sprintf "deleted view %s resurrected by failover" name)
        | None -> fail (Printf.sprintf "failover invented view %s" name)))
    arr_listing;
  Hashtbl.iter
    (fun name (v : view) ->
      if not (Hashtbl.mem seen name) then
        if v.ns_fragile then Hashtbl.remove t.views name
        else fail (Printf.sprintf "view %s lost by failover" name))
    (Hashtbl.copy t.views);
  Hashtbl.reset t.tombs;
  match !err with Some msg -> Error msg | None -> Ok ()

let acked_writes t = t.acked_writes
