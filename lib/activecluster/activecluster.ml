(* ActiveCluster-style synchronous active-active replication.

   Two simulated arrays serve the *same* stretched volumes symmetrically
   (§1, §6: "highly available enterprise storage" beyond async snapshot
   shipping). A host write lands on either side, is applied locally and
   mirrored synchronously over the interconnect, and is acknowledged
   only when both copies are durable. When the link or an array dies,
   the survivor races to the third-party mediator; the winner keeps the
   pod and continues solo while the loser fences, and a later failback
   resynchronises the diverged blocks and returns the pod to symmetric
   service. In-flight I/O fails over transparently: a write caught by a
   partition is re-driven on whichever side won mediation, and the host
   sees one ack.

   Ordering. Concurrent writes to the same block from opposite sides are
   serialized by a per-block last-writer-wins stamp (a Lamport counter
   tagged with the side bit, merged on every mirror receive): exactly
   one of the racing writes wins on *both* arrays, so either
   serialization can be observed but divergence cannot. The purity.check
   two-array model (Ac_model) encodes exactly that contract.

   Fencing generations. Every role change (solo, freeze, down,
   failback) goes through [enter], the only writer of [status] and
   [gen], and bumps [gen]; mirror messages and acks carry the generation
   they were sent under and are dropped on arrival if stale. This is
   what makes a delayed mirror from before a failover harmless after the
   failback resync has already reconciled the block.

   Convergence bookkeeping. One pod-level [dirty] book, a set of write
   footprints (a rewritten footprint is held once, so the book is bounded
   by what was written, not how often), forces eventual agreement: a
   solo winner's writes, and every footprint whose outcome the host
   never learned (in flight at a role change, failed locally, caught by
   a failback) go in it; a double crash also sets [full_resync].
   Failback copies the book's blocks (and, after a double crash, every
   live block) from the surviving side over the rejoining side before
   lifting the fence. In the real system the loser ships its own
   divergent-LBA log during the failback handshake; here one harness
   structure carries the same information without the wire format. *)

module Clock = Purity_sim.Clock
module Fa = Purity_core.Flash_array
module State = Purity_core.State
module Delta = Purity_replication.Replication.Delta
module Registry = Purity_telemetry.Registry

type side = Mediator.side = A | B

let other = Mediator.other
let side_name = Mediator.side_name
let side_bit = function A -> 0 | B -> 1

type status = Sync | Solo of side | Frozen | Down

let status_name = function
  | Sync -> "sync"
  | Solo s -> "solo-" ^ side_name s
  | Frozen -> "frozen"
  | Down -> "down"

(* Per-attempt wait for the peer's mirror ack, retransmits before
   suspecting a partition, and blocks per failback transfer. *)
let mirror_timeout_us = 1_500.0
let mirror_retries = 2
let resync_run = 64

(* Planted-bug hooks for the checker's self-tests: each one breaks the
   contract in a way the two-array reference model must catch. *)
type chaos = {
  mutable skip_resync : bool;
      (** failback "forgets" to copy solo-era writes: divergence *)
  mutable ack_without_peer : bool;
      (** ack the host on local persist alone: a lost ack on failover *)
}

let chaos = { skip_resync = false; ack_without_peer = false }

type io_error =
  [ `Unavailable  (** fenced/frozen/offline beyond what failover can hide *)
  | `No_such_volume
  | `Out_of_range
  | `Unaligned
  | `No_space
  | `Backpressure ]

type counters = {
  mirror_writes : Registry.counter;
  mirror_acked : Registry.counter;
  mirror_timeouts : Registry.counter;
  mirror_stale_drops : Registry.counter;
  mediation_requests : Registry.counter;
  mediation_grants : Registry.counter;
  mediation_denials : Registry.counter;
  mediation_unreachable : Registry.counter;
  solo_writes : Registry.counter;
  redirects : Registry.counter;  (** front-door I/O moved to the other side *)
  fences : Registry.counter;
  resyncs : Registry.counter;
  resync_blocks : Registry.counter;
}

type node = {
  arr : Fa.t;
  mutable counter : int;  (* Lamport counter; monotone for the pod's life *)
  stamps : (string, int array) Hashtbl.t;  (* volume -> per-block LWW stamp *)
}

type t = {
  clock : Clock.t;
  a : node;
  b : node;
  link : Link.t;
  med : Mediator.t;
  mutable status : status;
  mutable gen : int;
  mutable vols : (string * int) list;  (* stretched volumes, name-sorted *)
  mutable inflight : (string * int * int) list;  (* un-acked write footprints *)
  dirty : (string * int * int, unit) Hashtbl.t;  (* footprints failback must copy *)
  mutable full_resync : bool;
  mutable mediating : bool;
  mutable med_waiters : (unit -> unit) list;
  c : counters;
}

let node t = function A -> t.a | B -> t.b

let new_counters () =
  let c = Registry.cell in
  {
    mirror_writes = c (); mirror_acked = c (); mirror_timeouts = c ();
    mirror_stale_drops = c (); mediation_requests = c (); mediation_grants = c ();
    mediation_denials = c (); mediation_unreachable = c (); solo_writes = c ();
    redirects = c (); fences = c (); resyncs = c (); resync_blocks = c ();
  }

(* The pod owns its counter cells, like the async replicator: a failover
   hands an array a fresh registry, and re-attaching after recovery
   re-joins the pod's counters to it. Registered on both sides so either
   array's phone-home stream carries them. *)
let register_telemetry t =
  let c = t.c and l = t.link in
  let cells =
    [
      ("mirror_writes", c.mirror_writes);
      ("mirror_acked", c.mirror_acked);
      ("mirror_timeouts", c.mirror_timeouts);
      ("mirror_stale_drops", c.mirror_stale_drops);
      ("mediation_requests", c.mediation_requests);
      ("mediation_grants", c.mediation_grants);
      ("mediation_denials", c.mediation_denials);
      ("mediation_unreachable", c.mediation_unreachable);
      ("solo_writes", c.solo_writes);
      ("redirects", c.redirects);
      ("fences", c.fences);
      ("resyncs", c.resyncs);
      ("resync_blocks", c.resync_blocks);
      ("link_sent", l.Link.sent);
      ("link_delivered", l.Link.delivered);
    ]
  in
  let on reg =
    List.iter
      (fun (name, cell) -> Registry.attach_counter reg ("activecluster/" ^ name) cell)
      cells;
    Registry.derive_int reg "activecluster/link_dropped" (fun () ->
        Registry.value l.Link.dropped_loss + Registry.value l.Link.dropped_cut)
  in
  on (Fa.telemetry t.a.arr);
  on (Fa.telemetry t.b.arr)

let create ~a ~b () =
  if Fa.clock a != Fa.clock b then
    invalid_arg "Activecluster.create: arrays must share one clock";
  let clock = Fa.clock a in
  let mknode arr = { arr; counter = 0; stamps = Hashtbl.create 8 } in
  let t =
    {
      clock;
      a = mknode a;
      b = mknode b;
      link = Link.create ~clock ();
      med = Mediator.create ~clock ();
      status = Sync;
      gen = 0;
      vols = [];
      inflight = [];
      dirty = Hashtbl.create 16;
      full_resync = false;
      mediating = false;
      med_waiters = [];
      c = new_counters ();
    }
  in
  register_telemetry t;
  t

let array t s = (node t s).arr
let link t = t.link
let mediator t = t.med
let status t = t.status
let counters t = t.c
let stretched t = t.vols

let respond t r k = Clock.schedule t.clock ~delay:0.0 (fun () -> k r)

(* ---------- stretched volumes ---------- *)

let create_stretched t name ~blocks : (unit, [ Fa.vol_error | `Out_of_range ]) result =
  if t.status <> Sync then Error `Busy
  else if List.mem_assoc name t.vols then Error `Exists
  else
    match Fa.create_volume t.a.arr name ~blocks with
    | Error _ as e -> e
    | Ok () -> (
      match Fa.create_volume t.b.arr name ~blocks with
      | Error _ as e ->
        (* B refused: take the volume back off A, or it would live on one
           side only, outside the pod's list. A delete refused as [`Busy]
           (NVRAM full) leaves it there. *)
        ignore (Fa.delete_volume t.a.arr name : (unit, Fa.vol_error) result);
        e
      | Ok () ->
        t.vols <- List.sort compare ((name, blocks) :: t.vols);
        List.iter (fun n -> Hashtbl.replace n.stamps name (Array.make blocks 0)) [ t.a; t.b ];
        Ok ())

(* ---------- convergence bookkeeping ---------- *)

let mark_dirty t entry = Hashtbl.replace t.dirty entry ()

let set_stamps n volume block nblocks stamp =
  match Hashtbl.find_opt n.stamps volume with
  | None -> ()
  | Some s ->
    let hi = min (Array.length s) (block + nblocks) in
    for b = max 0 block to hi - 1 do
      if stamp > s.(b) then s.(b) <- stamp
    done

let remove_one_inflight t entry =
  let rec go = function
    | [] -> []
    | e :: rest -> if e = entry then rest else e :: go rest
  in
  t.inflight <- go t.inflight

(* An array that can take front-door I/O. *)
let serves t s =
  let n = node t s in
  Fa.is_online n.arr && not (Fa.is_fenced n.arr)

(* ---------- role transitions ---------- *)

let fence_side t s =
  let n = node t s in
  if not (Fa.is_fenced n.arr) then begin
    Fa.fence n.arr;
    Registry.incr t.c.fences
  end

(* The only writer of [status] and [gen]. Every role change bumps the
   generation, stranding mirrors and acks sent under the old role. A
   solo winner fences the loser; a double crash forces a full resync.
   Leaving [Sync] makes every in-flight footprint dirty: its outcome
   may never reach the host, so failback must make both sides agree on
   it. *)
let enter t status =
  t.status <- status;
  t.gen <- t.gen + 1;
  (match status with
  | Solo winner -> fence_side t (other winner)
  | Down -> t.full_resync <- true
  | Sync | Frozen -> ());
  if status <> Sync then List.iter (mark_dirty t) t.inflight

(* Act on a mediation verdict for [side]'s request. [may_act] says
   whether the pod's role, when the verdict arrives, still lets a grant
   or denial decide it; a denial means the peer holds the pod (it raced
   first, or holds a stale claim from an earlier partition), and serving
   against it could lose its solo-era writes. An unreachable mediator
   freezes only a pod still in sync. *)
let verdict t side ~may_act outcome =
  match outcome with
  | `Granted ->
    Registry.incr t.c.mediation_grants;
    if may_act t.status then enter t (Solo side)
  | `Denied ->
    Registry.incr t.c.mediation_denials;
    if may_act t.status then enter t (Solo (other side))
  | `Unreachable ->
    Registry.incr t.c.mediation_unreachable;
    if t.status = Sync then enter t Frozen

(* One mediation race at a time; callers park a continuation that runs
   once the race resolves (or immediately if the role already changed —
   e.g. a second write timing out while the first one's race is won). *)
let mediate t origin waiter =
  if t.status <> Sync then Clock.schedule t.clock ~delay:0.0 waiter
  else begin
    t.med_waiters <- waiter :: t.med_waiters;
    if not t.mediating then begin
      t.mediating <- true;
      Registry.incr t.c.mediation_requests;
      Mediator.request t.med origin (fun outcome ->
          t.mediating <- false;
          verdict t origin ~may_act:(fun st -> st = Sync) outcome;
          let ws = t.med_waiters in
          t.med_waiters <- [];
          List.iter (fun w -> w ()) ws)
    end
  end

(* ---------- mirror receive ---------- *)

(* Apply a mirror message at [dst]: merge the Lamport counter, apply the
   blocks this stamp wins (last-writer-wins per block), ack when every
   winning block is durable. A stale generation, a fence, or a dead
   array produces silence — the origin's timeout machinery owns the
   outcome. A half-applied mirror (local write error) is also silence:
   it must look like loss so the origin retries or mediates. *)
let deliver_mirror t dst ~gen ~stamp ~volume ~block ~data ~ack =
  let n = node t dst in
  if gen <> t.gen then Registry.incr t.c.mirror_stale_drops
  else if not (serves t dst) then ()
  else begin
    n.counter <- max n.counter (stamp lsr 1);
    let bs = Fa.block_size in
    let nblocks = String.length data / bs in
    let wins =
      match Hashtbl.find_opt n.stamps volume with
      | None -> []
      | Some st ->
        let acc = ref [] in
        for j = nblocks - 1 downto 0 do
          let b = block + j in
          if b < Array.length st && stamp > st.(b) then acc := b :: !acc
        done;
        !acc
    in
    match Delta.runs_of wins ~max_run:(max nblocks 1) with
    | [] -> ack ()
    | runs ->
      let pending = ref (List.length runs) in
      let applied_ok = ref true in
      List.iter
        (fun (start, len) ->
          let slice = String.sub data ((start - block) * bs) (len * bs) in
          Fa.write n.arr ~volume ~block:start slice (fun r ->
              (match r with
              | Ok () -> set_stamps n volume start len stamp
              | Error _ -> applied_ok := false);
              decr pending;
              if !pending = 0 && !applied_ok then ack ()))
        runs
  end

(* ---------- write path ---------- *)

let map_write_error (e : Fa.write_error) : io_error =
  match e with
  | `No_such_volume -> `No_such_volume
  | `Out_of_range -> `Out_of_range
  | `Unaligned -> `Unaligned
  | `No_space -> `No_space
  | `Backpressure -> `Backpressure
  | `Read_only | `Offline | `Fenced -> `Unavailable

(* The side a [Sync] pod serves [prefer]'s I/O on: [prefer] itself
   unless it cannot serve. *)
let sync_side t prefer =
  if serves t prefer then prefer
  else begin
    Registry.incr t.c.redirects;
    other prefer
  end

let solo_write t s ~volume ~block data k =
  if not (serves t s) then respond t (Error `Unavailable) k
  else begin
    Registry.incr t.c.solo_writes;
    (* dirty before issue: even an un-acked outcome must converge later *)
    mark_dirty t (volume, block, String.length data / Fa.block_size);
    Fa.write (node t s).arr ~volume ~block data (function
      | Ok () -> k (Ok ())
      | Error e -> k (Error (map_write_error e)))
  end

let rec write t ?(prefer = A) ~volume ~block data k =
  match t.status with
  | Down | Frozen -> respond t (Error `Unavailable) k
  | Solo s ->
    if s <> prefer then Registry.incr t.c.redirects;
    solo_write t s ~volume ~block data k
  | Sync -> sync_write t (sync_side t prefer) ~volume ~block data k

and sync_write t origin ~volume ~block data k =
  let n = node t origin in
  if not (serves t origin) then respond t (Error `Unavailable) k
  else begin
    let nblocks = String.length data / Fa.block_size in
    let gen = t.gen in
    n.counter <- n.counter + 1;
    let stamp = (n.counter lsl 1) lor side_bit origin in
    set_stamps n volume block nblocks stamp;
    let entry = (volume, block, nblocks) in
    t.inflight <- entry :: t.inflight;
    let finished = ref false in
    let local_result : (unit, Fa.write_error) result option ref = ref None in
    let peer_acked = ref false in
    let finish_ok () =
      finished := true;
      remove_one_inflight t entry;
      (match t.status with Solo s when s = origin -> mark_dirty t entry | _ -> ());
      k (Ok ())
    in
    let finish_err e =
      finished := true;
      remove_one_inflight t entry;
      (* the local copy (or the mirror) may or may not have applied —
         never ack, and force later convergence *)
      mark_dirty t entry;
      k (Error e)
    in
    let maybe_complete () =
      if not !finished then
        match (t.status, !local_result) with
        | _, Some (Error e) -> finish_err (map_write_error e)
        | Solo s, Some (Ok ()) when s = origin ->
          (* the race resolved in our favour mid-write: the pod acks on
             the local persist alone now *)
          finish_ok ()
        | _, Some (Ok ()) when !peer_acked -> finish_ok ()
        | _, Some (Ok ()) when chaos.ack_without_peer ->
          (* planted bug: the host hears Ok before the mirror landed *)
          finish_ok ()
        | _ -> ()
    in
    (* after the mediation race (or any role change observed at a
       timeout) resolves: continue solo, fail over to the winner
       transparently, or surface the freeze *)
    let redispatch () =
      if not !finished then
        match t.status with
        | Solo s when s = origin ->
          mark_dirty t entry;
          maybe_complete ()
        | Solo s ->
          (* we lost and are fenced: re-drive the same write on the
             winner; its ack is the host's ack *)
          finished := true;
          remove_one_inflight t entry;
          Registry.incr t.c.redirects;
          write t ~prefer:s ~volume ~block data k
        | Frozen | Down | Sync -> finish_err `Unavailable
    in
    (* local leg *)
    Fa.write n.arr ~volume ~block data (fun r ->
        local_result := Some r;
        maybe_complete ());
    (* mirror leg, with retransmits and a partition verdict *)
    let rec attempt tries =
      if (not !finished) && not !peer_acked then begin
        Registry.incr t.c.mirror_writes;
        Link.send t.link (fun () ->
            deliver_mirror t (other origin) ~gen ~stamp ~volume ~block ~data
              ~ack:(fun () ->
                Link.send t.link (fun () ->
                    if t.gen = gen && not !peer_acked then begin
                      peer_acked := true;
                      Registry.incr t.c.mirror_acked;
                      maybe_complete ()
                    end)));
        Clock.schedule t.clock ~delay:mirror_timeout_us (fun () ->
            if (not !peer_acked) && not !finished then begin
              if t.status = Sync && t.gen = gen then begin
                if tries < mirror_retries then attempt (tries + 1)
                else begin
                  Registry.incr t.c.mirror_timeouts;
                  mediate t origin redispatch
                end
              end
              else
                (* someone else changed the pod's role while we waited *)
                redispatch ()
            end)
      end
    in
    attempt 0
  end

(* ---------- read path ---------- *)

let map_read_error (e : Fa.read_error) : io_error =
  match e with
  | `No_such_volume -> `No_such_volume
  | `Out_of_range -> `Out_of_range
  | `Offline | `Fenced | `Media_failure -> `Unavailable

(* The Ok carries the side that actually served the bytes: callers that
   shadow per-side observations (the checker's two-array model) need the
   true attribution when a preferred-side read was transparently
   redirected. *)
let read t ?(prefer = A) ~volume ~block ~nblocks k =
  let from s k' =
    Fa.read (node t s).arr ~volume ~block ~nblocks (function
      | Ok data -> k (Ok (data, s))
      | Error e -> k' e)
  in
  let fail e = k (Error (map_read_error e)) in
  match t.status with
  | Down | Frozen -> respond t (Error `Unavailable) k
  | Solo s ->
    if s <> prefer then Registry.incr t.c.redirects;
    if not (serves t s) then respond t (Error `Unavailable) k else from s fail
  | Sync ->
    let first = sync_side t prefer in
    from first (function
      | `Offline | `Fenced ->
        (* transparent failover mid-read: one retry on the other side *)
        Registry.incr t.c.redirects;
        if not (serves t (other first)) then k (Error `Unavailable)
        else from (other first) fail
      | e -> fail e)

(* ---------- fault and control surface ---------- *)

let cut_link t = Link.cut t.link
let heal_link t = Link.heal t.link
let lose_mediator t = Mediator.set_reachable t.med false
let restore_mediator t = Mediator.set_reachable t.med true

let crash_side t s =
  let n = node t s in
  if Fa.is_online n.arr then Fa.crash n.arr;
  if (not (Fa.is_online t.a.arr)) && not (Fa.is_online t.b.arr) then enter t Down

let recover_side ?mode t s k =
  let n = node t s in
  if Fa.is_online n.arr then Clock.schedule t.clock ~delay:0.0 k
  else
    Fa.failover ?mode n.arr (fun (_ : Purity_core.Recovery.report) ->
        register_telemetry t;
        k ())

(* ---------- failback / settle ---------- *)

(* The side whose content wins a reconciliation: the pod holder if the
   mediator knows one, else the solo server, else A by convention (a
   never-diverged pair is identical, so the convention only picks whose
   bytes get copied). *)
let survivor_side t =
  match Mediator.holder t.med with
  | Some s -> s
  | None -> ( match t.status with Solo s -> s | _ -> A)

(* Blocks to copy during failback: every dirty footprint and — after a
   double crash — everything the surviving side holds. *)
let resync_blocks_for t ~from name blocks =
  let module IS = Set.Make (Int) in
  let set = ref IS.empty in
  Hashtbl.iter
    (fun (v, b, l) () ->
      if String.equal v name then
        for j = max 0 b to min blocks (b + l) - 1 do
          set := IS.add j !set
        done)
    t.dirty;
  if t.full_resync then begin
    let st = Fa.state (node t from).arr in
    match State.Stbl.find_opt st.State.volumes name with
    | None -> ()
    | Some v ->
      List.iter
        (fun b -> set := IS.add b !set)
        (Delta.live_blocks st ~medium:v.State.medium ~blocks:v.State.blocks)
  end;
  IS.elements !set

(* Copy runs of [volume] from the survivor to the rejoining side over
   the link. Calls [k false] (abort) if the link dies mid-resync or a
   copy fails; already-copied blocks stay dirty-marked and are simply
   re-copied by the next attempt. *)
let rec copy_runs t ~from ~into volume runs k =
  match runs with
  | [] -> k true
  | (start, len) :: rest ->
    Fa.read (node t from).arr ~volume ~block:start ~nblocks:len (function
      | Error _ -> k false
      | Ok data ->
        Link.transfer t.link ~bytes:(String.length data)
          ~fail:(fun () -> k false)
          (fun () ->
            Fa.write (node t into).arr ~volume ~block:start data (function
              | Ok () ->
                Registry.add t.c.resync_blocks len;
                copy_runs t ~from ~into volume rest k
              | Error _ -> k false)))

let rec resync_volumes t ~from ~into vols k =
  match vols with
  | [] -> k true
  | (name, blocks) :: rest ->
    let bl = resync_blocks_for t ~from name blocks in
    let runs = Delta.runs_of bl ~max_run:resync_run in
    copy_runs t ~from ~into name runs (fun ok ->
        if ok then resync_volumes t ~from ~into rest k else k false)

(* Reconcile and return to symmetric service: copy the divergent blocks
   from [survivor] over the other side, clear the book, lift both
   fences, release the pod claim and enter [Sync] (stranding any mirror
   still in flight from the old era). *)
let reconcile t ~survivor k =
  let loser = other survivor in
  List.iter (mark_dirty t) t.inflight;
  t.inflight <- [];
  (* the loser's front door stays shut (pod status still routes around
     it), but resync writes must land: lift its array fence for the
     copy, restoring it if the copy aborts *)
  let loser_was_fenced = Fa.is_fenced (node t loser).arr in
  Fa.unfence (node t loser).arr;
  let finish ok =
    if ok then begin
      List.iter
        (fun n -> Hashtbl.iter (fun _ st -> Array.fill st 0 (Array.length st) 0) n.stamps)
        [ t.a; t.b ];
      let c = max t.a.counter t.b.counter in
      t.a.counter <- c;
      t.b.counter <- c;
      Hashtbl.reset t.dirty;
      t.full_resync <- false;
      Fa.unfence t.a.arr;
      Fa.unfence t.b.arr;
      (match Mediator.holder t.med with
      | Some h -> Mediator.release t.med h
      | None -> ());
      enter t Sync;
      Registry.incr t.c.resyncs;
      k (Sync, Some survivor)
    end
    else begin
      if loser_was_fenced then Fa.fence (node t loser).arr;
      k (t.status, Some survivor)
    end
  in
  if chaos.skip_resync then
    (* planted bug: declare the pod synced without copying *)
    finish true
  else resync_volumes t ~from:survivor ~into:loser t.vols finish

(* Claim the pod for [s] so a half-alive pod can serve again. *)
let try_solo t s k =
  match t.status with
  | Solo h when h = s -> respond t (Solo s, Some s) k
  | _ ->
    Registry.incr t.c.mediation_requests;
    Mediator.request t.med s (fun outcome ->
        verdict t s ~may_act:(function Solo _ -> false | _ -> true) outcome;
        k (t.status, match t.status with Solo h -> Some h | _ -> None))

(* Drive the pod toward the best status the current fault set allows:
   full failback when both sides and the link are healthy (after a
   double crash, whatever the link), mediated solo service when only one
   side lives, no change when nothing can improve. The callback reports
   the resulting status and, when content was (or would be) reconciled,
   whose bytes are authoritative. A solo pod whose owner is down waits
   for the owner: the peer is stale and must not take over. *)
let settle t k =
  register_telemetry t;
  let a_on = Fa.is_online t.a.arr and b_on = Fa.is_online t.b.arr in
  let both = a_on && b_on in
  let healthy = both && Link.up t.link in
  match t.status with
  | Solo s when healthy -> reconcile t ~survivor:s k
  | Solo s -> respond t (Solo s, Some s) k
  | Down when both -> reconcile t ~survivor:(survivor_side t) k
  | Frozen when healthy -> reconcile t ~survivor:(survivor_side t) k
  | Sync when healthy && (Hashtbl.length t.dirty > 0 || t.inflight <> [] || t.full_resync) ->
    reconcile t ~survivor:(survivor_side t) k
  | (Down | Frozen | Sync) as st ->
    if a_on && not b_on then try_solo t A k
    else if b_on && not a_on then try_solo t B k
    else respond t (st, None) k
